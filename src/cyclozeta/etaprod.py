"""Eta-style infinite products attached to a cyclotomic product.

For exponents e on the divisors of n, the product over all k >= 1 of the
cyclotomic product evaluated at q**k has a logarithmic derivative with an
exact q-expansion.  This module expands q d/dq log of the product directly
from its (1 - q**(k d)) factors and compares it with three closed forms:

* the Lambert form: sum of d e(d) L(q**d), where L(q) = sum of
  k q**k / (1 - q**k) = sum of sigma(m) q**m; in the exponent of q it is
  the transform g_transform(z, sigma, "p") of the power-sum root weights;
* the cyclotomic form: multiplicity-weighted log derivatives of the
  cyclotomic polynomials evaluated along q**k;
* the Ramanujan form: the same with each log derivative replaced by its
  Ramanujan-sum kernel over q**(k d) - 1; both weight Phi_d by m(n/d).

Two conventions are pinned here.  First, with (1 - q**(k d)) factors the
direct expansion equals MINUS the divisor Lambert combination - the sign is
intrinsic (a unit flip of every factor does not change the log derivative),
and the checker reports it as a single flag.  Second, the Ramanujan form
carries the weight k inherited from the chain rule; substituting the kernel
identity into the cyclotomic form forces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import zetaprod
from .arith import divisors, sigma
from .dirichlet import DirichletSeries, g_transform, zeta_series
from .exactpoly import PowerSeriesQ, _combine, expand_fraction
from .report import Report
from .zetaprod import ZetaProduct, multiplicities


def lambert_series(order: int) -> PowerSeriesQ:
    """L(q) = sum of sigma(m) q**m, truncated; constant term 0."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return PowerSeriesQ([0] + [sigma(m) for m in range(1, order)], order)


@dataclass(frozen=True)
class EtaExpansion:
    """q d/dq log of the eta-style product, with the three closed forms."""

    order: int
    mu_e: int
    series: PowerSeriesQ          # direct expansion from the product factors
    lambert_form: PowerSeriesQ    # sum of d e(d) L(q**d)
    cyclotomic_form: PowerSeriesQ
    ramanujan_form: PowerSeriesQ


# A zetaprod kernel (num, den) at d, expanded unreduced.  Keyed by the kernel,
# read from zetaprod at each call, so a kernel replaced there expands afresh.
@lru_cache(maxsize=None)
def _kernel_coeffs(kernel, d: int, order: int) -> tuple:
    return expand_fraction(*kernel(d), order).coeffs


def eta_log_derivative(z: ZetaProduct, order: int) -> EtaExpansion:
    """All four expansions to the given order.

    The direct series differentiates each (1 - q**(k d)) factor term by
    term; the closed forms are assembled independently, the Lambert one
    exactly as displayed (so it comes out as the negative of the other
    three).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    n = z.n
    direct = [0] * order
    for d, ed in z.e.items():
        if not ed:
            continue
        for k in range(1, (order - 1) // d + 1):
            step = k * d
            weight = ed * step
            for idx in range(step, order, step):
                direct[idx] -= weight

    series = PowerSeriesQ(direct, order)
    # The closed forms are Dirichlet convolutions in the exponent of q.  Their
    # series run over the exponents 1..order-1, and q_series places them at
    # q**1..q**(order-1).  At order 1 there is no such exponent (a Dirichlet
    # series cannot be empty), and every closed form is the zero series.
    if order == 1:
        zero = PowerSeriesQ([0], 1)
        return EtaExpansion(order, z.mu_e, series, zero, zero, zero)

    def q_series(ds: DirichletSeries) -> PowerSeriesQ:
        return PowerSeriesQ((0,) + ds.coeffs)

    # the chain-rule weight k of the kernel evaluated along q**k
    weights = zeta_series(order - 1).shift()
    m = multiplicities(z)

    def kernel_form(kernel) -> PowerSeriesQ:
        acc = _combine(((m(n // d), _kernel_coeffs(kernel, d, order)) for d in divisors(n)), order)
        return q_series(weights * DirichletSeries(acc[1:]))

    sigmas = DirichletSeries(lambert_series(order).coeffs[1:])
    return EtaExpansion(
        order=order,
        mu_e=z.mu_e,
        series=series,
        lambert_form=q_series(g_transform(z, sigmas, "p")),
        cyclotomic_form=kernel_form(zetaprod.logderiv_kernel),
        ramanujan_form=kernel_form(zetaprod.ramanujan_kernel),
    )


def check_eta_forms(z: ZetaProduct, order: int = 100) -> Report:
    """Compare the direct expansion against the three closed forms.

    Passes when direct == cyclotomic == Ramanujan == -(Lambert form); the
    global sign between the direct expansion and the Lambert combination is
    recorded as a single flag.
    """
    exp = eta_log_derivative(z, order)
    report = Report("eta-log-derivative", context={"n": z.n, "order": order, "mu_e": exp.mu_e})
    report.expect(
        exp.series == -exp.lambert_form,
        identity="lambert",
        detail="direct expansion != -(divisor Lambert combination)",
    )
    report.expect(exp.series == exp.cyclotomic_form, identity="cyclotomic")
    report.expect(exp.series == exp.ramanujan_form, identity="ramanujan")
    if report.status == "pass":
        nonzero = any(exp.series.coeffs)
        if nonzero:
            report.flag("eta sign: direct log derivative is the negative of the Lambert-form display")
        report.note("Ramanujan form carries the chain-rule weight k on each kernel")
    return report
