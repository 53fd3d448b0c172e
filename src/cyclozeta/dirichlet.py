"""Truncated Dirichlet-series algebra and generalized root transforms.

A :class:`DirichletSeries` holds exact coefficients g(1..N) of a formal
series sum g(k) k**(-s).  Multiplication is divisor convolution, the shift
g(k) -> k g(k) realizes s -> s - 1, and :func:`stretch` realizes s -> r s by
moving support onto r-th powers.  All identities in this module are verified
coefficientwise; nothing is ever evaluated analytically.

Attached to a cyclotomic product with exponents e on the divisors of n, a
series G induces four generalized root transforms

    m_G  = G * [d -> e(n/d)]      p_G  = G * [d -> d e(d)]
    m*_G = G * [d -> e(d)]        p*_G = G * [d -> d e(n/d)]

(the bracketed sequences are supported on divisors of n).  Taking G to be
the all-ones series recovers the even functions m, p, m*, p* of
:mod:`cyclozeta.zetaprod` on indices k >= 1.  :func:`g_transform` builds
each one from the weight table :func:`~cyclozeta.zetaprod.root_weights`
directly, a strided row of G per non-zero weight, not as a product of series.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add
from typing import Callable, Mapping, NamedTuple

from .arith import (
    div_exact,
    divisors,
    factorize,
    liouville,
    mobius,
    named_function,
    ramanujan_sum,
    require_int_keys,
)
from .exactpoly import PowerSeriesQ, _combine, _TruncatedSeries
from .report import Report
from .zetaprod import ZetaProduct, multiplicities, power_sums, root_weights


class DirichletSeries(_TruncatedSeries):
    """Exact coefficients g(1..order) of a truncated Dirichlet series."""

    __slots__ = ()
    first = 1

    def __mul__(self, other):
        """Divisor convolution, truncated to the smaller order."""
        if type(other) is not DirichletSeries:
            return super().__mul__(other)
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        a, b = self.coeffs, other.coeffs
        for i in range(1, n + 1):
            ai = a[i - 1]
            if ai:
                for j in range(1, n // i + 1):
                    bj = b[j - 1]
                    if bj:
                        out[i * j] += ai * bj
        return DirichletSeries(out[1:])

    def invert(self) -> "DirichletSeries":
        """Dirichlet inverse; needs g(1) != 0."""
        a = self.coeffs
        if a[0] == 0:
            raise ValueError("series with g(1) = 0 has no Dirichlet inverse")
        n = self.order
        b = [0] * (n + 1)
        b[1] = div_exact(1, a[0])
        for k in range(2, n + 1):
            acc = 0
            for d in divisors(k):
                if d > 1:
                    ad = a[d - 1]
                    if ad:
                        acc += ad * b[k // d]
            b[k] = div_exact(-acc, a[0])
        return DirichletSeries(b[1:])

    def shift(self) -> "DirichletSeries":
        """g(k) -> k g(k): the series of G(s - 1)."""
        return DirichletSeries([k * c for k, c in enumerate(self.coeffs, start=1)])

    def stretch(self, r: int) -> "DirichletSeries":
        """Support moved to r-th powers: the series of G(r s)."""
        if r < 1:
            raise ValueError("stretch needs r >= 1")
        out = [0] * self.order
        k = 1
        while k**r <= self.order:
            out[k**r - 1] = self.coeffs[k - 1]
            k += 1
        return DirichletSeries(out)


def zeta_series(order: int) -> DirichletSeries:
    """All-ones coefficients: the Riemann zeta series."""
    return DirichletSeries([1] * order)


def unit_series(order: int) -> DirichletSeries:
    """(1, 0, 0, ...): the convolution identity."""
    return DirichletSeries([1] + [0] * (order - 1))


def mobius_series(order: int) -> DirichletSeries:
    return DirichletSeries([mobius(k) for k in range(1, order + 1)])


# the series G that ``cyclozeta series --G`` offers, by name
SERIES_MAKERS = {"zeta": zeta_series, "unit": unit_series, "mobius": mobius_series}


def divisor_polynomial(coeffs: Mapping[int, object], order: int) -> DirichletSeries:
    """Finite Dirichlet polynomial with the given support."""
    require_int_keys(coeffs)
    out = [0] * order
    for k, v in coeffs.items():
        if k < 1:
            raise ValueError(f"support index {k} must be positive")
        if k <= order:
            out[k - 1] = v
    return DirichletSeries(out)


# ---------------------------------------------------------------------------
# generalized transforms


class GTransforms(NamedTuple):
    m: DirichletSeries
    p: DirichletSeries
    mstar: DirichletSeries
    pstar: DirichletSeries


def g_transform(z: ZetaProduct, G: DirichletSeries, kind: str) -> DirichletSeries:
    """One of the series m_G, p_G, m*_G, p*_G (kind "m", "p", "mstar", "pstar").

    The k-th coefficient is the sum of w(d) G(k/d) over d | k, d | n, for the
    root weights w of the kind: each non-zero w(d) adds the row w(d) G(1),
    w(d) G(2), ... at the multiples of d up to the order (none when d is
    past it) with one strided slice assignment, so no divisor polynomial is
    built and no index off the divisors of n is visited.
    """
    order = G.order
    out = [0] * order
    for d, w in root_weights(z, kind).items():
        if w:
            row = G.coeffs if w == 1 else [c * w for c in G.coeffs[: order // d]]
            out[d - 1 :: d] = map(add, out[d - 1 :: d], row)
    return DirichletSeries(out)


def g_transforms(z: ZetaProduct, G: DirichletSeries) -> GTransforms:
    """The four series m_G, p_G, m*_G, p*_G attached to z and G."""
    return GTransforms(*(g_transform(z, G, kind) for kind in GTransforms._fields))


def ps_g_transforms(z: ZetaProduct, g: PowerSeriesQ) -> tuple[PowerSeriesQ, PowerSeriesQ]:
    """Power-series analogues: multiply sum g(k) q**k by the q-integer sums

        sum_d e(n/d) / [d]_q      and      sum_d d e(d) / [d]_q

    where [d]_q = 1 + q + ... + q**(d-1).  g must have zero constant term.

    Read from the root data: sum_d w(d) / [d]_q = (1 - q) sum_k a(k) q**k
    for a(k) = sum of w(d) over d | (k, n), so the q-integer sum of the m
    (p) weights has the coefficients a(0), a(k) - a(k - 1) of a = m (p).
    """
    if g.coeffs[0] != 0:
        raise ValueError("ps_g_transforms: the coefficient series must start at q^1")

    def transform(a):
        return g * PowerSeriesQ([a(0)] + [a(k) - a(k - 1) for k in range(1, g.order)], g.order)

    return transform(multiplicities(z)), transform(power_sums(z))


# ---------------------------------------------------------------------------
# star-transform and transfer identities


def check_star_series(z: ZetaProduct, G: DirichletSeries) -> Report:
    """Star transforms of G against totient-paired root data, coefficientwise.

    * G(s) sum_d m(n/d) phi_{-s}(d) must be the series of m*_G;
    * (1/n) G(s) sum_d p(n/d) phi_{2-s}(d) must be the series of p*_G,
      compared undivided, as G(s) sum_d p(n/d) phi_{2-s}(d) == n p*_G; only
      a mismatch builds the quotient, to record its coefficient.

    Each totient phi_{t-s}(d) is built from its multiplicative form
    (:func:`_totient_polynomial`): the totient side calls neither
    :func:`~cyclozeta.arith.mobius_inversion` nor the weight table
    :func:`~cyclozeta.zetaprod.root_weights` that the transforms are read from.
    """
    n, order = z.n, G.order
    m = multiplicities(z)
    p = power_sums(z)
    divs = divisors(n)
    u = DirichletSeries(_combine(((m(n // d), _totient_polynomial(d, 0, order).coeffs) for d in divs), order))
    v = DirichletSeries(_combine(((p(n // d), _totient_polynomial(d, 2, order).coeffs) for d in divs), order))
    report = Report("star-series", context={"n": n, "order": order})
    _record_first_difference(report, G * u, g_transform(z, G, "mstar"), identity="mstar")
    Gv, pstar = G * v, g_transform(z, G, "pstar")
    if Gv == n * pstar:
        report.expect(True, identity="pstar")
    else:
        report.expect(False, **_first_difference(div_exact(1, n) * Gv, pstar, identity="pstar"))
    return report


@lru_cache(maxsize=None)
def _totient_polynomial(d: int, t: int, order: int) -> DirichletSeries:
    """phi_{t-s}(d) = sum of mu(d/e) e**(t-s) over e | d as a Dirichlet
    polynomial in s: the product over p**a || d of p**(a t) [p**a] - p**((a-1) t) [p**(a-1)]."""
    out = unit_series(order)
    for p, a in factorize(d):
        out = out * divisor_polynomial({p**a: p ** (a * t), p ** (a - 1): -(p ** ((a - 1) * t))}, order)
    return out


def _record_first_difference(report: Report, lhs: DirichletSeries, rhs: DirichletSeries, **labels) -> bool:
    """Expect the two series equal; if they differ, record
    :func:`_first_difference`'s labels.  True when they differ."""
    same = lhs == rhs
    return not report.expect(same, **(labels if same else _first_difference(lhs, rhs, **labels)))


def _first_difference(lhs: DirichletSeries, rhs: DirichletSeries, **labels) -> dict:
    """The labels, the first index k where the coefficients of two differing
    series differ and both coefficients there (or, when they agree up to the
    smaller order, both orders)."""
    common = range(1, min(lhs.order, rhs.order) + 1)
    k = next((k for k in common if lhs.coefficient(k) != rhs.coefficient(k)), None)
    if k is None:
        labels.update(lhs_order=lhs.order, rhs_order=rhs.order)
    else:
        labels.update(k=k, lhs=lhs.coefficient(k), rhs=rhs.coefficient(k))
    return labels


def check_transfer(z: ZetaProduct, G1: DirichletSeries, G2: DirichletSeries) -> Report:
    """The transfer identity between the two generalized transforms:

        G2(s) * [k m_{G1}(k)]  ==  G1(s - 1) * [p*_{G2}(k)]

    checked as an exact coefficient identity to the common order.
    """
    order = min(G1.order, G2.order)
    m_g1 = g_transform(z, G1.truncate(order), "m")
    pstar_g2 = g_transform(z, G2.truncate(order), "pstar")
    lhs = G2.truncate(order) * m_g1.shift()
    rhs = G1.truncate(order).shift() * pstar_g2
    report = Report("transfer", context={"n": z.n, "order": order})
    _record_first_difference(report, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# the twelve convolution examples


class TransferExample(NamedTuple):
    """One instance of the transfer identity written as a plain convolution.

    ``build(n, r, order)`` returns (G1, G2, h) with h(1..order) the named
    arithmetic sequence whose Dirichlet series is G1(s-1)/G2(s); the final
    identity then reads k m_{G1}(k) = sum over d | k of h(k/d) p*_{G2}(d).
    """

    index: int
    label: str
    needs_r: bool
    build: Callable[[int, int, int], tuple[DirichletSeries, DirichletSeries, list]]


def _abs_mobius_series(order: int) -> DirichletSeries:
    # zeta(s) / zeta(2s), built from zeta itself
    return zeta_series(order) * zeta_series(order).stretch(2).invert()


def _build_ex1(n, r, order):
    phi = named_function("euler_phi")
    return zeta_series(order), zeta_series(order), phi.values(order)


def _build_ex2(n, r, order):
    G1 = divisor_polynomial({d: 1 for d in divisors(r)}, order)
    h = [ramanujan_sum(k, r) for k in range(1, order + 1)]
    return G1, zeta_series(order), h


def _build_ex3(n, r, order):
    G2 = zeta_series(order).stretch(r).invert()
    rho = named_function("rho", r)
    return zeta_series(order), G2, rho.values(order)


def _build_ex4(n, r, order):
    G2 = zeta_series(order).stretch(r)
    klee = named_function("klee", r)
    return zeta_series(order), G2, klee.values(order)


def _build_ex5(n, r, order):
    beta = named_function("beta")
    return zeta_series(order), _abs_mobius_series(order), beta.values(order)


def _build_ex6(n, r, order):
    psi = named_function("dedekind_psi")
    return zeta_series(order), _abs_mobius_series(order).invert(), psi.values(order)


def _build_ex7(n, r, order):
    G = _abs_mobius_series(order).invert()
    phi = named_function("euler_phi")
    h = [liouville(k) * phi(k) for k in range(1, order + 1)]
    return G, G, h


def _liouville_twisted_power_divisors(k: int, r: int) -> int:
    # sum of lambda(t)**(r+1) t**r over t**r | k.  For odd r the Liouville
    # weight drops out and this is the plain sum of r-th-power divisors; for
    # even r it survives on the r-th root (the quoted zeta quotient expands
    # to the twisted sum, not to lambda * rho'_r, when r is even).
    total = 0
    t = 1
    while t**r <= k:
        if k % t**r == 0:
            w = liouville(t) if r % 2 == 0 else 1
            total += w * t**r
        t += 1
    return total


def _build_ex8(n, r, order):
    zr = zeta_series(order).stretch(r)
    z2r = zeta_series(order).stretch(2 * r)
    G1 = z2r * zr.invert()
    h = [liouville(k) * _liouville_twisted_power_divisors(k, r) for k in range(1, order + 1)]
    return G1, _abs_mobius_series(order), h


def _build_ex9(n, r, order):
    support: dict[int, int] = {}
    for d in divisors(n):
        g = math.gcd(r, d)
        j = d // g
        support[j] = support.get(j, 0) + g * mobius(n // d)
    G1 = divisor_polynomial(support, order)
    h = [ramanujan_sum(n, r * k) for k in range(1, order + 1)]
    return G1, mobius_series(order), h


def _build_ex10(n, r, order):
    G1 = divisor_polynomial({d: liouville(d) * mobius(n // d) for d in divisors(n)}, order)
    h = [liouville(k) * ramanujan_sum(n, k) for k in range(1, order + 1)]
    return G1, _abs_mobius_series(order), h


def _build_ex11(n, r, order):
    G1 = divisor_polynomial({1: -1, 2: 1}, order)
    h = [(-1) ** k for k in range(1, order + 1)]
    return G1, mobius_series(order), h


def _build_ex12(n, r, order):
    half = divisor_polynomial({1: 1, 2: -1}, order)
    G1 = zeta_series(order) * half
    largest_odd = named_function("largest_odd")
    return G1, half, largest_odd.values(order)


TRANSFER_EXAMPLES: dict[int, TransferExample] = {
    ex.index: ex
    for ex in [
        TransferExample(1, "euler-phi", False, _build_ex1),
        TransferExample(2, "ramanujan-row", True, _build_ex2),
        TransferExample(3, "power-quotient-divisors", True, _build_ex3),
        TransferExample(4, "klee-totient", True, _build_ex4),
        TransferExample(5, "square-gcd-count", False, _build_ex5),
        TransferExample(6, "dedekind-psi", False, _build_ex6),
        TransferExample(7, "liouville-phi", False, _build_ex7),
        TransferExample(8, "liouville-power-divisors", True, _build_ex8),
        TransferExample(9, "scaled-ramanujan-column", True, _build_ex9),
        TransferExample(10, "liouville-ramanujan", False, _build_ex10),
        TransferExample(11, "alternating", False, _build_ex11),
        TransferExample(12, "largest-odd-divisor", False, _build_ex12),
    ]
}


@lru_cache
def _example_series(ex: TransferExample, n: int, r: int, order: int):
    # (G1, G2, h * G2) depend on the example, not on the product, so the
    # brute-force evaluators behind h and the dense product h * G2 run once
    # per key.  The key is the example itself, not its index, so a replaced
    # TRANSFER_EXAMPLES entry is built afresh.
    G1, G2, h = ex.build(n, r, order)
    return G1, G2, DirichletSeries(h) * G2


@lru_cache
def _phi_inv_series(order: int) -> DirichletSeries:
    # phi_inv does not depend on the product, so it is evaluated once per order
    return DirichletSeries(named_function("phi_inv").values(order))


def convolution_example(index: int, z: ZetaProduct, r: int | None = None, order: int = 200) -> Report:
    """Check one worked convolution identity, coefficientwise to ``order``.

    The left side k m_{G1}(k) comes from :func:`g_transform`; the right side
    h * p*_{G2}, with h the independently evaluated named sequence, is read
    as the p* transform of h * G2 (a strided row of h * G2 per p* weight).
    G1, G2 and h * G2 depend on the example, n, r and order but not on the
    product, so they are built once per such key and shared by every
    product checked against it.  Example 1 additionally checks the inverse
    direction p*(k) = sum of phi_inv(k/d) d m(d), with phi_inv evaluated on
    its own, once per order.
    """
    if index not in TRANSFER_EXAMPLES:
        raise ValueError(f"unknown example index {index}")
    ex = TRANSFER_EXAMPLES[index]
    if ex.needs_r and (r is None or r < 1):
        raise ValueError(f"example {index} needs a parameter r >= 1")
    G1, G2, hG2 = _example_series(ex, z.n, r if ex.needs_r else 0, order)
    lhs = g_transform(z, G1, "m").shift()
    rhs = g_transform(z, hG2, "pstar")
    report = Report(
        f"convolution-example-{index}",
        context={
            "example": index,
            "label": ex.label,
            "n": z.n,
            "params": {"r": r} if ex.needs_r else {},
            "order": order,
        },
    )
    if not _record_first_difference(report, lhs, rhs) and index == 1:
        inverse = _phi_inv_series(order) * g_transform(z, zeta_series(order), "m").shift()
        _record_first_difference(report, g_transform(z, G2, "pstar"), inverse, identity="inverse")
    return report


def example_report_json(report: Report) -> dict:
    """The fixed JSON shape for example reports."""
    first = report.mismatches[0] if report.mismatches else None
    return {
        "example": report.context.get("example"),
        "n": report.context.get("n"),
        "params": report.context.get("params", {}),
        "order": report.context.get("order"),
        "status": report.status,
        "first_mismatch": (
            {"k": first.get("k"), "lhs": first.get("lhs"), "rhs": first.get("rhs")}
            if first
            else None
        ),
    }
