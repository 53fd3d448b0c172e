"""Eta-style product expansions and their closed forms."""

import pytest

from cyclozeta.arith import divisors
from cyclozeta.catalog import entries
from cyclozeta.etaprod import (
    _logderiv_coeffs,
    _ramanujan_kernel_coeffs,
    check_eta_forms,
    eta_log_derivative,
    lambert_series,
)
from cyclozeta.exactpoly import PowerSeriesQ, cyclotomic, expand, log_derivative
from cyclozeta.zetaprod import ZetaProduct


def test_kernels_expand_the_reduced_log_derivative():
    for d in range(1, 41):
        want = expand(log_derivative(cyclotomic(d)), 70).coeffs
        assert _logderiv_coeffs(d, 70) == want, d
        assert _ramanujan_kernel_coeffs(d, 70) == want, d


def test_lambert_coefficients():
    L = lambert_series(101)
    assert L.coefficient(0) == 0
    assert L.coefficient(1) == 1
    assert L.coefficient(6) == 12  # 1 + 2 + 3 + 6


def test_lambert_both_displayed_forms():
    """Divisor-sum coefficients agree with the term-by-term k q**k/(1-q**k) sum."""
    N = 100
    acc = [0] * N
    for k in range(1, N):
        for j in range(k, N, k):
            acc[j] += k
    assert tuple(acc) == lambert_series(N).coeffs


def test_single_factor_is_negative_lambert():
    z = ZetaProduct(1, {1: 1})
    exp = eta_log_derivative(z, 50)
    assert exp.series == -lambert_series(50)
    assert exp.series == exp.cyclotomic_form == exp.ramanujan_form
    assert exp.mu_e == 1


def test_constant_term_vanishes():
    z = ZetaProduct(6, {1: -1, 2: 1, 3: 1, 6: 1})
    exp = eta_log_derivative(z, 80)
    assert exp.series.coefficient(0) == 0


def test_parabolic_four_way_agreement():
    z = ZetaProduct(6, {1: -1, 2: 1, 3: 1, 6: 1})
    exp = eta_log_derivative(z, 100)
    assert exp.series == exp.cyclotomic_form == exp.ramanujan_form == -exp.lambert_form
    rep = check_eta_forms(z, 100)
    assert rep.status == "flagged" and len(rep.flags) == 1


@pytest.mark.parametrize("order", [1, 2])
def test_all_four_forms_at_the_smallest_orders_are_the_longer_expansion_cut(order):
    """At order 1 every form is the zero series; at order 2 each holds the
    coefficient of q, -e(1)."""
    for entry in entries():
        z = entry.zeta_product()
        exp, longer = eta_log_derivative(z, order), eta_log_derivative(z, 12)
        want = longer.series.truncate(order)
        assert exp.series == exp.cyclotomic_form == exp.ramanujan_form == -exp.lambert_form == want, entry.name
        assert want == PowerSeriesQ([0, -z.e[1]][:order]), entry.name


def test_zero_product_is_silent():
    z = ZetaProduct(6, {d: 0 for d in divisors(6)})
    rep = check_eta_forms(z, 60)
    assert rep.status == "pass" and not rep.flags


def test_additivity_in_exponents():
    za = ZetaProduct(12, {1: 2, 2: -1, 3: 0, 4: 1, 6: -2, 12: 1})
    zb = ZetaProduct(12, {1: -1, 2: 3, 3: 2, 4: 0, 6: 1, 12: -2})
    ea = eta_log_derivative(za, 90).series
    eb = eta_log_derivative(zb, 90).series
    assert ea + eb == eta_log_derivative(za * zb, 90).series


def test_catalog_sweep():
    """Every stored entry satisfies the corrected identity with one sign flag."""
    for entry in entries():
        rep = check_eta_forms(entry.zeta_product(), 100)
        assert rep.status == "flagged", (entry.name, rep.to_dict())
        assert len(rep.flags) == 1
