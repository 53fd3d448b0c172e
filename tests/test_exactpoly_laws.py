"""Property tests of the exact polynomial, rational-function and series
kernels, and of the one place where values are made exact.

Every example is derived from the test's name (``derandomize=True``) and the
counts are bounded, so the run is deterministic and short.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cyclozeta.arith import DivisorMap, as_exact, divisors, exact_values
from cyclozeta.dirichlet import DirichletSeries
from cyclozeta.exactpoly import ONE, ZERO, PolynomialQ, PowerSeriesQ, RationalFunctionQ, poly_gcd

LAWS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
series_coefficients = st.lists(coefficients, min_size=1, max_size=6)
polynomials = st.lists(coefficients, max_size=6).map(PolynomialQ)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)
rational_functions = st.builds(RationalFunctionQ, polynomials, nonzero_polynomials)


def assert_trimmed(p: PolynomialQ):
    assert not p.coeffs or p.coeffs[-1] != 0, p.coeffs


def assert_demoted(values):
    # integral Fractions are kept as ints, so the printed form is canonical
    values = list(values)
    assert all(type(x) is int or type(x) is Fraction and x.denominator != 1 for x in values), values


@LAWS
@given(st.lists(st.one_of(coefficients, st.integers(-6, 6).map(Fraction), st.booleans()), max_size=8))
def test_exact_values_is_as_exact_on_each_value(cs):
    got = exact_values(cs)
    want = [as_exact(c) for c in cs]
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]
    assert got is not cs


@pytest.mark.parametrize("bad", [1.0, 0.5, "1"], ids=repr)
def test_exact_values_refuses_floats_and_strings(bad):
    for cs in ([bad], [1, bad], [Fraction(1, 2), bad]):
        with pytest.raises(TypeError):
            exact_values(cs)


def assert_normal_form(f: RationalFunctionQ):
    assert f.den.is_monic
    assert poly_gcd(f.num, f.den) == ONE
    assert_trimmed(f.num)
    assert_trimmed(f.den)


@LAWS
@given(polynomials, polynomials, polynomials)
def test_polynomial_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    assert a - b == a + (-b) and a - a == ZERO
    for p in (a + b, a - b, a * b, a.derivative()):
        assert_trimmed(p)
        assert_demoted(p.coeffs)
    for k in (Fraction(3, 2), Fraction(-2, 3), 2):
        scaled = a * k
        assert scaled.coeffs == tuple(x * k for x in a.coeffs)
        assert_demoted(scaled.coeffs)


@LAWS
@given(polynomials, nonzero_polynomials)
def test_division_with_remainder(a, b):
    quo, rem = divmod(a, b)
    assert a == quo * b + rem
    assert rem.degree < b.degree
    for p in (quo, rem):
        assert_trimmed(p)
        assert_demoted(p.coeffs)


@LAWS
@given(series_coefficients, series_coefficients, coefficients)
def test_series_results_are_demoted(a, b, k):
    s, t = PowerSeriesQ(a), PowerSeriesQ(b)
    for r in (s + t, s * t, s * k):
        assert_demoted(r.coeffs)
    A, B = DirichletSeries(a), DirichletSeries(b)
    results = [A + B, A - B, A * B, A * k, A.shift()]
    if A.coeffs[0]:
        results.append(A.invert())
    for r in results:
        assert_demoted(r.coeffs)


@LAWS
@given(st.lists(coefficients, min_size=4, max_size=4), st.lists(coefficients, min_size=4, max_size=4))
def test_divisor_map_sum_is_demoted(a, b):
    total = DivisorMap(6, dict(zip(divisors(6), a))) + DivisorMap(6, dict(zip(divisors(6), b)))
    assert_demoted(total.values.values())


@LAWS
@given(rational_functions, rational_functions)
def test_rational_normal_form_under_field_operations(f, g):
    assert_normal_form(f)
    total, diff, prod = f + g, f - g, f * g
    for h in (total, diff, prod):
        assert_normal_form(h)
    # the values, by cross-multiplication against the unreduced operands
    assert total.num * f.den * g.den == (f.num * g.den + g.num * f.den) * total.den
    assert diff.num * f.den * g.den == (f.num * g.den - g.num * f.den) * diff.den
    assert prod.num * f.den * g.den == f.num * g.num * prod.den
    if not g.is_zero:
        quot = f / g
        assert_normal_form(quot)
        assert quot.num * f.den * g.num == f.num * g.den * quot.den
