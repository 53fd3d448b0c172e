"""Property tests of the exact polynomial and rational-function kernels.

Every example is derived from the test's name (``derandomize=True``) and the
counts are bounded, so the run is deterministic and short.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cyclozeta.exactpoly import ONE, ZERO, PolynomialQ, RationalFunctionQ, poly_gcd

LAWS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)
polynomials = st.lists(coefficients, max_size=6).map(PolynomialQ)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)
rational_functions = st.builds(RationalFunctionQ, polynomials, nonzero_polynomials)


def assert_trimmed(p: PolynomialQ):
    assert not p.coeffs or p.coeffs[-1] != 0, p.coeffs


def assert_demoted(p: PolynomialQ):
    # integral Fractions are kept as ints, so the printed form is canonical
    assert all(type(x) is int or x.denominator != 1 for x in p.coeffs), p.coeffs


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
        assert_demoted(p)
    for k in (Fraction(3, 2), Fraction(-2, 3), 2):
        scaled = a * k
        assert scaled.coeffs == tuple(x * k for x in a.coeffs)
        assert_demoted(scaled)


@LAWS
@given(polynomials, nonzero_polynomials)
def test_division_with_remainder(a, b):
    quo, rem = divmod(a, b)
    assert a == quo * b + rem
    assert rem.degree < b.degree
    for p in (quo, rem):
        assert_trimmed(p)
        assert_demoted(p)


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
