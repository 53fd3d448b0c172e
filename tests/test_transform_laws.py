"""Property tests of the divisor-lattice transforms: Möbius inversion against
divisor sums, the Dirichlet inverse, and the Ramanujan expansion of even
functions.

Every example is derived from the test's name (``derandomize=True``) and the
counts are bounded, so the run is deterministic and short.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cyclozeta.arith import DivisorMap, divisor_sums, divisors, mobius_inversion
from cyclozeta.dirichlet import DirichletSeries, unit_series
from cyclozeta.exactpoly import PolynomialQ
from cyclozeta.zetaprod import ramanujan_coefficients, ramanujan_reconstruct

LAWS = settings(derandomize=True, database=None, max_examples=100, deadline=None)

integers = st.integers(-6, 6)
fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
rationals = st.one_of(integers, fractions)
VALUES = {
    "int": integers,
    "fraction": fractions,
    "polynomial": st.lists(rationals, max_size=4).map(PolynomialQ),
}
conductors = st.integers(1, 60)


@pytest.mark.parametrize("kind", sorted(VALUES))
@LAWS
@given(data=st.data())
def test_mobius_inversion_and_divisor_sums_are_inverse(kind, data):
    n = data.draw(conductors)
    x = {d: data.draw(VALUES[kind]) for d in divisors(n)}
    assert mobius_inversion(n, divisor_sums(n, x)) == x
    assert divisor_sums(n, mobius_inversion(n, x)) == x


@LAWS
@given(rationals.filter(bool), st.lists(rationals, max_size=40))
def test_dirichlet_inverse(head, tail):
    a = DirichletSeries([head, *tail])
    assert a * a.invert() == unit_series(a.order)
    assert a.invert() * a == unit_series(a.order)
    assert a.invert().invert() == a


@LAWS
@given(data=st.data())
def test_ramanujan_expansion_round_trips(data):
    n = data.draw(conductors)
    a = DivisorMap(n, {g: data.draw(rationals) for g in divisors(n)})
    assert ramanujan_reconstruct(ramanujan_coefficients(a)) == a
    assert ramanujan_coefficients(ramanujan_reconstruct(a)) == a
