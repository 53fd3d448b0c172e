"""Apostol-style polynomial families and the power-weighted sum identities."""

import random
from fractions import Fraction

import pytest

from cyclozeta import apostol
from cyclozeta.apostol import (
    apostol_bernoulli,
    apostol_euler,
    check_weighted_sum_identities,
    weighted_geometric_sum,
)
from cyclozeta.arith import divisors
from cyclozeta.catalog import get as catalog_get
from cyclozeta.exactpoly import ONE, Q, ZERO, PolynomialQ, RationalFunctionQ, binomial_product
from cyclozeta.verify import SuiteConfig, suite_weighted_sums
from cyclozeta.zetaprod import ZetaProduct, random_zeta_product


def evaluate(P, x0, power: int = 1) -> RationalFunctionQ:
    """P at rational x = x0 with q -> q**power, as a reduced rational function."""
    return RationalFunctionQ(P.numerator(x0, power), apostol._base(P.family, P.den_power).substitute_power(power))


class TestFamilies:
    def test_bernoulli_base_cases(self):
        assert evaluate(apostol_bernoulli(0), Fraction(3, 7)) == RationalFunctionQ(ZERO)
        assert apostol_bernoulli(1).coefficients == (RationalFunctionQ(ONE, Q - 1),)
        b2 = apostol_bernoulli(2).coefficients
        assert b2 == (
            RationalFunctionQ(-2 * Q, (Q - 1) ** 2),
            RationalFunctionQ(PolynomialQ.constant(2), Q - 1),
        )

    def test_euler_base_cases(self):
        assert apostol_euler(0).coefficients == (
            RationalFunctionQ(PolynomialQ.constant(2), Q + 1),
        )
        e1 = apostol_euler(1).coefficients
        assert e1 == (
            RationalFunctionQ(-2 * Q, (Q + 1) ** 2),
            RationalFunctionQ(PolynomialQ.constant(2), Q + 1),
        )

    def test_degree_bounds(self):
        for r in range(8):
            assert apostol_bernoulli(r).x_degree <= r - 1
            assert apostol_euler(r).x_degree <= r

    def test_difference_equations(self):
        """q B_r(x+1, q) - B_r(x, q) = r x**(r-1) and the Euler analogue
        q E_r(x+1, q) + E_r(x, q) = 2 x**r, at rational points."""
        pts = [(Fraction(2, 3), Fraction(5, 2)), (Fraction(-7, 4), Fraction(-3))]
        for x0, q0 in pts:
            for r in range(1, 6):
                B = apostol_bernoulli(r)
                lhs = q0 * evaluate(B, x0 + 1)(q0) - evaluate(B, x0)(q0)
                assert lhs == r * x0 ** (r - 1), (x0, q0, r)
            for r in range(0, 6):
                E = apostol_euler(r)
                lhs = q0 * evaluate(E, x0 + 1)(q0) + evaluate(E, x0)(q0)
                assert lhs == 2 * x0**r, (x0, q0, r)

    @pytest.mark.parametrize("R", [6, 10])
    def test_generating_series_round_trip(self, R):
        """Partial sums of B_n(x,q) t**n/n! rebuild the defining quotient."""
        rng = random.Random(44)
        fact = [1]
        for i in range(1, R + 2):
            fact.append(fact[-1] * i)

        def quotient(num, den):
            out = []
            for k in range(R + 1):
                acc = num[k] if k < len(num) else Fraction(0)
                for j in range(1, k + 1):
                    acc -= den[j] * out[k - j]
                out.append(acc / den[0])
            return out

        for _ in range(5):
            x0 = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            q0 = Fraction(rng.randint(2, 9), rng.randint(1, 3))
            num = [Fraction(0)] + [Fraction(1) * x0 ** (j - 1) / fact[j - 1] for j in range(1, R + 1)]
            den = [q0 / fact[j] for j in range(R + 1)]
            den[0] = q0 - 1
            want = quotient(num, den)
            got = [Fraction(evaluate(apostol_bernoulli(r), x0)(q0)) / fact[r] for r in range(R + 1)]
            assert got == want, ("bernoulli", x0, q0)
            num = [Fraction(2) * x0**j / fact[j] for j in range(R + 1)]
            den = [q0 / fact[j] for j in range(R + 1)]
            den[0] = q0 + 1
            want = quotient(num, den)
            got = [Fraction(evaluate(apostol_euler(r), x0)(q0)) / fact[r] for r in range(R + 1)]
            assert got == want, ("euler", x0, q0)

    def test_substituted_parameter(self):
        b1 = evaluate(apostol_bernoulli(1), Fraction(0), power=3)
        assert b1 == RationalFunctionQ(ONE, Q**3 - 1)


class TestWeightedGeometricSum:
    def test_linear_instance(self):
        # sum of i q**i for i = 0..1 is q
        assert weighted_geometric_sum(1, 1, 0, 1).status == "pass"

    def test_plain_geometric(self):
        for n in (0, 3, 6):
            assert weighted_geometric_sum(n, 1, 0, 0).status == "pass"

    def test_sweep(self):
        for n in range(0, 7):
            for r in range(0, 5):
                for b, c in ((1, 0), (2, 3)):
                    for alt in (False, True):
                        rep = weighted_geometric_sum(n, b, c, r, alt)
                        assert rep.status == "pass", (n, b, c, r, alt)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_geometric_sum(3, 0, 1, 1)

    @pytest.mark.parametrize("power", [2, 3])
    def test_closed_form_at_a_power_of_q(self, power):
        """The blocks of the weighted-sum identities take the closed form at
        q**d: it equals the dense sum at q**power times the base there."""
        for count in range(1, 6):
            for r in range(0, 4):
                for b, c in ((1, 0), (2, 3)):
                    for alternating, family in ((False, "bernoulli"), (True, "euler")):
                        sign = -1 if alternating else 1
                        dense = PolynomialQ([sign**i * (b * i + c) ** r for i in range(count)])
                        base = apostol._base(family, r + 1)
                        want = (dense * base).substitute_power(power)
                        got = apostol._closed_form(b, c, r, count, alternating, power)
                        assert got == want, (count, r, b, c, family)


class TestWeightedSumIdentities:
    def test_zero_power_reduces_to_partial_fractions(self):
        rng = random.Random(21)
        z = random_zeta_product(rng, 6)
        rep = check_weighted_sum_identities(z, 1, 0, 0)
        assert rep.status == "pass"

    def test_small_conductor_random(self):
        rng = random.Random(22)
        for r in (1, 2, 3):
            z = random_zeta_product(rng, 6)
            assert check_weighted_sum_identities(z, 1, 0, r).status == "pass", r

    def test_catalog_entry_with_offsets(self):
        z = catalog_get("E_6").zeta_product()
        rep = check_weighted_sum_identities(z, 2, 3, 2)
        assert rep.status == "pass", rep.to_dict()

    def test_odd_conductor_exercises_euler_blocks(self):
        rng = random.Random(23)
        z = random_zeta_product(rng, 15)
        assert check_weighted_sum_identities(z, 2, 3, 3).status == "pass"

    def test_mobius_vector_reduces_to_cyclotomic(self):
        """e(d) = mu(n/d) makes the product a single cyclotomic polynomial,
        and the weighted identities specialize accordingly."""
        from cyclozeta.arith import divisors, mobius
        from cyclozeta.exactpoly import cyclotomic
        from cyclozeta.zetaprod import ZetaProduct, to_rational_function

        for n in (6, 12):
            z = ZetaProduct(n, {d: mobius(n // d) for d in divisors(n)})
            assert to_rational_function(z) == RationalFunctionQ(cyclotomic(n))
            for r in (0, 1, 2):
                assert check_weighted_sum_identities(z, 1, 0, r).status == "pass", (n, r)


def per_trial_rhs(z, b: int, c: int, r: int):
    """The right-hand sides of identities 2 and 3 as built once per product
    before their blocks were cached: the oracle for the cached blocks."""
    n = z.n
    B, E = apostol_bernoulli(r + 1), apostol_euler(r)
    qn = PolynomialQ.monomial(n)
    rhs2 = rhs3 = ZERO
    for d, ed in z.e.items():
        if not ed:
            continue
        x1 = Fraction(c + b * n, b * d)
        x0 = Fraction(c, b * d)
        bernoulli = Fraction(ed * (b * d) ** r, r + 1) * (
            qn * B.numerator(x1, power=d) - B.numerator(x0, power=d)
        )
        rhs2 = rhs2 + bernoulli * binomial_product([(n, r + 1), (d, -r - 1)])
        if d % 2:
            sign = (-1) ** (n // d - 1)
            euler = Fraction(ed * (b * d) ** r, 2) * (
                sign * qn * E.numerator(x1, power=d) + E.numerator(x0, power=d)
            )
            rhs3 = rhs3 + euler * binomial_product([(d, r + 1), (2 * n, r + 1), (2 * d, -r - 1)])
        else:
            rhs3 = rhs3 + bernoulli * binomial_product([(2 * n, r + 1), (d, -r - 1)])
    return rhs2, rhs3


class TestCachedBlocks:
    def test_blocks_equal_the_per_trial_oracle(self, monkeypatch):
        """For every (n, b, c, r) that the weighted-sums suite uses, block d is
        the oracle's right-hand side at e = [d], and the clearing multipliers
        are (q**n - 1)**(r+1) and (q**(2n) - 1)**(r+1)."""
        keys = []
        real = apostol._weighted_sum_blocks
        monkeypatch.setattr(apostol, "_weighted_sum_blocks", lambda *key: keys.append(key) or real(*key))
        assert suite_weighted_sums(SuiteConfig(trials=1)).status == "pass"
        assert len(keys) == 20
        for n, b, c, r in keys:
            blocks2, blocks3, clear2, clear3 = real(n, b, c, r)
            assert clear2 == (Q**n - 1) ** (r + 1) and clear3 == (Q ** (2 * n) - 1) ** (r + 1)
            for d in divisors(n):
                unit = ZetaProduct(n, {k: int(k == d) for k in divisors(n)})
                assert (blocks2[d], blocks3[d]) == per_trial_rhs(unit, b, c, r), (n, b, c, r, d)

    def test_calls_that_differ_only_in_c_each_pass(self):
        """A cache key that dropped c would hand one of the two calls the
        other's blocks, whichever of them was cached first."""
        z = ZetaProduct(6, {1: 2, 2: -1, 3: 1, 6: -2})
        for c in (0, 3):
            assert check_weighted_sum_identities(z, 1, c, 2).status == "pass", c

    def test_calls_that_differ_only_in_n_each_pass(self):
        for n in (6, 12):
            z = ZetaProduct(n, {d: 1 if d % 4 else -1 for d in divisors(n)})
            assert check_weighted_sum_identities(z, 2, 3, 1).status == "pass", n
