"""Exact polynomial, rational-function and power-series algebra."""

import math
import random
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub

import pytest

from cyclozeta.arith import divisors, ramanujan_sum
from cyclozeta.dirichlet import DirichletSeries
from cyclozeta.exactpoly import (
    ONE,
    Q,
    ZERO,
    ExactDivisionError,
    PolynomialQ,
    PowerSeriesQ,
    RationalFunctionQ,
    binomial_product,
    cyclotomic,
    cyclotomic_product,
    expand,
    log_derivative,
    necklace,
    poly_gcd,
    tensor_product,
)
from cyclozeta.exactpoly import _combine, _mul

F = Fraction


def schoolbook(a, b, limit=None):
    """The double loop that ``_mul`` replaced, kept as its oracle: every
    non-zero pair of coefficients, one product at a time."""
    if not a or not b:
        return []
    size = len(a) + len(b) - 1 if limit is None else limit
    out = [0] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for k, bj in enumerate(b[: size - i], i):
                if bj:
                    out[k] += ai * bj
    while out and not out[-1]:
        out.pop()
    return out


# operands of the product kernel by shape, each made from a drawn length k
OPERANDS = {
    "mixed": lambda rng, k: [rng.choice([0, rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 4))])
                             for _ in range(k)],
    "ints": lambda rng, k: [rng.randint(-9, 9) for _ in range(k)],
    "fractions": lambda rng, k: [F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)],
    "zero runs": lambda rng, k: [0] * rng.randint(0, 3) + [rng.choice([0, 0, 0, rng.randint(-4, 4)]) for _ in range(k)],
    "monomials": lambda rng, k: [0] * (k - 1) + [rng.choice([1, -1, 2, F(-3, 2)])],
    "units": lambda rng, k: [rng.choice([1, 1, -1, 0, F(1)]) for _ in range(k)],
}


class TestPolynomialQ:
    def test_canonical_form(self):
        assert PolynomialQ([1, 2, 0, 0]).coeffs == (1, 2)
        assert PolynomialQ([0, 0]).coeffs == ()
        assert PolynomialQ([Fraction(4, 2)]).coeffs == (2,)  # demoted to int

    def test_arithmetic(self):
        f = Q**2 + 3 * Q - 1
        g = 2 * Q - 5
        assert f + g == Q**2 + 5 * Q - 6
        assert f - f == ZERO
        assert f * g == 2 * Q**3 + Q**2 - 17 * Q + 5
        assert (Q - 1) ** 3 == Q**3 - 3 * Q**2 + 3 * Q - 1

    def test_divmod_and_exact_division(self):
        f = (Q**2 - 1) * (Q**3 + 7) + (Q + 2)
        quo, rem = divmod(f, Q**2 - 1)
        assert quo == Q**3 + 7 and rem == Q + 2
        assert ((Q**2 - 1) * (Q**2 + 1)).exact_div(Q**2 - 1) == Q**2 + 1
        with pytest.raises(ExactDivisionError):
            (Q**2 + 1).exact_div(Q - 1)

    def test_evaluation_and_substitution(self):
        f = Q**3 - Q
        assert f(2) == 6
        assert f(Fraction(1, 2)) == Fraction(-3, 8)
        assert f.substitute_power(2) == Q**6 - Q**2

    def test_derivative(self):
        assert (Q**3 - 2 * Q).derivative() == 3 * Q**2 - 2

    def test_str(self):
        assert str(Q**2 - Q + 1) == "q^2 - q + 1"
        assert str(ZERO) == "0"

    def test_scaling_by_a_fraction_keeps_integral_coefficients_as_ints(self):
        half = PolynomialQ([2, 6]) * Fraction(1, 2)
        assert half.coeffs == (1, 3) and all(type(c) is int for c in half.coeffs)
        assert str(half) == "3q + 1"
        assert str(RationalFunctionQ(PolynomialQ([2, 6]), PolynomialQ([1, 2]))) == "(3q + 1) / (q + 1/2)"

    def test_an_integral_coefficient_beside_a_fraction_prints_as_an_int(self):
        p = PolynomialQ([Fraction(1, 2), Fraction(6, 2)])
        assert str(p) == "3q + 1/2"
        assert str(PolynomialQ([Fraction(4, 2), 0, Fraction(-1, 3)])) == "-1/3*q^2 + 2"

    def test_products_sums_quotients_and_derivatives_keep_integral_coefficients_as_ints(self):
        half = Fraction(1, 2)
        product = PolynomialQ([0, 2]) * PolynomialQ([Fraction(3, 2)])
        assert str(product) == "3q"
        assert str(PolynomialQ([Fraction(3, 2)]) * PolynomialQ([0, 2])) == "3q"
        assert str(RationalFunctionQ(product, Q + 1)) == "(3q) / (q + 1)"
        # 3/2 + 3/2 is summed inside the product kernel as Fractions
        rows = PolynomialQ([0, 1, 1]) * PolynomialQ([Fraction(3, 2), Fraction(3, 2)])
        assert str(rows) == "3/2*q^3 + 3q^2 + 3/2*q"
        total = PolynomialQ([half, half]) + PolynomialQ([half, Fraction(3, 2)])
        quo, rem = divmod(PolynomialQ([0, Fraction(3, 2), 1]), PolynomialQ([-half, 1]))
        derivative = PolynomialQ([0, 0, half, Fraction(1, 3)]).derivative()
        for p, want in ((product, (0, 3)), (rows, (0, Fraction(3, 2), 3, Fraction(3, 2))), (total, (1, 2)),
                        (quo, (2, 1)), (rem, (1,)), (derivative, (0, 1, 1))):
            assert p.coeffs == want
            assert all(type(c) is int or c.denominator != 1 for c in p.coeffs), p.coeffs


def test_poly_gcd():
    f = (Q - 1) ** 2 * (Q + 3)
    g = (Q - 1) * (Q**2 + 1)
    assert poly_gcd(f, g) == Q - 1
    h = poly_gcd(Fraction(1, 3) * (Q - 2), Fraction(2, 5) * (Q - 2) * (Q + 1))
    assert h == Q - 2
    assert poly_gcd(f, ZERO) == f * Fraction(1, f.leading)


def test_poly_gcd_matches_sympy_on_products_that_share_factors():
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")
    rng = random.Random(23)

    def rand_poly(max_deg):
        lead = rng.choice([1, -2, 3, F(1, 2)])
        return PolynomialQ([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, max_deg))] + [lead])

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], q, domain="QQ")

    for _ in range(60):
        common, f, g = rand_poly(3), rand_poly(3), rand_poly(3)
        a = common * f * (f if rng.random() < 0.3 else ONE)
        b = common * g * (common if rng.random() < 0.3 else ONE)
        want = to_sympy(a).gcd(to_sympy(b)).monic()
        assert poly_gcd(a, b) == PolynomialQ([F(int(c.p), int(c.q)) for c in reversed(want.all_coeffs())]), (a, b)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic(1) == Q - 1
        assert cyclotomic(2) == Q + 1
        assert cyclotomic(6) == Q**2 - Q + 1
        assert cyclotomic(12) == Q**4 - Q**2 + 1

    def test_divisor_product_to_sixty(self):
        """q**n - 1 is the product of the cyclotomics over the divisors of n."""
        for n in range(1, 61):
            prod = ONE
            for d in divisors(n):
                prod = prod * cyclotomic(d)
            assert prod == PolynomialQ.monomial(n) - 1, n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_matches_sympy_to_120(self):
        sympy = pytest.importorskip("sympy")
        q = sympy.Symbol("q")
        for n in range(1, 121):
            want = reversed(sympy.Poly(sympy.cyclotomic_poly(n, q), q).all_coeffs())
            assert cyclotomic(n).coeffs == tuple(int(c) for c in want), n


def binomial_product_by_comprehensions(pairs, start=None):
    # binomial_product as written before its shift-and-subtract and its
    # negation ran in C
    a = {}
    for c, k in pairs:
        a[c] = a.get(c, 0) + k
    out = [1] if start is None else list(start.coeffs)
    for c, ac in a.items():
        for _ in range(ac):
            out = [x - y for x, y in zip([0] * c + out, out + [0] * c)]
    for c, ac in a.items():
        for _ in range(-ac):
            sums = [0] * len(out)
            for r in range(c):
                sums[r::c] = accumulate(out[r::c])
            if any(sums[-c:]):
                raise ExactDivisionError
            out = [-x for x in sums[:-c]]
    return out


class TestBinomialProduct:
    def test_equals_the_comprehensions_it_replaces(self):
        """Products and exact quotients of binomials times int, Fraction and
        mixed starts, against the comprehension loops, value and type."""
        rng = random.Random(139)
        for n in (1, 6, 12, 30, 60):
            divs = divisors(n)
            for draw in (lambda: rng.randint(-5, 5), lambda: F(rng.randint(-5, 5), rng.randint(2, 4)),
                         lambda: rng.choice((rng.randint(-5, 5), F(rng.randint(-5, 5), 3)))):
                for _ in range(8):
                    s = PolynomialQ([draw() for _ in range(rng.randint(0, 5))] + [rng.choice((1, F(2, 3), -4))])
                    num = [(c, rng.randint(0, 3)) for c in rng.choices(divs, k=3)]
                    den = [(c, -rng.randint(1, 2)) for c in rng.choices(divs, k=2)]
                    start = s * binomial_product([(c, -a) for c, a in den])
                    for pairs, st in ((num, None), (num, s), (num + den, start), (den, start)):
                        want = PolynomialQ(binomial_product_by_comprehensions(pairs, st))
                        got = binomial_product(pairs, st)
                        assert [(type(c), c) for c in got.coeffs] == [(type(c), c) for c in want.coeffs], (pairs, st)

    def test_equals_the_written_out_product(self):
        """Mixed signs that divide exactly, against dense numerator and
        denominator products; repeated c add up, d = n included."""
        rng = random.Random(71)
        for n in (1, 6, 12, 30, 60):
            divs = divisors(n)
            for _ in range(12):
                num = [(c, rng.randint(0, 3)) for c in rng.choices(divs, k=4)]
                # each denominator binomial divides its numerator power: d | c, at most a times
                den = [(rng.choice(divisors(c)), -rng.randint(0, a)) for c, a in num]
                pairs = [p for pair in zip(num, den) for p in pair]
                want = math.prod((PolynomialQ.monomial(c) - 1) ** a for c, a in num)
                want = want.exact_div(math.prod((PolynomialQ.monomial(d) - 1) ** -a for d, a in den))
                got = binomial_product(iter(pairs))
                assert got == want, pairs
                assert all(type(c) is int for c in got.coeffs), pairs

    def test_repeated_c_add_up(self):
        for r in range(4):
            for n in (1, 6, 12):
                assert binomial_product([(n, r + 1), (n, -r - 1)]) == ONE
                assert binomial_product([(n, r + 1), (n, 1), (n, -r - 1)]) == PolynomialQ.monomial(n) - 1
        assert binomial_product([(2, 1), (1, 2), (2, 1), (1, -1)]) == (Q**2 - 1) ** 2 * (Q - 1)

    def test_empty_and_zero_exponents_give_one(self):
        assert binomial_product([]) == ONE
        assert binomial_product([(1, 0), (12, 0)]) == ONE

    def test_a_remainder_raises(self):
        for pairs in ([(1, -1)], [(4, 1), (6, -1)], [(2, 3), (1, -1), (3, -1)], [(6, 1), (6, -2)]):
            with pytest.raises(ExactDivisionError):
                binomial_product(pairs)

    def test_a_c_below_one_is_refused(self):
        for pairs in ([(0, 1)], [(0, -1)], [(6, 1), (-2, 1)]):
            with pytest.raises(ValueError):
                binomial_product(pairs)

    def test_start_multiplies_the_product(self):
        """start * product for random start polynomials, int and Fraction,
        where the pairs divide: a start that is a multiple of the denominator
        binomials is divided exactly."""
        rng = random.Random(73)
        for n in (1, 6, 12, 30):
            divs = divisors(n)
            for _ in range(10):
                s = PolynomialQ([F(rng.randint(-5, 5), rng.choice((1, 1, 3))) for _ in range(rng.randint(0, 6))])
                pairs = [(c, rng.randint(0, 2)) for c in rng.choices(divs, k=3)]
                assert binomial_product(pairs, start=s) == s * binomial_product(pairs), (s, pairs)
                den = [(c, -rng.randint(1, 2)) for c in rng.choices(divs, k=2)]
                multiple = s * binomial_product([(c, -a) for c, a in den])
                assert binomial_product(pairs + den, start=multiple) == s * binomial_product(pairs), (s, pairs, den)
        assert binomial_product([(3, 2)], start=ZERO) == ZERO
        assert binomial_product([(3, -2)], start=ZERO) == ZERO

    def test_a_start_that_is_not_divisible_raises(self):
        for pairs, start in (([(1, -1)], ONE), ([(2, -1)], Q + 1), ([(3, -1)], Q**3 - Q),
                             ([(1, -2)], Q - 1), ([(6, 1), (4, -1)], Q**2 + Q + 1), ([(2, -1)], F(1, 2) * Q)):
            with pytest.raises(ExactDivisionError):
                binomial_product(pairs, start=start)

    def test_integral_fractions_are_demoted(self):
        """Coefficients of a Fraction start that come out integral are ints,
        from a product ((1/2 + 3/2 q)(q - 1)) and from a quotient
        ((1/2 + 1/2 q)(q**2 - 1) / (q - 1))."""
        got = binomial_product([(1, 1)], start=PolynomialQ([F(1, 2), F(3, 2)]))
        assert got.coeffs == (F(-1, 2), -1, F(3, 2)) and type(got.coeffs[1]) is int
        got = binomial_product([(1, -1)], start=PolynomialQ([F(1, 2), F(1, 2)]) * (Q**2 - 1))
        assert got.coeffs == (F(1, 2), 1, F(1, 2)) and type(got.coeffs[1]) is int
        got = binomial_product([(2, 1), (1, -1)], start=PolynomialQ([F(1, 2), F(1, 2)]))
        assert got.coeffs == (F(1, 2), 1, F(1, 2)) and type(got.coeffs[1]) is int

class TestCyclotomicProduct:
    def test_equals_the_written_out_product_of_cyclotomic_powers(self):
        """The binomial kernel against the dense product of powers of the
        Phi_d, on random exponent maps over divisors of the analyze ladder's n."""
        rng = random.Random(61)
        for n in (60, 360, 720, 1260, 2520, 5040):
            divs = divisors(n)
            for _ in range(3):
                exponents = {d: rng.randint(0, 3) for d in rng.sample(divs, 4)}
                exponents.update({d: rng.randint(0, 2) for d in rng.sample(divs[:8], 3)})
                want = math.prod((cyclotomic(d) ** k for d, k in exponents.items()), start=ONE)
                got = cyclotomic_product(exponents)
                assert got == want, (n, exponents)
                assert all(type(c) is int for c in got.coeffs), (n, exponents)

    def test_empty_and_zero_exponents_give_one(self):
        assert cyclotomic_product({}) == ONE
        assert cyclotomic_product({1: 0, 12: 0}) == ONE

    def test_an_inexact_division_raises(self):
        for exponents in ({1: -1}, {6: 1, 4: -1}, {12: 2, 60: -1}):
            with pytest.raises(ExactDivisionError):
                cyclotomic_product(exponents)


class TestNecklace:
    def test_values(self):
        assert necklace(1) == Q
        assert necklace(3) == Fraction(1, 3) * (Q**3 - Q)
        assert necklace(3)(2) == 2  # binary aperiodic necklaces of length 3

    def test_monomial_inversion(self):
        """sum of d' M(q, d') over d' | d rebuilds q**d, for d <= 60."""
        for d in range(1, 61):
            acc = ZERO
            for dp in divisors(d):
                acc = acc + dp * necklace(dp)
            assert acc == PolynomialQ.monomial(d), d


class TestTensorProduct:
    def test_unit_root(self):
        g = Q**3 + 2 * Q - 1
        assert tensor_product(Q - 1, g) == g

    def test_square(self):
        assert tensor_product(Q**2 - 1, Q**2 - 1) == (Q**2 - 1) ** 2

    def test_iterated_cubes(self):
        t = tensor_product(tensor_product(Q**3 - 1, Q**3 - 1), Q**3 - 1)
        assert t == (Q**3 - 1) ** 9

    def test_degree_multiplies(self):
        f = Q**2 + Q + 1
        g = Q**3 - 2
        assert tensor_product(f, g).degree == 6

    def test_commutative_associative_on_monic(self):
        rng = random.Random(99)
        for _ in range(5):
            f, g, h = (
                PolynomialQ([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
                for _ in range(3)
            )
            assert tensor_product(f, g) == tensor_product(g, f)
            assert tensor_product(tensor_product(f, g), h) == tensor_product(
                f, tensor_product(g, h)
            )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tensor_product(ZERO, Q - 1)

    # (f, g, f (x) g) low to high, f (x) g being the resultant in t of
    # t**deg(f) f(q/t) and g(t) with its scaling, on non-monic, zero-root and
    # constant inputs
    PINNED = [
        ([1, -3, 2], [-2, 3], [4, -18, 18]),
        ([0, 2, 1], [-3, 0, 1], [0, 0, -12, 0, 1]),
        ([0, 0, -1, 3], [1, 1, 2], [0, 0, 0, 0, 1, 3, 18]),
        ([5], [1, 0, 1], [25]),
        ([1, 0, 2], [7], [49]),
        ([3], [4], [1]),
        ([-1, F(2, 3), F(1, 2)], [F(2, 5), F(-1, 3), 0, 1],
         [F(-4, 25), F(4, 45), F(1, 18), F(-14, 27), F(-13, 54), 0, F(1, 8)]),
        ([0, -1, 1], [0, 4, 2], [0, 0, 0, 4, 2]),
        ([1, 0, 1], [0, 0, 3], [0, 0, 0, 0, 9]),
        ([0, 0, -2], [1, -1, 0, 5], [0, 0, 0, 0, 0, 0, -8]),
        ([2, -1, 0, 1], [-1, 0, 0, 2], [-8, 0, 0, -22, 0, 0, -24, 0, 0, -8]),
    ]

    @pytest.mark.parametrize("f, g, want", PINNED)
    def test_pinned_non_monic_zero_root_and_constant_inputs(self, f, g, want):
        assert tensor_product(PolynomialQ(f), PolynomialQ(g)).coeffs == PolynomialQ(want).coeffs

    def test_monic_inputs_match_the_sympy_resultant(self):
        sympy = pytest.importorskip("sympy")
        q, t = sympy.symbols("q t")
        rng = random.Random(2024)
        for _ in range(40):
            f, g = (
                PolynomialQ([0] * rng.randint(0, 1)
                            + [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
                            + [1])
                for _ in range(2)
            )
            m = f.degree
            f_rev = sum(sympy.Rational(c.numerator, c.denominator) * q**i * t ** (m - i)
                        for i, c in enumerate(map(F, f.coeffs)))
            g_t = sum(sympy.Rational(c.numerator, c.denominator) * t**i
                      for i, c in enumerate(map(F, g.coeffs)))
            res = sympy.Poly(sympy.resultant(f_rev, g_t, t), q)
            want = [F(int(c.p), int(c.q)) for c in reversed(res.monic().all_coeffs())]
            assert tensor_product(f, g) == PolynomialQ(want), (f, g)


class TestLogDerivative:
    def test_simple(self):
        assert log_derivative(Q - 1) == RationalFunctionQ(Q, Q - 1)

    def test_cyclotomic_six(self):
        assert log_derivative(cyclotomic(6)) == RationalFunctionQ(
            2 * Q**2 - Q, Q**2 - Q + 1
        )

    def test_ramanujan_kernel_form(self):
        """q Phi_6'/Phi_6 equals its Ramanujan-sum kernel over q**6 - 1."""
        kernel = PolynomialQ([0] + [ramanujan_sum(6, k) for k in range(1, 7)])
        assert PolynomialQ([0, 1, -1, -2, -1, 1, 2]) == kernel  # spot the row
        lhs = log_derivative(cyclotomic(6))
        assert lhs.num * (Q**6 - 1) == kernel * lhs.den

    def test_additive_over_products(self):
        rng = random.Random(4)
        for _ in range(10):
            f = PolynomialQ([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
            g = PolynomialQ([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [1])
            assert log_derivative(f * g) == log_derivative(f) + log_derivative(g)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            log_derivative(ZERO)


class TestExpand:
    def test_geometric(self):
        assert expand(RationalFunctionQ(ONE, ONE - Q), 4).coeffs == (1, 1, 1, 1)

    def test_difference_of_geometrics(self):
        f = RationalFunctionQ(ONE, ONE - Q) - RationalFunctionQ(ONE, ONE - Q**3)
        assert expand(f, 6).coeffs == (0, 1, 1, 0, 1, 1)

    def test_polynomial_input(self):
        assert expand(RationalFunctionQ(Q**3 - 1, Q - 1), 4).coeffs == (1, 1, 1, 0)

    def test_rejects_pole_at_zero(self):
        with pytest.raises(ValueError):
            expand(RationalFunctionQ(ONE, Q), 5)


class TestRationalFunctionQ:
    def test_reduction_invariants(self):
        f = RationalFunctionQ((Q - 1) * (Q + 2), (Q - 1) * (2 * Q + 4) * (Q + 1))
        assert f.den.is_monic
        assert poly_gcd(f.num, f.den) == ONE
        assert f == RationalFunctionQ(PolynomialQ.constant(Fraction(1, 2)), Q + 1)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunctionQ(ONE, ZERO)

    def test_field_arithmetic(self):
        f = RationalFunctionQ(ONE, Q - 1)
        g = RationalFunctionQ(Q, Q + 1)
        assert f + g == RationalFunctionQ(Q**2 + 1, Q**2 - 1)
        assert (f * g) / g == f
        assert f**-2 == RationalFunctionQ((Q - 1) ** 2)

    def test_pole_evaluation(self):
        f = RationalFunctionQ(ONE, Q - 1)
        assert f(2) == 1
        with pytest.raises(ZeroDivisionError):
            f(1)

    # Powers, derivatives and reflected operations against evaluation at
    # rational points; a point where a side has a pole is left out.
    POINTS = (F(-7, 3), F(-1), F(-1, 2), F(0), F(2, 5), F(1), F(3), F(11, 4))

    @staticmethod
    def functions() -> list:
        rng = random.Random(137)

        def poly(degree):
            coeffs = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(degree)]
            return PolynomialQ(coeffs + [rng.choice((-2, 1, F(3, 2)))])

        return [RationalFunctionQ(poly(rng.randint(0, 3)), poly(rng.randint(0, 3))) for _ in range(12)] + [
            RationalFunctionQ(F(-3, 2) * (Q - 1) * (Q + 2), Q**2 + 1),
            RationalFunctionQ(Q**3, ONE),
            RationalFunctionQ(ONE, Q - 1),
        ]

    @staticmethod
    def value(f, x):
        """f(x), or None at a pole of f."""
        return None if f.den(x) == 0 else f(x)

    def test_a_power_is_the_power_of_each_value(self):
        for f in self.functions():
            for k in (0, 1, 2, 3, -1, -2, -3):
                power = f**k
                assert power.den.is_monic and poly_gcd(power.num, power.den) == ONE, (f, k)
                for x in self.POINTS:
                    v = self.value(f, x)
                    if v is not None and (k >= 0 or v != 0):
                        assert power(x) == F(v) ** k, (f, k, x)

    def test_a_negative_power_of_zero_is_refused(self):
        zero = RationalFunctionQ(ZERO)
        assert zero**0 == ONE and zero**3 == ZERO
        for k in (-1, -4):
            with pytest.raises(ZeroDivisionError, match="negative power of zero"):
                zero**k

    def test_the_derivative_is_the_quotient_rule_at_each_point(self):
        """f = a / b has f'(x) = (a'(x) b(x) - a(x) b'(x)) / b(x)**2, with
        each polynomial's value and slope read by Horner's rule on dual
        numbers, not from PolynomialQ.derivative."""

        def value_and_slope(p, x):
            value = slope = 0
            for c in reversed(p.coeffs):
                value, slope = value * x + c, slope * x + value
            return value, slope

        for f in self.functions():
            df = f.derivative()
            assert df.den.is_monic and poly_gcd(df.num, df.den) == ONE, f
            for x in self.POINTS:
                (a, da), (b, db) = value_and_slope(f.num, x), value_and_slope(f.den, x)
                if b != 0:
                    assert df(x) == (da * b - a * db) / b**2, (f, x)

    def test_reflected_subtraction_and_division_take_the_left_operand_first(self):
        for f in self.functions():
            for c in (3, F(-2, 5), Q + 1, PolynomialQ([F(1, 2), 0, -2])):
                difference, quotient = c - f, c / f
                assert isinstance(difference, RationalFunctionQ) and isinstance(quotient, RationalFunctionQ)
                for x in self.POINTS:
                    v = self.value(f, x)
                    left = c(x) if isinstance(c, PolynomialQ) else c
                    if v is not None:
                        assert difference(x) == left - v, (c, f, x)
                    if v:
                        assert quotient(x) == F(left) / v, (c, f, x)
        with pytest.raises(ZeroDivisionError):
            2 / RationalFunctionQ(ZERO)


class TestPolynomialReflectedAndScalarComparison:
    def test_a_number_less_a_polynomial(self):
        rng = random.Random(139)
        for _ in range(20):
            p = PolynomialQ([F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(0, 5))])
            for c in (0, 5, -3, F(7, 2)):
                got = c - p
                assert isinstance(got, PolynomialQ) and got == -(p - c), (c, p)
                for x in (F(-3, 2), 0, 1, F(5, 3)):
                    assert got(x) == c - p(x), (c, p, x)
        assert 2 - (Q + 2) == -Q and [type(c) for c in (4 - 2 * Q).coeffs] == [int, int]

    def test_a_polynomial_equals_a_number_only_as_a_constant(self):
        assert ZERO == 0 and 0 == ZERO and ONE == 1 and ONE == F(1)
        assert PolynomialQ([F(3, 2)]) == F(3, 2) and PolynomialQ([F(8, 2)]) == 4
        assert ZERO != 1 and ONE != 0 and ONE != F(1, 2) and Q != 1 and Q + 1 != 1
        assert PolynomialQ([F(3, 2)]) != F(2, 3) and -ONE == -1 and -ONE != 1


class TestPowerSeriesQ:
    def test_truncation_is_hard(self):
        a = PowerSeriesQ([1, 2, 3], 3)
        b = PowerSeriesQ([1, 1], 2)
        assert (a * b).order == 2
        assert (a + b).order == 2
        with pytest.raises(ValueError):
            a.truncate(5)
        with pytest.raises(IndexError):
            a.coefficient(3)

    def test_multiplication(self):
        a = PowerSeriesQ([1, 1, 1, 1], 4)
        assert (a * a).coeffs == (1, 2, 3, 4)

    def test_product_is_the_truncated_dense_product(self):
        rng = random.Random(17)
        shapes = [("mixed", "mixed")] * 30 + [(left, right) for left in OPERANDS for right in OPERANDS] * 2
        for shape in shapes:
            a, b = (PowerSeriesQ(OPERANDS[kind](rng, rng.randint(1, 12))) for kind in shape)
            n = min(a.order, b.order)
            written = [sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)) for k in range(n)]
            dense = _mul(a.coeffs, b.coeffs)
            assert (a * b).order == n
            assert (a * b).coeffs == tuple(written), shape
            assert (a * b).coeffs == PowerSeriesQ(dense, n).coeffs, shape


class TestMul:
    @pytest.mark.parametrize("right", OPERANDS)
    @pytest.mark.parametrize("left", OPERANDS)
    def test_equals_the_schoolbook_loop_in_both_orders_at_every_limit(self, left, right):
        rng = random.Random(f"{left}:{right}")
        for _ in range(20):
            a = OPERANDS[left](rng, rng.randint(1, 12))
            b = OPERANDS[right](rng, rng.randint(1, 12))
            full = len(a) + len(b) - 1
            for limit in (None, 1, rng.randint(1, full), full - 1, full, full + 3):
                want = schoolbook(a, b, limit)
                assert _mul(a, b, limit) == want and _mul(b, a, limit) == want, (a, b, limit)


# scalars of the linear-combination kernel by kind
SCALARS = {
    "ints": lambda rng: rng.randint(-4, 4),
    "fractions": lambda rng: F(rng.randint(-4, 4), rng.randint(1, 5)),
    "mixed": lambda rng: rng.choice([1, -1, 0, F(1), rng.randint(-4, 4), F(rng.randint(-4, 4), rng.randint(1, 5))]),
    "zeros": lambda rng: rng.choice([0, F(0)]),
}


class TestCombine:
    """``_combine`` against the sums it replaced, kept as its oracle: one
    scaled container per term, added up from zero."""

    @staticmethod
    def terms(rng, scalar, rows):
        # rows of unequal lengths, the empty row among them
        return [(SCALARS[scalar](rng), rng.choice([(), OPERANDS[rows](rng, rng.randint(1, 12))]))
                for _ in range(rng.randint(0, 6))]

    @pytest.mark.parametrize("rows", OPERANDS)
    @pytest.mark.parametrize("scalar", SCALARS)
    def test_a_polynomial_sum_equals_the_sum_of_scaled_polynomials(self, scalar, rows):
        rng = random.Random(f"combine:{scalar}:{rows}")
        for _ in range(30):
            terms = self.terms(rng, scalar, rows)
            out = _combine(terms)
            assert not out or out[-1], terms
            assert PolynomialQ(out) == sum((c * PolynomialQ(cs) for c, cs in terms), ZERO), terms

    @pytest.mark.parametrize("rows", OPERANDS)
    @pytest.mark.parametrize("scalar", SCALARS)
    def test_a_series_sum_keeps_its_order_and_equals_the_sum_of_scaled_series(self, scalar, rows):
        rng = random.Random(f"combine-series:{scalar}:{rows}")
        for _ in range(30):
            terms = self.terms(rng, scalar, rows)
            order = rng.randint(1, 14)
            out = _combine(terms, order)
            assert len(out) == order, (terms, order)
            want = sum((c * PowerSeriesQ(cs, order) for c, cs in terms), PowerSeriesQ([0], order))
            assert PowerSeriesQ(out, order) == want, (terms, order)


class TestTruncatedSeries:
    """PowerSeriesQ and DirichletSeries share one container.  Each of its
    operations is checked against the per-class comprehensions it replaced,
    kept as its oracle."""

    @pytest.mark.parametrize("kind, first", [(PowerSeriesQ, 0), (DirichletSeries, 1)], ids=["power", "dirichlet"])
    def test_equals_the_per_class_comprehensions(self, kind, first):
        rng = random.Random(f"container:{kind.__name__}")
        for _ in range(40):
            a, b = (OPERANDS["mixed"](rng, rng.randint(1, 12)) for _ in range(2))
            c = SCALARS["mixed"](rng)
            A, B = kind(a), kind(b)
            n = min(len(a), len(b))
            # mixed orders truncate to the smaller one
            assert A + B == kind([x + y for x, y in zip(A.coeffs[:n], B.coeffs[:n])]) and (A + B).order == n
            assert A - B == kind([x - y for x, y in zip(A.coeffs[:n], B.coeffs[:n])]) and (A - B).order == n
            assert -A == kind([-x for x in A.coeffs])
            assert A * c == c * A == kind([x * c for x in A.coeffs])
            # a scalar adds at coeffs[0], the unit of both products
            assert A + c == c + A == kind([A.coeffs[0] + c, *A.coeffs[1:]])
            assert A - c == kind([A.coeffs[0] - c, *A.coeffs[1:]])
            assert c - A == kind([c - A.coeffs[0], *(-x for x in A.coeffs[1:])])
            assert A.coefficient(first) == A.coeffs[0] and A.coefficient(first + len(a) - 1) == A.coeffs[-1]
            for k in (first - 1, first + len(a)):
                with pytest.raises(IndexError):
                    A.coefficient(k)
            k = rng.randint(1, len(a))
            assert A.truncate(k) == kind(A.coeffs[:k]) and A.truncate(len(a)) == A
            for k in (0, len(a) + 1):
                with pytest.raises(ValueError):
                    A.truncate(k)

    def test_the_two_kinds_never_compare_equal_nor_mix(self):
        cs = [1, F(1, 2), 0, -3]
        P, D = PowerSeriesQ(cs), DirichletSeries(cs)
        assert P.coeffs == D.coeffs
        assert P != D and D != P
        for op in (add, sub, mul):
            for x, y in ((P, D), (D, P)):
                with pytest.raises(TypeError):
                    op(x, y)
