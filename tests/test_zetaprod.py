"""Root data of cyclotomic products and the even-function machinery."""

import functools
import hashlib
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import cyclozeta.verify as verify
import cyclozeta.zetaprod as zetaprod
from cyclozeta.arith import (
    DivisorMap,
    div_exact,
    divisors,
    euler_phi,
    factorize,
    jordan_totient,
    mobius_inversion,
    mobius_transform,
    ramanujan_sum,
    rational_power,
)
from cyclozeta.catalog import get as catalog_get
from cyclozeta.etaprod import check_eta_forms
from cyclozeta.exactpoly import ONE, ZERO, PolynomialQ, Q, RationalFunctionQ, cyclotomic, necklace
from cyclozeta.report import Report
from cyclozeta.verify import SuiteConfig, suite_pairings
from cyclozeta.zetaprod import (
    ZetaParseError,
    ZetaProduct,
    check_fourier_pair_family,
    check_mobius_pairing,
    check_pairing_preset,
    check_totient_pairing,
    cyclotomic_exponents,
    dft_power_sums,
    expand_divisor_product,
    gf_power_series,
    lambert_form,
    lambert_polynomial,
    multiplicities,
    parse_zeta_product,
    partial_zeta,
    power_sums,
    ramanujan_coefficients,
    ramanujan_reconstruct,
    random_even_function,
    random_zeta_product,
    root_weights,
    saito_dual,
    saito_transform,
    star_functions,
    to_rational_function,
)

A2 = ZetaProduct(3, {1: -1, 3: 1})


# Oracles for cyclotomic_exponents: repeated division, and the fold of each
# Hasse derivative mod q**d - 1 reduced by Phi_d's coefficients.


def _division_count(p: PolynomialQ, f: PolynomialQ) -> int:
    count = 0
    while not p.is_zero:
        quo, rem = divmod(p, f)
        if not rem.is_zero:
            break
        p = quo
        count += 1
    return count


def root_multiplicity_at_one(f: RationalFunctionQ) -> int:
    """Sign-counted multiplicity of the root q = 1."""
    linear = Q - 1
    return _division_count(f.num, linear) - _division_count(f.den, linear)


def _reduced_fold_valuation(p: PolynomialQ, d: int) -> int:
    # the least j whose Hasse derivative sum_k C(k, j) a_k q**(k - j) is
    # non-zero mod Phi_d: folded mod q**d - 1 first, then reduced mod the
    # monic Phi_d of degree deg, whose non-zero lower coefficients are the
    # (k, c) pairs of low
    phi = cyclotomic(d).coeffs
    low = [(k, c) for k, c in enumerate(phi[:-1]) if c]
    deg = len(phi) - 1
    cs = p.coeffs
    for j in range(len(cs)):
        folded = [0] * d
        for k in range(j, len(cs)):
            if cs[k]:
                folded[(k - j) % d] += math.comb(k, j) * cs[k]
        for i in range(d - 1, deg - 1, -1):
            if t := folded[i]:
                for k, c in low:
                    folded[i - deg + k] -= t * c
        if any(folded[:deg]):
            return j
    return 0


def slice_sum_vanishes(h: list, d: int, shifts: tuple[int, ...]) -> bool:
    f = [sum(h[r::d]) for r in range(d)]
    for s in shifts:
        f = [a - b for a, b in zip(f[-s:] + f[:-s], f)]
    return not any(f)


def per_divisor_valuations(p: PolynomialQ, n: int) -> dict[int, int]:
    # the valuation loop before the degree budget: each d | n searched on its
    # own up to deg P, every derivative folded by d slice sums
    derivatives = [list(p.coeffs)]
    out = {}
    for d in divisors(n):
        phi, shifts = euler_phi(d), tuple(d // q for q, _ in factorize(d))
        j = 0
        while (j + 1) * phi <= p.degree:
            if j == len(derivatives):
                derivatives.append([k * c for k, c in enumerate(derivatives[-1][1:], 1)])
            if not slice_sum_vanishes(derivatives[j], d, shifts):
                break
            j += 1
        out[d] = j
    return out


# The root-data loops as they were written before their per-value work ran
# in C: the oracles of the rewritten kernels.


def derivative_by_enumerate(h: list) -> list:
    return [k * c for k, c in enumerate(h[1:], 1)]


def exponents_by_divisor_scan(n: int, e) -> dict:
    # the exponent of Phi_d: e summed over the multiples of d dividing n
    return {d: sum(e[dp] for dp in divisors(n) if dp % d == 0) for d in divisors(n)}


def synthesis_by_generator(a: DivisorMap, scale: int = 1) -> dict:
    n = a.n
    divs = divisors(n)
    column = [a[n // d] for d in divs]
    D = math.lcm(*(v.denominator for v in column))
    column = [v.numerator * (D // v.denominator) for v in column]
    return {
        g: div_exact(sum(x * c for x, c in zip(column, row)), D * scale)
        for g, row in zip(divs, zetaprod._ramanujan_matrix(n))
    }


def _typed_items(values: dict) -> list:
    return [(k, type(v), v) for k, v in values.items()]


def even_functions(rng, n: int) -> list[DivisorMap]:
    """Int values, non-integral Fractions alone, and the two mixed."""
    divs = divisors(n)
    return [
        DivisorMap(n, {d: rng.randint(-9, 9) for d in divs}),
        DivisorMap(n, {d: Fraction(rng.choice((-7, -1, 1, 5)), rng.choice((2, 3, 4, 6))) for d in divs}),
        DivisorMap(n, {d: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
                       for d in divs}),
    ]


@pytest.fixture(scope="module")
def lambert_cases():
    """(even function, its Lambert form reduced by RationalFunctionQ's gcd):
    m, p, Fraction-valued and all-zero functions, n = 1, primes and n = 360."""
    rng = random.Random(47)
    cases = []
    for n in (1, 2, 7, 12, 30, 97, 360) + tuple(rng.randint(1, 90) for _ in range(8)):
        z = random_zeta_product(rng, n)
        for a in (multiplicities(z), power_sums(z), random_even_function(rng, n), DivisorMap.zeros(n)):
            cases.append((a, RationalFunctionQ(PolynomialQ(a.residues()), ONE - PolynomialQ.monomial(n))))
    return cases


def _typed(f: RationalFunctionQ):
    return [[(type(c), c) for c in p.coeffs] for p in (f.num, f.den)]


class TestRootData:
    def test_rank_two_multiplicities(self):
        assert multiplicities(A2).residues() == (0, 1, 1)
        assert power_sums(A2).residues() == (2, -1, -1)

    def test_double_root_instance(self):
        z = ZetaProduct(2, {1: 1, 2: 1})  # roots 1, 1, -1
        assert multiplicities(z).residues() == (2, 1)
        assert power_sums(z).residues() == (3, 1)

    def test_zero_exponents(self):
        z = ZetaProduct(12, {d: 0 for d in divisors(12)})
        assert not any(multiplicities(z).residues())
        assert not any(power_sums(z).residues())
        assert to_rational_function(z) == RationalFunctionQ(ONE)

    def test_total_multiplicity_at_zero(self):
        rng = random.Random(3)
        for n in (1, 6, 12, 30):
            z = random_zeta_product(rng, n)
            assert multiplicities(z)(0) == z.mu_e
            mstar, _ = star_functions(z)
            assert mstar(0) == z.mu_e

    def test_root_data_matches_per_index_divisor_sums(self):
        """m, p, m*, p* against the per-k divisor sums, written out, with gcd(0, n) = n."""
        for n in range(1, 61):
            z = random_zeta_product(random.Random(f"per-k:{n}"), n)
            e = z.e
            m, p = multiplicities(z), power_sums(z)
            mstar, pstar = star_functions(z)
            for k in range(n):
                g = math.gcd(k, n)
                assert m(k) == sum(e[n // d] for d in divisors(g)), (n, k)
                assert p(k) == sum(d * e[d] for d in divisors(g)), (n, k)
                assert mstar(k) == sum(e[d] for d in divisors(g)), (n, k)
                assert pstar(k) == sum(d * e[n // d] for d in divisors(g)), (n, k)

    def test_periodic_indexing(self):
        m = multiplicities(A2)
        assert m(3) == m(0) and m(-1) == m(2)

    def test_additivity(self):
        rng = random.Random(1)
        z1, z2 = (random_zeta_product(rng, 12) for _ in range(2))
        assert multiplicities(z1 * z2) == multiplicities(z1) + multiplicities(z2)
        assert power_sums(z1 * z2) == power_sums(z1) + power_sums(z2)

    def test_root_weights_read_in_divisor_order_equal_the_per_key_reads(self):
        """The weights read e forwards or backwards; the per-key reads they
        replaced are the oracle, key order included."""
        rng = random.Random(29)
        for n in range(1, 121):
            divs = list(divisors(n))
            rng.shuffle(divs)
            z = ZetaProduct(n, {d: rng.randint(-3, 3) for d in divs})
            e = z.e
            want = {
                "m": {d: e[n // d] for d in divisors(n)},
                "p": {d: d * e[d] for d in divisors(n)},
                "mstar": {d: e[d] for d in divisors(n)},
                "pstar": {d: d * e[n // d] for d in divisors(n)},
            }
            for kind, weights in want.items():
                assert list(root_weights(z, kind).items()) == list(weights.items()), (n, kind)

    def test_root_weights(self):
        assert root_weights(A2, "m") == {1: 1, 3: -1}
        assert root_weights(A2, "p") == {1: -1, 3: 3}
        assert root_weights(A2, "mstar") == {1: -1, 3: 1}
        assert root_weights(A2, "pstar") == {1: 1, 3: -3}
        root_weights(A2, "mstar")[1] = 99
        assert A2.e[1] == -1
        with pytest.raises(ValueError):
            root_weights(A2, "q")


class TestSaito:
    def test_transform_reverses_indices(self):
        assert saito_transform(A2).e.values == {1: 1, 3: -1}
        assert saito_dual(A2).e.values == {1: -1, 3: 1}

    def test_transform_and_dual_equal_the_per_key_reads(self):
        rng = random.Random(19)
        for n in range(1, 121):
            z = random_zeta_product(rng, n)
            assert saito_transform(z).e.values == {d: z.e[n // d] for d in divisors(n)}
            assert saito_dual(z).e.values == {d: -z.e[n // d] for d in divisors(n)}

    def test_involution(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.choice((1, 2, 6, 12, 30, 60))
            z = random_zeta_product(rng, n)
            assert saito_transform(saito_transform(z)) == z

    def test_star_functions_match_transform(self):
        rng = random.Random(23)
        for _ in range(20):
            z = random_zeta_product(rng, 12)
            mstar, pstar = star_functions(z)
            assert mstar == multiplicities(saito_transform(z))
            assert pstar == power_sums(saito_transform(z))

    def test_star_power_sums_instance(self):
        assert star_functions(A2)[1].residues() == (-2, 1, 1)
        zx = ZetaProduct(4, {1: -1, 2: 1, 4: 2})
        assert star_functions(zx)[1].residues() == (0, 2, 4, 2)


class TestRationalForm:
    def test_rank_two(self):
        assert to_rational_function(A2) == RationalFunctionQ(Q**2 + Q + 1)

    def test_exceptional_root_system(self):
        z = catalog_get("E_8").zeta_product()
        rf = to_rational_function(z)
        assert rf.is_polynomial and rf.num.degree == 8
        m = multiplicities(z)
        prod = ONE
        for d in divisors(30):
            c = m(30 // d)
            if c:
                prod = prod * cyclotomic(d) ** c
        assert rf.num == prod

    def test_exponent_sums_over_multiples_equal_the_divisor_scan(self, monkeypatch):
        """The exponents handed to cyclotomic_product, read from the cached
        multiples of each d, against the scan over every divisor: on
        products, and on a Fraction-valued stand-in that ZetaProduct would
        refuse, so that only the sum itself is under test."""
        handed = []
        monkeypatch.setattr(zetaprod, "cyclotomic_product", lambda exponents: handed.append(exponents) or ONE)
        rng = random.Random(113)
        for n in (1, 2, 12, 30, 60, 360, 2520):
            for a in even_functions(rng, n):
                stand_in = SimpleNamespace(n=n, e=a)
                handed.clear()
                to_rational_function(stand_in)
                want = exponents_by_divisor_scan(n, a)
                assert [_typed_items(x) for x in handed] == [
                    _typed_items({d: v for d, v in want.items() if v > 0}),
                    _typed_items({d: -v for d, v in want.items() if v < 0}),
                ], (n, a)
            z = random_zeta_product(rng, n)
            handed.clear()
            to_rational_function(z)
            want = exponents_by_divisor_scan(n, z.e)
            assert handed == [{d: v for d, v in want.items() if v > 0}, {d: -v for d, v in want.items() if v < 0}]
        assert zetaprod._multiples(12) == tuple(
            (d, tuple(dp for dp in divisors(12) if dp % d == 0)) for d in divisors(12))

    def test_exponent_extraction_matches_multiplicities(self):
        rng = random.Random(7)
        for n in (1, 2, 6, 12, 20):
            for _ in range(10):
                z = random_zeta_product(rng, n)
                rf = to_rational_function(z)
                expo = cyclotomic_exponents(rf, n)
                m = multiplicities(z)
                assert all(expo[d] == m(n // d) for d in divisors(n))

    def test_folded_exponents_equal_repeated_division(self):
        """The Hasse-derivative valuation against the division count it
        replaced, on random products alone, with a Fraction-scaled numerator
        and times a factor (2/3) q**k + c, c odd, which has no root on the
        unit circle; and on the zero function."""
        rng = random.Random(83)
        cases = [(RationalFunctionQ(ZERO), 12, None)]
        for _ in range(40):
            n = rng.randint(1, 36)
            z = random_zeta_product(rng, n, span=rng.choice((1, 3)))
            rf, m = to_rational_function(z), multiplicities(z)
            scale = Fraction(rng.choice((-7, -2, 1, 3)), rng.randint(1, 5))
            factor = PolynomialQ.monomial(rng.randint(1, 6), Fraction(2, 3)) + rng.choice((-3, -1, 1, 3))
            cases.append((rf, n, m))
            cases.append((RationalFunctionQ(scale * rf.num * factor, rf.den, _normalized=True), n, m))
            cases.append((RationalFunctionQ(rf.num, rf.den * factor, _normalized=True), n, m))
        for f, n, m in cases:
            expo = cyclotomic_exponents(f, n)
            for d in divisors(n):
                phi = cyclotomic(d)
                by_division = _division_count(f.num, phi) - _division_count(f.den, phi)
                assert expo[d] == by_division == (m(n // d) if m else 0), (f, d)

    @pytest.mark.parametrize("n", [30, 60, 210, 420, 2520])
    def test_exponents_equal_the_fold_and_reduce_oracle(self, n):
        """Conductors whose divisors have three or four distinct primes:
        random products alone and times a cofactor without roots on the unit
        circle, in the numerator or the denominator; and the zero function."""
        rng = random.Random(f"fold:{n}")
        divs = divisors(n)
        cases = []
        for _ in range(3 if n < 2520 else 1):
            # a few non-zero exponents keep the degree of the products small
            e = {d: 0 for d in divs}
            for d in rng.sample(divs, min(len(divs), 6)):
                e[d] = rng.choice((-2, -1, 1, 2))
            rf = to_rational_function(ZetaProduct(n, e))
            factor = PolynomialQ.monomial(rng.randint(1, 9), Fraction(2, 3)) + rng.choice((-3, -1, 1, 3))
            cases += [rf, RationalFunctionQ(rf.num * factor, rf.den, _normalized=True),
                      RationalFunctionQ(rf.num, rf.den * factor, _normalized=True)]
        cases.append(RationalFunctionQ(ZERO))
        for f in cases:
            want = {d: _reduced_fold_valuation(f.num, d) - _reduced_fold_valuation(f.den, d) for d in divs}
            assert cyclotomic_exponents(f, n).values == want, f

    def test_a_power_of_one_cyclotomic_factor(self):
        """P = c Phi_d**k has degree exactly k phi(d): the last multiplicity
        the degree allows is reached, in the numerator and the denominator."""
        for n in (1, 12, 30, 210):
            for d in divisors(n):
                for k in (1, 2, 4):
                    power = cyclotomic(d) ** k
                    for f, sign in ((RationalFunctionQ(power * Fraction(7, 2), ONE, _normalized=True), 1),
                                    (RationalFunctionQ(ONE, power, _normalized=True), -1)):
                        expo = cyclotomic_exponents(f, n)
                        assert expo.values == {c: sign * k * (c == d) for c in divisors(n)}, (n, d, k)

    def test_high_multiplicities(self):
        f = RationalFunctionQ((Q - 1) ** 7 * cyclotomic(6) ** 4 * 5, cyclotomic(4) ** 3 * cyclotomic(12) ** 2)
        assert cyclotomic_exponents(f, 12).values == {1: 7, 2: 0, 3: 0, 4: -3, 6: 4, 12: -2}

    def test_matches_literal_divisor_product(self):
        rng = random.Random(8)
        for n in (1, 4, 6, 9, 12, 18, 30):
            z = random_zeta_product(rng, n)
            num, den = expand_divisor_product(z)
            rf = to_rational_function(z)
            assert num * rf.den == rf.num * den


class TestDegreeBudget:
    """``_cyclotomic_valuations`` with its degree budget against the
    per-divisor search it replaced."""

    def test_seed_42_root_data_products_alone_and_times_a_cofactor(self):
        """A sample of the root-data suite's products at every n <= 60, and
        each times (2/3) q**k + c, c odd, which has no root on the unit
        circle, in the numerator and the denominator."""
        cfg, rng = SuiteConfig(), random.Random(97)
        for n in range(1, 61):
            root = cfg.rng("root", n)
            drawn = [random_zeta_product(root, n) for _ in range(100)]
            for t in rng.sample(range(100), 3):
                rf = to_rational_function(drawn[t])
                factor = PolynomialQ.monomial(rng.randint(1, 9), Fraction(2, 3)) + rng.choice((-3, -1, 1, 3))
                for p in (rf.num, rf.den, rf.num * factor, rf.den * factor):
                    assert zetaprod._cyclotomic_valuations(p, n) == per_divisor_valuations(p, n), (n, t, p)

    def test_the_denominator_search_equals_two_full_searches_on_every_seed_42_root_data_product(
            self, monkeypatch):
        """The 6,000 products of the root-data suite at seed 42: the
        exponents equal the numerator's valuations less the denominator's,
        each searched at every d | n.  The denominator is not tested where
        the numerator's valuation is positive, so the fold tests fall from
        70,141 to 67,741."""
        tests = {"two searches": 0, "one and a half": 0}
        vanishes, counting = zetaprod._vanishes_at_primitive_root, "two searches"

        def count(h, d, shifts):
            tests[counting] += 1
            return vanishes(h, d, shifts)

        monkeypatch.setattr(zetaprod, "_vanishes_at_primitive_root", count)
        cfg = SuiteConfig()
        for n in range(1, 61):
            for t, z in enumerate(cfg.draw(("root", n), 100, random_zeta_product, n)):
                rf = to_rational_function(z)
                counting = "two searches"
                num, den = zetaprod._cyclotomic_valuations(rf.num, n), zetaprod._cyclotomic_valuations(rf.den, n)
                counting = "one and a half"
                got = cyclotomic_exponents(rf, n)
                assert got.values == {d: num[d] - den[d] for d in divisors(n)}, (n, t)
        assert tests == {"two searches": 70_141, "one and a half": 67_741}

    def test_a_cyclotomic_power_that_spends_the_whole_degree(self):
        """deg Phi_d**k = k phi(d): the budget fits exactly."""
        for n in (12, 30, 60):
            for d in divisors(n):
                for k in (1, 2, 3):
                    p = cyclotomic(d) ** k
                    want = {c: k * (c == d) for c in divisors(n)}
                    assert zetaprod._cyclotomic_valuations(p, n) == per_divisor_valuations(p, n) == want, (n, d, k)

    def test_the_fold_at_every_length_equals_the_slice_sums(self):
        """Multiples of Phi_d, which vanish at its roots, and the same plus
        one, which do not, with up to d, between d and 2d and above 2d
        coefficients."""
        rng = random.Random(101)
        for d in range(1, 31):
            shifts = tuple(d // q for q, _ in factorize(d))
            phi = cyclotomic(d)
            for length in range(phi.degree + 1, 3 * d + 2):
                g = PolynomialQ([rng.randint(-4, 4) for _ in range(length - phi.degree - 1)] + [rng.choice((-2, 1, 3))])
                h = list((phi * g).coeffs)
                assert len(h) == length
                for coeffs, vanishes in ((h, True), ([h[0] + 1, *h[1:]], False)):
                    got = zetaprod._vanishes_at_primitive_root(coeffs, d, shifts)
                    assert got == slice_sum_vanishes(coeffs, d, shifts) == vanishes, (d, coeffs)

    def test_the_carried_derivatives_equal_the_enumerate_loop(self, monkeypatch):
        """Each derivative the search tests, in the order it is first built,
        is the next one of the enumerate loop, value and type, on int and
        Fraction coefficients."""
        tested = {}
        vanishes = zetaprod._vanishes_at_primitive_root

        def record(h, d, shifts):
            tested.setdefault(id(h), h)
            return vanishes(h, d, shifts)

        monkeypatch.setattr(zetaprod, "_vanishes_at_primitive_root", record)
        rng, carried = random.Random(109), 0
        for n in (1, 6, 12, 30, 60):
            for _ in range(6):
                rf = to_rational_function(random_zeta_product(rng, n, span=3))
                scale = Fraction(rng.choice((-5, 1, 7)), rng.choice((1, 2, 3)))
                for p in (rf.num, rf.den, scale * rf.num):
                    tested.clear()
                    zetaprod._cyclotomic_valuations(p, n)
                    want = []
                    while len(want) < len(tested):
                        want.append(derivative_by_enumerate(want[-1]) if want else list(p.coeffs))
                    got = list(tested.values())
                    assert [[(type(c), c) for c in h] for h in got] == [[(type(c), c) for c in h] for h in want], p
                    carried += max(len(got) - 1, 0)
        assert carried > 100

    def test_the_zero_polynomial_and_a_constant(self):
        for n in (1, 12, 60):
            for p in (ZERO, ONE):
                want = dict.fromkeys(divisors(n), 0)
                assert zetaprod._cyclotomic_valuations(p, n) == per_divisor_valuations(p, n) == want, (n, p)


class TestFourier:
    def test_reconstruction_of_multiplicities(self):
        r = ramanujan_coefficients(multiplicities(A2))
        assert r.residues() == (Fraction(2, 3), Fraction(-1, 3), Fraction(-1, 3))
        assert ramanujan_reconstruct(r) == multiplicities(A2)

    def test_trivial_conductor(self):
        a = DivisorMap(1, {1: 5})
        assert ramanujan_coefficients(a).residues() == (5,)

    def test_round_trip_random(self):
        for n in (1, 2, 12, 45, 60):
            for t in range(20):
                a = random_even_function(random.Random(f"ft:{n}:{t}"), n)
                assert ramanujan_reconstruct(ramanujan_coefficients(a)) == a

    def test_synthesis_equals_the_written_out_sum(self):
        """One cached integer matrix and one common denominator give the
        plain sum of a(n/d) c_d(g) over d | n, Fraction values included."""
        rng = random.Random(89)
        for n in (1, 2, 12, 30, 60, 360):
            for a in (random_even_function(rng, n), multiplicities(random_zeta_product(rng, n))):
                want = {g: sum(a[n // d] * ramanujan_sum(d, g) for d in divisors(n)) for g in divisors(n)}
                assert zetaprod._ramanujan_synthesis(a) == want
                assert ramanujan_coefficients(a).values == {g: Fraction(v) / n for g, v in want.items()}

    def test_synthesis_equals_the_generator_rows_it_replaces(self):
        """The row sums in C against the generator rows, value and type,
        at scale 1 and scale n."""
        rng = random.Random(127)
        for n in (1, 2, 7, 12, 30, 60, 360):
            for a in even_functions(rng, n) + [DivisorMap.zeros(n)]:
                for scale in (1, n):
                    got = zetaprod._ramanujan_synthesis(a, scale)
                    assert _typed_items(got) == _typed_items(synthesis_by_generator(a, scale)), (n, a, scale)

    def test_synthesis_of_fraction_values_equals_the_definition(self):
        """(1/scale) sum of a(n/d) c_d(g) over d | n, written with
        arith.ramanujan_sum and plain Fraction arithmetic, for values over
        denominators whose lcm is less than their product; an integral
        result comes back as an int."""
        rng = random.Random(131)
        for n in (2, 6, 12, 30, 60, 210):
            divs = divisors(n)
            for _ in range(4):
                a = DivisorMap(n, {d: Fraction(rng.randint(-12, 12), rng.choice((1, 2, 4, 6, 9))) for d in divs})
                for scale in (1, 3, n):
                    want = {g: Fraction(sum(a[n // d] * ramanujan_sum(d, g) for d in divs), scale) for g in divs}
                    got = zetaprod._ramanujan_synthesis(a, scale)
                    assert got == want, (n, a, scale)
                    assert [type(v) for v in got.values()] == [
                        int if v.denominator == 1 else Fraction for v in want.values()], (n, a, scale)

    def test_dft_power_sums(self):
        assert dft_power_sums(multiplicities(A2)) == power_sums(A2)
        m = DivisorMap(2, {1: 1, 2: 2})  # m(0) = 2, m(1) = 1
        assert dft_power_sums(m).residues() == (3, 1)
        rng = random.Random(5)
        for n in (6, 12, 30):
            z = random_zeta_product(rng, n)
            assert dft_power_sums(multiplicities(z)) == power_sums(z)


def fourier_roundtrip_unconditional(cfg: SuiteConfig) -> Report:
    """``suite_fourier`` as it analysed every reconstruction, also where it
    equals its input: the oracle of the suite's second direction."""
    trials = cfg.pick_trials(50)
    report = Report("fourier-roundtrip", context={"nmax": cfg.nmax, "trials": trials})
    for n in cfg.pick_ns(range(1, cfg.nmax + 1)):
        for t, a in enumerate(cfg.draw(("fourier", n), trials, random_even_function, n)):
            r = verify.ramanujan_coefficients(a)
            b = verify.ramanujan_reconstruct(r)
            report.expect(b == a, n=n, trial=t, direction="analysis-synthesis")
            report.expect(verify.ramanujan_coefficients(b) == r, n=n, trial=t, direction="synthesis-analysis")
    return report


class TestFourierRoundTripSuite:
    """The second direction is computed only where the first failed."""

    CFG = SuiteConfig(nmax=36, trials=12)

    @staticmethod
    def shifted(real, n_divisible_by: int, at_one: bool = False):
        """``real`` with 1 added at d = n (or 1) when n_divisible_by divides n."""

        def faulty(x):
            out = real(x)
            if x.n % n_divisible_by:
                return out
            d = 1 if at_one else x.n
            return DivisorMap(x.n, {**out.values, d: out[d] + 1})

        return faulty

    def test_a_passing_run_equals_the_unconditional_one_and_analyses_each_instance_once(self, monkeypatch):
        cfg = SuiteConfig()
        want = fourier_roundtrip_unconditional(cfg)
        calls = {"coefficients": 0, "reconstruct": 0}
        for name in calls:
            real = getattr(verify, f"ramanujan_{name}")
            monkeypatch.setattr(verify, f"ramanujan_{name}",
                                lambda x, real=real, name=name: calls.__setitem__(name, calls[name] + 1) or real(x))
        got = verify.suite_fourier(cfg)
        assert got.status == "pass" and got.checks == 6000
        assert got.to_dict() == want.to_dict()
        assert calls == {"coefficients": 3000, "reconstruct": 3000}

    @pytest.mark.parametrize("fault", [
        ("ramanujan_reconstruct", 4, False),
        ("ramanujan_reconstruct", 3, True),
        ("ramanujan_coefficients", 5, False),
        ("ramanujan_coefficients", 6, True),
    ])
    def test_a_planted_fault_gives_the_mismatches_of_the_unconditional_round_trip(self, monkeypatch, fault):
        name, divisible_by, at_one = fault
        monkeypatch.setattr(verify, name, self.shifted(getattr(verify, name), divisible_by, at_one))
        got, want = verify.suite_fourier(self.CFG), fourier_roundtrip_unconditional(self.CFG)
        assert got.status == "fail" and got.to_dict() == want.to_dict()
        directions = {m["direction"] for m in got.mismatches}
        assert directions == {"analysis-synthesis", "synthesis-analysis"}, directions
        # synthesis-analysis fails only where analysis-synthesis failed
        first = {(m["n"], m["trial"]) for m in got.mismatches if m["direction"] == "analysis-synthesis"}
        assert {(m["n"], m["trial"]) for m in got.mismatches if m["direction"] == "synthesis-analysis"} <= first


def root_data_per_trial(cfg: SuiteConfig) -> Report:
    """``suite_root_data`` as it checked every draw, also a product already
    drawn at the same conductor: the oracle of its per-conductor outcomes."""
    trials = cfg.pick_trials(100)
    report = Report("root-data-coherence", context={"nmax": cfg.nmax, "trials": trials})
    ns = cfg.pick_ns(range(1, cfg.nmax + 1))
    for n in ns:
        for t, z in enumerate(cfg.draw(("root", n), trials, random_zeta_product, n)):
            m = verify.multiplicities(z)
            p = verify.power_sums(z)
            if not report.expect(p == verify.dft_power_sums(m), n=n, trial=t, identity="fourier-pairing"):
                continue
            report.expect(m(0) == z.mu_e, n=n, trial=t, identity="total-multiplicity")
            star = verify.saito_transform(z)
            mstar, pstar = verify.star_functions(z)
            report.expect(verify.saito_transform(star) == z, n=n, trial=t, identity="involution")
            same_star = verify.multiplicities(star) == mstar and verify.power_sums(star) == pstar
            report.expect(same_star, n=n, trial=t, identity="star-functions")
            rf = verify.to_rational_function(z)
            expo = verify.cyclotomic_exponents(rf, n)
            same_expo = [*expo.values.values()] == [*reversed(m.values.values())]
            report.expect(same_expo, n=n, trial=t, identity="cyclotomic-exponents")
        z1, z2 = cfg.draw(("root-add", n), 2, random_zeta_product, n)
        report.expect(
            verify.multiplicities(z1 * z2) == verify.multiplicities(z1) + verify.multiplicities(z2),
            n=n,
            identity="multiplicity-additivity",
        )
        report.expect(
            verify.power_sums(z1 * z2) == verify.power_sums(z1) + verify.power_sums(z2),
            n=n,
            identity="power-sum-additivity",
        )
    for n in list(range(1, 25)) + [30, 36, 42, 48, 60]:
        if n not in ns:
            continue
        for t, z in enumerate(cfg.draw(("root-direct", n), 3, random_zeta_product, n)):
            num, den = verify.expand_divisor_product(z)
            rf = verify.to_rational_function(z)
            report.expect(num * rf.den == rf.num * den, n=n, trial=t, identity="direct-product")
    return report


class TestRootDataOutcomes:
    """Each distinct product is checked once per conductor, and every draw
    records its own instances."""

    NS = (1, 2, 3, 5, 12, 30, 60)

    @staticmethod
    def tuples(cfg: SuiteConfig, n: int) -> list[tuple]:
        return [tuple(z.e.values.values()) for z in cfg.draw(("root", n), 100, random_zeta_product, n)]

    @staticmethod
    def summary(report: Report) -> tuple:
        return report.checks, report.status, report.mismatches

    @pytest.mark.parametrize("seed", [42, 7])
    def test_a_passing_run_equals_the_per_trial_loop(self, seed):
        cfg = SuiteConfig(seed=seed, ns=self.NS)
        got = verify.suite_root_data(cfg)
        assert got.status == "pass"
        assert self.summary(got) == self.summary(root_data_per_trial(cfg))

    @pytest.mark.parametrize("seed", [42, 7])
    def test_a_fault_on_one_product_fails_at_each_of_its_draws_there_alone(self, monkeypatch, seed):
        """A product drawn more than once at n = 5 whose exponent tuple is
        drawn at n = 3 too: the fault fires at n = 5 only."""
        cfg = SuiteConfig(seed=seed, ns=self.NS)
        at5, at3 = self.tuples(cfg, 5), self.tuples(cfg, 3)
        e = next(e for e in at5 if at5.count(e) > 1 and e in at3)
        target = to_rational_function(ZetaProduct(5, dict(zip(divisors(5), e))))
        real = verify.cyclotomic_exponents

        def faulty(rf, n):
            out = real(rf, n)
            if n == 5 and rf == target:
                return DivisorMap(n, {**out.values, 1: out[1] + 1})
            return out

        monkeypatch.setattr(verify, "cyclotomic_exponents", faulty)
        got = verify.suite_root_data(cfg)
        assert got.status == "fail"
        assert self.summary(got) == self.summary(root_data_per_trial(cfg))
        want = [{"n": 5, "trial": t, "identity": "cyclotomic-exponents"} for t, x in enumerate(at5) if x == e]
        assert len(want) > 1 and got.mismatches == want


class TestPartialZeta:
    def test_coprime_index(self):
        z = ZetaProduct(6, {1: 2, 2: 1, 3: -1, 6: 4})
        assert partial_zeta(z, 5) == RationalFunctionQ((Q - 1) ** 2)

    def test_index_zero_is_the_whole_product(self):
        z = ZetaProduct(6, {1: 1, 2: 1, 3: 0, 6: 0})
        assert partial_zeta(z, 0) == to_rational_function(z)

    def test_equals_the_reduced_dense_restricted_product(self):
        """For every k, the written-out product of (q**d - 1)**e(d) over
        d | (k, n), reduced by a gcd."""
        rng = random.Random(29)
        for n in (1, 6, 12, 30, 60):
            z = random_zeta_product(rng, n)
            want = {}
            for g in divisors(n):
                powers = [(PolynomialQ.monomial(d) - 1, z.e[d]) for d in divisors(g)]
                num = math.prod((f**k for f, k in powers if k > 0), start=ONE)
                den = math.prod((f**-k for f, k in powers if k < 0), start=ONE)
                want[g] = RationalFunctionQ(num, den)
            for k in range(n + 1):
                assert partial_zeta(z, k) == want[math.gcd(k, n)], (n, k)

    def test_unit_root_multiplicity_is_divisor_sum(self):
        z6 = ZetaProduct(6, {1: 1, 2: 1, 3: 0, 6: 0})
        pz = partial_zeta(z6, 2)
        assert pz == RationalFunctionQ((Q - 1) * (Q**2 - 1))
        assert root_multiplicity_at_one(pz) == 2
        rng = random.Random(2)
        for n in (6, 12, 30):
            z = random_zeta_product(rng, n)
            a = mobius_transform(z.e)
            for k in range(n + 1):
                assert root_multiplicity_at_one(partial_zeta(z, k)) == a(k), (n, k)


class TestGeneratingForms:
    def test_rank_family_line(self):
        e = DivisorMap(3, {1: 1, 3: -1})
        a = mobius_transform(e)
        rep = gf_power_series(a, e)
        assert rep.status == "pass"
        assert rep.context["series_form"] == str(
            RationalFunctionQ(ONE, ONE - Q) - RationalFunctionQ(ONE, ONE - Q**3)
        )

    def test_zero_case(self):
        e = DivisorMap(6, {d: 0 for d in divisors(6)})
        assert gf_power_series(mobius_transform(e), e).status == "pass"

    def test_mismatch_is_reported(self):
        e = DivisorMap(3, {1: 1, 3: -1})
        wrong = DivisorMap(3, {1: 7, 3: 7})
        assert gf_power_series(wrong, e).status == "fail"

    def test_lambert_form_is_the_partial_fraction_sum(self):
        rng = random.Random(31)
        for n in [1, 2, 6, 12, 30, 60] + [rng.randint(1, 60) for _ in range(6)]:
            z = random_zeta_product(rng, n)
            fractional = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for d in divisors(n)}
            for w in (root_weights(z, "m"), root_weights(z, "p"), fractional, {d: 0 for d in divisors(n)}):
                a = mobius_transform(DivisorMap(n, w))
                want = RationalFunctionQ(ZERO)
                for d, v in w.items():
                    want = want + RationalFunctionQ(PolynomialQ.constant(v), ONE - PolynomialQ.monomial(d))
                assert lambert_form(a) == want, (n, w)
                # the cleared side against a(k) = sum of w(d) over d | (k, n), written out
                written = PolynomialQ([sum(v for d, v in w.items() if k % d == 0) for k in range(n)])
                assert lambert_polynomial(n, w) == written, (n, w)

    def test_lambert_form_equals_the_gcd_reduction_coefficient_for_coefficient(self, lambert_cases):
        for a, want in lambert_cases:
            assert _typed(lambert_form(a)) == _typed(want), a

    def test_lambert_form_reduces_without_a_gcd(self, lambert_cases, monkeypatch):
        def refuse(*_):
            raise AssertionError("poly_gcd called")

        monkeypatch.setattr("cyclozeta.exactpoly.poly_gcd", refuse)
        for a, want in lambert_cases:
            assert _typed(lambert_form(a)) == _typed(want), a

    def test_lambert_form_equals_the_schoolbook_division_it_replaces(self):
        """The numerator divided by the cancelled Phi_c through binomials
        against the dense division of the earlier kernel, type for type:
        int- and Fraction-valued functions for every n <= 60, dense ones and
        divisor sums of sparse weights (which cancel many Phi_c), the zero
        function and a constant."""

        def schoolbook(a):
            n, at_roots = a.n, dft_power_sums(a)
            cancelled = [c for c in divisors(n) if not at_roots[n // c]]
            kept = [c for c in divisors(n) if at_roots[n // c]]
            num = -PolynomialQ(a.residues()).exact_div(math.prod((cyclotomic(c) for c in cancelled), start=ONE))
            return RationalFunctionQ(num, math.prod((cyclotomic(c) for c in kept), start=ONE), _normalized=True)

        rng = random.Random(59)
        cancelling = 0
        for n in range(1, 61):
            divs = divisors(n)
            sparse = [{d: rng.randint(-3, 3) for d in rng.sample(divs, rng.randint(1, len(divs)))}
                      for _ in range(2)]
            sparse.append({d: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for d in rng.sample(divs, min(2, n))})
            sums = [mobius_transform(DivisorMap(n, {d: w.get(d, 0) for d in divs})) for w in sparse]
            dense = [DivisorMap(n, {d: rng.randint(-6, 6) for d in divs}), random_even_function(rng, n),
                     DivisorMap.zeros(n), DivisorMap(n, dict.fromkeys(divs, Fraction(7, 3)))]
            for a in sums + dense:
                got, want = lambert_form(a), schoolbook(a)
                assert _typed(got) == _typed(want), a
            cancelling += sum(lambert_form(a).den.degree < n for a in sums)
        # the sparse divisor sums do cancel: 82 of their 180 forms have a lower degree
        assert cancelling > 60

    def test_random_sweep(self):
        rng = random.Random(12)
        for n in (1, 2, 8, 12, 30, 60):
            for _ in range(10):
                z = random_zeta_product(rng, n)
                a = mobius_transform(z.e)
                assert gf_power_series(a, z.e).status == "pass"


class TestPairings:
    def test_constant_substitution(self):
        rep = check_mobius_pairing(A2, {1: 1, 3: 1})
        assert rep.status == "pass"

    def test_necklace_preset_on_rank_family(self):
        z = ZetaProduct(6, {1: -1, 2: 0, 3: 0, 6: 1})
        assert check_pairing_preset(z, "necklace").status == "pass"

    def test_log_derivative_preset_on_catalog_entry(self):
        z = catalog_get("E_6").zeta_product()
        assert check_pairing_preset(z, "log-derivative").status == "pass"
        assert check_pairing_preset(z, "ramanujan").status == "pass"

    def test_presets_random(self):
        rng = random.Random(31)
        for n in (6, 12):
            for _ in range(3):
                z = random_zeta_product(rng, n)
                for preset in ("ones", "necklace", "log-derivative", "ramanujan"):
                    assert check_pairing_preset(z, preset).status == "pass", (n, preset)


class TestPairingChecksCanFail:
    """Each pairing check against a corrupted ingredient: it must name what broke."""

    @pytest.fixture(autouse=True)
    def fresh_preset_tables(self):
        # the preset kernels are cached per (name, n): build them from the
        # patched ingredient, and keep the corrupted ones from later tests
        zetaprod._preset_tables.cache_clear()
        yield
        zetaprod._preset_tables.cache_clear()

    # denominators q + 2 and q**2 + 1, neither cyclotomic nor dividing the other, and their product
    X6 = {
        1: RationalFunctionQ(1, Q + 2),
        2: RationalFunctionQ(Q, Q**2 + 1),
        3: RationalFunctionQ(Fraction(1, 3) * Q - 3, Q + 2),
        6: RationalFunctionQ(2 * Q**2 + 1, (Q + 2) * (Q**2 + 1)),
    }

    @pytest.mark.parametrize("corrupt, side", [
        ("multiplicities", "multiplicity-side"),
        ("power_sums", "power-sum-side"),
    ])
    def test_mobius_pairing_names_the_side_with_corrupted_root_data(self, monkeypatch, corrupt, side):
        rng = random.Random(61)
        zs = [random_zeta_product(rng, 6) for _ in range(4)]
        for z in zs:
            assert check_mobius_pairing(z, self.X6).status == "pass", z
        real = getattr(zetaprod, corrupt)
        monkeypatch.setattr(zetaprod, corrupt, lambda z: DivisorMap(z.n, {d: v + 1 for d, v in real(z).items()}))
        for z in zs:
            assert check_mobius_pairing(z, self.X6).mismatches == [{"identity": side}], z

    def test_corrupted_cyclotomic_is_reported_in_the_log_derivative_kernel(self, monkeypatch):
        z = ZetaProduct(6, {1: 1, 2: -1, 3: 2, 6: 0})
        monkeypatch.setattr(zetaprod, "cyclotomic", lambda d: cyclotomic(d) * (Q + 1 if d == 6 else 1))
        assert check_pairing_preset(z, "log-derivative").mismatches == [{"identity": "kernel at d=6"}]

    @pytest.mark.parametrize("kernel, preset, eta_form", [
        ("logderiv_kernel", "log-derivative", "cyclotomic"),
        ("ramanujan_kernel", "ramanujan", "ramanujan"),
    ])
    def test_a_corrupted_kernel_fails_its_pairing_preset_and_its_eta_form(self, monkeypatch, kernel, preset,
                                                                          eta_form):
        """Each Möbius-pair kernel has one owner in zetaprod, which both the
        pairing preset and the eta closed form read: a fault at one d fails
        both, and the other kernel's checks still pass."""
        z = ZetaProduct(6, {1: 1, 2: -1, 3: 2, 6: 0})
        assert multiplicities(z)(2) != 0  # the weight of the kernel at d = 3 in the eta forms
        real = getattr(zetaprod, kernel)

        def corrupted(d):
            num, den = real(d)
            return (num + Q if d == 3 else num), den

        monkeypatch.setattr(zetaprod, kernel, corrupted)
        assert check_pairing_preset(z, preset).mismatches == [{"identity": "kernel at d=3"}]
        assert check_eta_forms(z, 40).mismatches == [{"identity": eta_form}]
        other = "ramanujan" if preset == "log-derivative" else "log-derivative"
        assert check_pairing_preset(z, other).status == "pass"

    def test_corrupted_necklace_is_reported_at_its_divisor(self, monkeypatch):
        z = ZetaProduct(12, {1: -1, 2: 0, 3: 1, 4: 0, 6: 2, 12: 1})
        real = zetaprod.necklace
        monkeypatch.setattr(zetaprod, "necklace", lambda d: real(d) + (1 if d in (2, 12) else 0))
        assert check_pairing_preset(z, "necklace").mismatches == [
            {"identity": "necklace kernel at d=2"},
            {"identity": "necklace kernel at d=12"},
        ]

    def test_fourier_pair_family_reports_the_first_bad_residue(self, monkeypatch):
        F = DivisorMap(12, {1: 3, 2: Fraction(-1, 2), 3: 0, 4: 5, 6: Fraction(7, 3), 12: -2})
        assert check_fourier_pair_family(12, F, 1).status == "pass"
        real = zetaprod.ramanujan_reconstruct

        def corrupted(r):
            shift = {4: 1, 6: Fraction(-1, 2)}
            return DivisorMap(r.n, {d: v + shift.get(d, 0) for d, v in real(r).items()})

        monkeypatch.setattr(zetaprod, "ramanujan_reconstruct", corrupted)
        report = check_fourier_pair_family(12, F, 1)
        # f_1 is F(1) + F(2)/2 + F(4)/4 = 4 at gcd(k, 12) = 4 (k = 4, 8) and
        # F(1) + F(2)/2 + F(3)/3 + F(6)/6 = 113/36 at gcd 6 (k = 6)
        assert report.mismatches == [
            {"k": 4, "lhs": "4", "rhs": "5"},
            {"k": 6, "lhs": "113/36", "rhs": "95/36"},
            {"k": 8, "lhs": "4", "rhs": "5"},
        ]


def per_trial_pairing_tables(name: str, n: int):
    """(X, Z, D, kernels) of a preset as built once per product before they
    were cached: the oracle for ``zetaprod._preset_tables``."""
    x = zetaprod.pairing_preset(name, n)
    xf = {d: RationalFunctionQ.from_value(x[d]) for d in divisors(n)}
    D = math.prod(dict.fromkeys(f.den for f in xf.values()), start=ONE)
    X = {d: f.num * D.exact_div(f.den) for d, f in xf.items()}
    Z = mobius_inversion(n, X)
    kernels, outcomes = {}, {}
    for d in divisors(n):
        if name in ("log-derivative", "ramanujan"):
            phi = cyclotomic(d)
            kernels[d] = (Q * phi.derivative(), phi) if name == "log-derivative" else zetaprod.ramanujan_kernel(d)
        elif name == "necklace":
            kernels[d] = (d * necklace(d), ONE)
        if d in kernels:
            knum, kden = kernels[d]
            outcomes[d] = Z[d] * kden == knum * D
    return X, Z, D, kernels, outcomes


def pairing_preset_per_product(z: ZetaProduct, name: str) -> Report:
    """``check_pairing_preset`` as it compared each kernel for every
    product: the oracle of the per-key outcomes."""
    X, Z, D, kernels, _ = per_trial_pairing_tables(name, z.n)
    report = zetaprod._mobius_pairing(z, X, Z)
    report.check = f"mobius-pairing[{name}]"
    label = "necklace kernel" if name == "necklace" else "kernel"
    for d, (knum, kden) in kernels.items():
        report.expect(Z[d] * kden == knum * D, identity=f"{label} at d={d}")
    return report


def per_trial_totient_tables(n: int, s: int):
    """phi_{1-s} and phi_{-s} on the divisors of n as built once per product."""
    return tuple(
        mobius_inversion(n, {d: rational_power(d, t) for d in divisors(n)}) for t in (1 - s, -s)
    )


class TestCachedPairingTables:
    @staticmethod
    def keys_used(monkeypatch, builder: str) -> list:
        """The arguments the pairing suite passes to one cached builder."""
        keys = []
        real = getattr(zetaprod, builder)
        monkeypatch.setattr(zetaprod, builder, lambda *key: keys.append(key) or real(*key))
        assert suite_pairings(SuiteConfig(trials=1)).status == "pass"
        return sorted(set(keys))

    def test_preset_tables_equal_the_per_trial_oracle(self, monkeypatch):
        keys = self.keys_used(monkeypatch, "_preset_tables")
        assert len(keys) == 12
        for name, n in keys:
            assert zetaprod._preset_tables(name, n) == per_trial_pairing_tables(name, n), (name, n)

    @pytest.mark.parametrize("corrupt", [None, "ramanujan_kernel", "necklace"])
    def test_each_product_records_the_per_product_kernel_comparisons(self, monkeypatch, corrupt):
        """The 60 products of a seed-42 pairing run at trials 20 against
        every preset: the per-key outcomes give each product the report
        that comparing its kernels one by one gives, also when a kernel is
        corrupted at some d (then every product fails there)."""
        zetaprod._preset_tables.cache_clear()
        if corrupt == "ramanujan_kernel":
            real = zetaprod.ramanujan_kernel
            monkeypatch.setattr(zetaprod, corrupt, lambda d: (real(d)[0] + (Q if d in (2, 15) else 0), real(d)[1]))
        elif corrupt == "necklace":
            # the oracle reads this module's necklace
            real = zetaprod.necklace
            monkeypatch.setattr(zetaprod, corrupt, lambda d: real(d) + (1 if d == 4 else 0))
            monkeypatch.setitem(globals(), corrupt, zetaprod.necklace)
        cfg, failed = SuiteConfig(), 0
        try:
            for n in (6, 12, 30):
                for z in cfg.draw(("pairing", n), 20, random_zeta_product, n):
                    for name in ("ones", "necklace", "log-derivative", "ramanujan"):
                        got, want = check_pairing_preset(z, name), pairing_preset_per_product(z, name)
                        assert got.to_dict() == want.to_dict(), (z, name)
                        assert got.checks == 2 + (0 if name == "ones" else len(divisors(n)))
                        failed += got.status == "fail"
        finally:
            zetaprod._preset_tables.cache_clear()
        assert failed == {None: 0, "ramanujan_kernel": 60, "necklace": 20}[corrupt]

    def test_totient_tables_equal_the_per_trial_oracle(self, monkeypatch):
        keys = self.keys_used(monkeypatch, "_totient_tables")
        assert keys == [(n, s) for n in (6, 12, 30) for s in range(-2, 4)]
        for n, s in keys:
            assert zetaprod._totient_tables(n, s) == per_trial_totient_tables(n, s), (n, s)
            assert zetaprod._totient_tables(n, s)[0][n] == jordan_totient(n, 1 - s)

    def test_calls_that_differ_only_in_the_preset_name_each_pass(self):
        """A cache keyed on n alone would hand every preset at n = 12 the
        tables of the one cached first.  Each set of tables passes its own
        checks, so the count shows it: two pairing sides, and one kernel
        comparison per divisor for every preset but 'ones'."""
        z = ZetaProduct(12, {1: -1, 2: 0, 3: 1, 4: 0, 6: 2, 12: 1})
        for name in ("ones", "necklace", "log-derivative", "ramanujan"):
            report = check_pairing_preset(z, name)
            assert report.status == "pass", name
            assert report.checks == 2 + (0 if name == "ones" else len(divisors(12))), name

    def test_calls_that_differ_only_in_n_each_pass(self):
        for n in (6, 12):
            z = ZetaProduct(n, {d: 1 if d % 4 else -1 for d in divisors(n)})
            for name in ("necklace", "ramanujan"):
                assert check_pairing_preset(z, name).status == "pass", (n, name)
            assert check_totient_pairing(z, (0, 1)).status == "pass", n


class TestTotientPairing:
    def test_trivial_conductor(self):
        z = ZetaProduct(1, {1: 3})
        assert check_totient_pairing(z, range(-2, 4)).status == "pass"

    def test_random_and_catalog(self):
        rng = random.Random(41)
        for n in (6, 12):
            z = random_zeta_product(rng, n)
            assert check_totient_pairing(z, range(-2, 4)).status == "pass"
        z = catalog_get("E_8").zeta_product()
        assert check_totient_pairing(z, (0, 1, 2)).status == "pass"


class TestFourierPairFamily:
    def test_zero_table(self):
        F = DivisorMap(12, {d: 0 for d in divisors(12)})
        assert check_fourier_pair_family(12, F, 0).status == "pass"

    def test_random_tables(self):
        rng = random.Random(51)
        for s in (0, 1):
            for _ in range(5):
                F = DivisorMap(
                    12, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for d in divisors(12)}
                )
                assert check_fourier_pair_family(12, F, s).status == "pass"


class TestParsing:
    def test_text_round_trip(self):
        z = parse_zeta_product("  n = 3 ;  e = { 1 : -1 , 3 : 1 } ".replace(" ", " "))
        assert z == A2
        assert z.to_text() == "n=3; e={1:-1,3:1}"

    def test_json_round_trip(self):
        z = ZetaProduct(*zetaprod._json_fields(A2.to_json_dict()))
        assert z == A2
        z2 = parse_zeta_product('{"n": 3, "e": {"1": -1, "3": 1}}')
        assert z2 == A2

    def test_parse_error_carries_position(self):
        with pytest.raises(ZetaParseError):
            parse_zeta_product("m=3; e={1:-1,3:1}")
        with pytest.raises(ZetaParseError) as exc:
            parse_zeta_product("n=3; e={1:-1,3:x}")
        assert exc.value.position is not None

    def test_divisor_validation(self):
        with pytest.raises(ValueError):
            parse_zeta_product("n=6; e={1:1,6:1}")  # 2 and 3 missing
        with pytest.raises(ValueError):
            ZetaProduct(6, {1: Fraction(1, 2), 2: 0, 3: 0, 6: 0})  # non-integer

    def test_divisor_keys_must_be_ints(self):
        with pytest.raises(TypeError):
            ZetaProduct(2, {1: 1, 2.5: -1})

    def test_the_first_exponent_that_is_not_an_integer_is_named(self):
        for e in ({1: 1, 2: Fraction(1, 2), 3: Fraction(4, 2), 6: Fraction(3, 4)},
                  DivisorMap(6, {6: Fraction(3, 4), 3: 2, 2: Fraction(1, 2), 1: True})):
            with pytest.raises(ValueError) as exc:
                ZetaProduct(6, e)
            assert str(exc.value) == "exponent e(2) = 1/2 is not an integer"
        z = ZetaProduct(6, {1: True, 2: Fraction(4, 2), 3: -1, 6: 0})
        assert [(type(v), v) for v in z.e.values.values()] == [(int, 1), (int, 2), (int, -1), (int, 0)]


class TestDraws:
    """Random products and even functions draw exactly what ``rng.randint``
    draws.  No verdict digest sees the values drawn (the check counts do not
    depend on them), so the stream is pinned here."""

    # every range that a random product or even function draws from, in the
    # package and in the tests
    RANGES = [(-1, 1), (-2, 2), (-3, 3), (-6, 6), (1, 4)]

    def test_each_draw_equals_randint_and_leaves_the_same_state(self):
        for seed in range(1000):
            for low, high in self.RANGES:
                ours, theirs = random.Random(seed), random.Random(seed)
                assert zetaprod._draws(ours, [(low, high)] * 6) == [theirs.randint(low, high) for _ in range(6)]
                assert ours.getstate() == theirs.getstate(), (seed, low, high)

    def test_products_and_even_functions_equal_the_randint_comprehensions(self):
        for seed in range(1000):
            n = (1, 2, 6, 12, 30, 60)[seed % 6]
            ours, theirs = random.Random(seed), random.Random(seed)
            for span in (1, 2, 3):
                assert random_zeta_product(ours, n, span).e.values == {
                    d: theirs.randint(-span, span) for d in divisors(n)
                }
            assert random_even_function(ours, n).values == {
                g: Fraction(theirs.randint(-6, 6), theirs.randint(1, 4)) for g in divisors(n)
            }
            assert ours.getstate() == theirs.getstate(), seed

    @pytest.mark.parametrize("suite, digest", [
        ("root-data-coherence", "7af4efca4026124997a91cd611bf455f15d2708e652389f02144f97ad0a40183"),
        ("fourier-roundtrip", "8a192323fd19fe208a3af1c49c3609a55d9dd2722643a20cf2b53b4a556fb198"),
        ("weighted-sums", "4505e95d74efef0c0d6ce4959886c56ec94dee915af08a2e5b266ebfccdb38ee"),
        ("mobius-pairings", "2e0f8df87bcd34533eb4e1b7f09992828abea8a31d7d7e4d2bc1aab162af8d91"),
        ("dirichlet-transfer", "e06ac1625739ec503f020e09035f8cd2597dcbe1f4d285d810eb63113910153d"),
        ("convolution-examples", "eec3fbbbde4d2844fa4015de453a04564ee57e3cd4f7e7a60a39cecb691fa1bb"),
    ])
    def test_what_each_random_suite_draws_at_seed_42_is_pinned(self, monkeypatch, suite, digest):
        """The SHA-256 of every product and even function the suite draws, in
        order; these digests were computed with ``rng.randint`` draws, one
        generator per suite key and conductor."""
        drawn = []

        def product(rng, n, span=2):
            z = random_zeta_product(rng, n, span)
            drawn.append(z.to_text())
            return z

        def even_function(rng, n, span=6):
            a = random_even_function(rng, n, span)
            drawn.append(repr(a))
            return a

        monkeypatch.setattr(verify, "random_zeta_product", product)
        monkeypatch.setattr(verify, "random_even_function", even_function)
        assert dict(verify.SUITES)[suite](SuiteConfig(seed=42)).status == "pass"
        assert drawn and hashlib.sha256("\n".join(drawn).encode()).hexdigest() == digest


RANDOM_SUITES = ("root-data-coherence", "fourier-roundtrip", "weighted-sums", "mobius-pairings",
                 "dirichlet-transfer", "convolution-examples")
# a few conductors of each random suite's default run
SOME_CONDUCTORS = {"root-data-coherence": (1, 30, 60), "fourier-roundtrip": (1, 30, 60), "weighted-sums": (6, 12),
                   "mobius-pairings": (6, 12, 30), "dirichlet-transfer": (6, 12, 30), "convolution-examples": (6, 12, 30)}


@functools.lru_cache(maxsize=None)
def draws_by_key(suite, trials=None, ns=None):
    """What one random suite draws at seed 42, by the key of the generator
    that drew it: each product and even function as text, and each
    ``randint`` value, in order."""
    drawn = {}
    seeded = SuiteConfig.rng

    class Logged(random.Random):
        def randint(self, a, b):
            v = super().randint(a, b)
            self.log.append(v)
            return v

    def rng(cfg, *key):
        gen = Logged()
        gen.setstate(seeded(cfg, *key).getstate())
        gen.log = drawn.setdefault(key, [])
        return gen

    def product(gen, n, span=2):
        z = random_zeta_product(gen, n, span)
        gen.log.append(z.to_text())
        return z

    def even_function(gen, n, span=6):
        a = random_even_function(gen, n, span)
        gen.log.append(repr(a))
        return a

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SuiteConfig, "rng", rng)
        mp.setattr(verify, "random_zeta_product", product)
        mp.setattr(verify, "random_even_function", even_function)
        assert dict(verify.SUITES)[suite](SuiteConfig(seed=42, trials=trials, ns=ns)).status == "pass"
    return {key: tuple(log) for key, log in drawn.items()}


class TestSuiteGenerators:
    """One generator per suite key and conductor, whose trials draw from it
    in order."""

    @pytest.mark.parametrize("trials", (1, 3))
    @pytest.mark.parametrize("suite", RANDOM_SUITES)
    def test_fewer_trials_draw_a_prefix_of_what_the_default_run_draws(self, suite, trials):
        full, few = draws_by_key(suite), draws_by_key(suite, trials=trials)
        assert few.keys() == full.keys()
        for key, values in few.items():
            assert values and values == full[key][: len(values)], key
        assert sum(map(len, few.values())) < sum(map(len, full.values()))

    @pytest.mark.parametrize("suite, n", [(s, n) for s, ns in SOME_CONDUCTORS.items() for n in ns])
    def test_one_conductor_draws_there_what_the_full_run_draws_there(self, suite, n):
        full, alone = draws_by_key(suite), draws_by_key(suite, ns=(n,))
        assert alone
        for key, values in alone.items():
            assert values == full[key], key

    def test_the_hundred_root_data_products_at_60_are_not_all_equal(self):
        products = draws_by_key("root-data-coherence")[("root", 60)]
        assert len(products) == 100 and len(set(products)) > 1

    def test_a_default_verify_all_builds_one_generator_per_key(self, monkeypatch):
        keys, seeded = [], SuiteConfig.rng

        def rng(cfg, *key):
            keys.append(key)
            return seeded(cfg, *key)

        monkeypatch.setattr(SuiteConfig, "rng", rng)
        verify.run_scope("all", SuiteConfig())
        assert len(keys) == len(set(keys)) == 309
