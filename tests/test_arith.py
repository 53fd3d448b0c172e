"""Divisor lattice, classical functions, Möbius transforms."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from cyclozeta.arith import (
    DivisorMap,
    _beta,
    _is_r_free,
    _klee,
    canonical_int,
    divisor_sums,
    divisors,
    euler_phi,
    factorize,
    inverse_mobius_transform,
    is_rth_power,
    jordan_totient,
    largest_odd_divisor,
    mobius,
    mobius_transform,
    named_function,
    ramanujan_sum,
)
from cyclozeta.exactpoly import PolynomialQ


def test_canonical_int_takes_only_what_str_writes_and_at_least_minimum():
    for k in range(-300, 301):
        assert canonical_int(str(k)) == k
        assert canonical_int(str(k), minimum=k) == k
        assert canonical_int(str(k), minimum=k + 1) is None
    for token in ["", "-", "-0", "+1", "01", "-01", "007", "1_0", "0x10", "1.0", "1e3", " 1", "1 ", "1\n",
                  "1 2", "\u0663", "\uff11", "1\u0663"]:
        assert canonical_int(token) is None, repr(token)


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(30) == (1, 2, 3, 5, 6, 10, 15, 30)


def test_divisors_rejects_zero():
    with pytest.raises(ValueError):
        divisors(0)


def test_divisors_against_trial_division():
    for n in range(1, 200):
        assert list(divisors(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    with pytest.raises(ValueError):
        mobius(0)


def test_mobius_divisor_sum_is_unit():
    """sum of mu(d) over d | n vanishes except at n = 1."""
    for n in range(1, 201):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_euler_phi_brute():
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(30) == 8
    with pytest.raises(ValueError):
        euler_phi(0)


def test_jordan_totient_values():
    assert jordan_totient(1, 5) == 1
    assert jordan_totient(6, 1) == 2
    assert jordan_totient(6, -1) == Fraction(1, 3)  # 1 - 1/2 - 1/3 + 1/6
    assert jordan_totient(1, 0) == 1
    assert jordan_totient(5, 0) == 0


def test_jordan_totient_at_one_is_euler():
    for n in range(1, 201):
        assert jordan_totient(n, 1) == euler_phi(n)


def test_ramanujan_sum_examples():
    assert ramanujan_sum(1, 7) == 1
    assert ramanujan_sum(6, 0) == 2  # c_m(0) = phi(m)
    assert ramanujan_sum(6, 2) == -1


def test_ramanujan_sum_against_exponential_oracle():
    """The divisor form matches the literal root-of-unity power sum.

    Floating point appears only in this oracle, never in the library.
    """
    for m in range(1, 61):
        for l in range(m):
            direct = sum(
                cmath.exp(2j * cmath.pi * k * l / m)
                for k in range(1, m + 1)
                if math.gcd(k, m) == 1
            )
            assert abs(direct.imag) < 1e-9
            assert abs(direct.real - ramanujan_sum(m, l)) < 1e-9, (m, l)


def test_ramanujan_sum_is_even_in_l():
    for m in (9, 12, 30):
        for l in range(-2 * m, 2 * m):
            assert ramanujan_sum(m, l) == ramanujan_sum(m, math.gcd(l, m))


def test_divisor_map_requires_full_key_set():
    with pytest.raises(ValueError):
        DivisorMap(6, {1: 1, 2: 0})
    with pytest.raises(ValueError):
        DivisorMap(6, {1: 1, 2: 0, 3: 0, 6: 0, 4: 5})
    dm = DivisorMap.from_partial(6, {2: 7})
    assert dm[2] == 7 and dm[1] == 0
    with pytest.raises(ValueError):
        DivisorMap.from_partial(6, {2: 7, 4: 1})


DIVISOR_MAP_REFUSALS = [
    ({1: 1, 2: 0}, ValueError, "DivisorMap keys must be exactly the divisors of 6; missing [3, 6]"),
    ({1: 1, 2: 0, 3: 0, 6: 0, 4: 5}, ValueError, "DivisorMap keys must be exactly the divisors of 6; non-divisors [4]"),
    ({1: 1, 2: 0, 4: 5, 12: 1}, ValueError,
     "DivisorMap keys must be exactly the divisors of 6; missing [3, 6]; non-divisors [4, 12]"),
    ({True: 1, 2: 0, 3: 0, 6: 0}, TypeError, "divisor keys must be ints, got [True]"),
    ({1: 1, 2.0: 0, 3: 0, 6: 0}, TypeError, "divisor keys must be ints, got [2.0]"),
    ({1: 1, 2: 0, 3: 0, 6: 0.5}, TypeError, "expected an exact rational, got float"),
    # a value that is not exact is refused before a wrong key set
    ({1: 1, 2: "0"}, TypeError, "expected an exact rational, got str"),
]


@pytest.mark.parametrize("values, error, message", DIVISOR_MAP_REFUSALS, ids=repr)
def test_divisor_map_refusals_name_the_offending_keys_and_values(values, error, message):
    with pytest.raises(error) as exc:
        DivisorMap(6, values)
    assert str(exc.value) == message


def test_divisor_map_values_are_exact_and_in_divisor_order():
    a = DivisorMap(6, {6: Fraction(4, 2), 1: Fraction(1, 2), 3: True, 2: -1})
    assert list(a.items()) == [(1, Fraction(1, 2)), (2, -1), (3, 1), (6, 2)]
    assert [type(v) for v in a.values.values()] == [Fraction, int, int, int]


def test_int_values_in_divisor_order_equal_the_same_values_in_any_order():
    """A dict of int values on the divisors in increasing order is taken as
    it is; every other order, and Fraction or bool values, go through the
    checks.  All give the same values, in divisor order, of the same types."""
    rng = random.Random(137)
    for n in (1, 6, 12, 60, 360):
        divs = list(divisors(n))
        for values in ({d: rng.randint(-9, 9) for d in divs},
                       {d: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), 2), True)) for d in divs}):
            exact = {d: int(v) if v == int(v) else v for d, v in values.items()}
            want = [(d, type(exact[d]), exact[d]) for d in divs]
            for order in (divs, divs[::-1], rng.sample(divs, len(divs))):
                a = DivisorMap(n, {d: values[d] for d in order})
                assert [(d, type(v), v) for d, v in a.items()] == want, (n, order)
            a = DivisorMap(n, values)
            assert a.values is not values


# each would name the divisors 1 and 2 of 2 if its keys were rounded or parsed
NON_INT_KEYS = [{1: 0, 2.7: 1}, {1: 0, 2.0: 1}, {1: 0, "2": 1}, {True: 0, 2: 1}]


@pytest.mark.parametrize("values", NON_INT_KEYS, ids=repr)
def test_divisor_keys_must_be_ints(values):
    with pytest.raises(TypeError):
        DivisorMap(2, values)
    with pytest.raises(TypeError):
        DivisorMap.from_partial(2, values)


class TestDivisorMapAtResidues:
    MAPS = [DivisorMap(1, {1: 5}), DivisorMap(6, {1: -1, 2: Fraction(1, 2), 3: 0, 6: 4}),
            DivisorMap(12, {d: d * d - 7 for d in divisors(12)})]

    @pytest.mark.parametrize("a", MAPS, ids=lambda a: f"n={a.n}")
    def test_value_at_k_is_the_value_at_gcd(self, a):
        n = a.n
        for k in range(-n, 2 * n + 1):
            assert a(k) == a[math.gcd(k, n)], k
        assert a(0) == a[n]

    @pytest.mark.parametrize("a", MAPS, ids=lambda a: f"n={a.n}")
    def test_residues_list_a_of_0_to_n_minus_1(self, a):
        assert a.residues() == tuple(a(k) for k in range(a.n))
        assert len(a.residues()) == a.n

    def test_sum_is_taken_divisor_by_divisor(self):
        a, b = DivisorMap(6, {1: 1, 2: 2, 3: 3, 6: 6}), DivisorMap(6, {1: Fraction(1, 2), 2: 0, 3: -3, 6: 1})
        assert a + b == DivisorMap(6, {1: Fraction(3, 2), 2: 2, 3: 0, 6: 7})

    def test_sum_of_different_conductors_is_refused(self):
        with pytest.raises(TypeError):
            DivisorMap(2, {1: 1, 2: 0}) + DivisorMap(3, {1: 1, 3: 0})
        with pytest.raises(TypeError):
            DivisorMap(2, {1: 1, 2: 0}) + 1


def test_divisor_sums_examples():
    assert divisor_sums(1, {1: 5}) == {1: 5}
    assert divisor_sums(6, {1: 1, 2: 2, 3: 3, 6: 6}) == {1: 1, 2: 3, 3: 4, 6: 12}
    assert divisor_sums(4, {1: Fraction(1, 2), 2: Fraction(1, 2), 4: 0}) == {1: Fraction(1, 2), 2: 1, 4: 1}


def _divisor_sums_by_definition(n, w):
    # the O(tau(n)**2) sum over the divisors of each divisor
    return {g: sum(w[d] for d in divisors(g)) for g in divisors(n)}


def _typed_values(sums):
    return [(g, type(v), v) for g, v in sums.items()]


def test_divisor_sums_equal_the_sum_over_each_divisor():
    """The transform on the divisor lattice, one prime at a time, against
    the plain sum over each divisor's divisors, for every n up to 5040: int
    values, mixed int and Fraction values, and polynomial values."""
    for n in range(1, 5041):
        rng = random.Random(f"lattice:{n}")
        kinds = [
            lambda: rng.randint(-9, 9),
            lambda: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 4)))),
            lambda: PolynomialQ([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]),
        ]
        for draw in kinds:
            w = {d: draw() for d in divisors(n)}
            assert _typed_values(divisor_sums(n, w)) == _typed_values(_divisor_sums_by_definition(n, w)), n


def divisor_sums_by_prime_scan(n, w):
    # divisor_sums as written before it read cached steps: each prime scans
    # every divisor for its multiples
    divs = divisors(n)
    s = {d: w[d] for d in divs}
    for p, _ in factorize(n):
        for g in divs:
            if g % p == 0:
                s[g] = s[g] + s[g // p]
    return s


def test_divisor_sums_equal_the_prime_scan_they_replace():
    """The cached (g, g / p) steps against the scan over every divisor for
    each prime, value and type, on int, Fraction and mixed weights."""
    for n in list(range(1, 121)) + [360, 720, 2520, 5040]:
        rng = random.Random(f"scan:{n}")
        for draw in (lambda: rng.randint(-9, 9), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                     lambda: rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(2, 4))))):
            w = {d: draw() for d in divisors(n)}
            assert _typed_values(divisor_sums(n, w)) == _typed_values(divisor_sums_by_prime_scan(n, w)), n


def test_mobius_transform_examples():
    assert mobius_transform(DivisorMap(1, {1: 5})).values == {1: 5}
    unit = DivisorMap(6, {1: 1, 2: 0, 3: 0, 6: 0})
    assert mobius_transform(unit).values == {1: 1, 2: 1, 3: 1, 6: 1}
    e = DivisorMap(6, {1: -1, 2: 1, 3: 1, 6: 1})
    assert mobius_transform(e).values == {1: -1, 2: 0, 3: 0, 6: 2}


def test_mobius_transform_round_trip():
    """Inverse transform undoes the transform on 100 random maps per n."""
    for n in range(1, 61):
        for t in range(100):
            rng = random.Random(f"arith:{n}:{t}")
            dm = DivisorMap(
                n, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for d in divisors(n)}
            )
            assert inverse_mobius_transform(mobius_transform(dm)) == dm
            assert mobius_transform(inverse_mobius_transform(dm)) == dm


def test_rth_powers_and_r_free_numbers_equal_a_search_over_t_to_the_r():
    """Both are read from the prime exponents; the oracle lists every t**r."""
    top = 20000
    for r in range(1, 8):
        powers = set()
        t = 1
        while t**r <= top:
            powers.add(t**r)
            t += 1
        divisible = [False] * (top + 1)
        for power in powers - {1}:
            divisible[power::power] = [True] * (top // power)
        assert not is_rth_power(0, r)
        for x in range(1, top + 1):
            assert is_rth_power(x, r) == (x in powers), (x, r)
            assert _is_r_free(x, r) == (not divisible[x]), (x, r)


def _gcd_walk(k: int, keep) -> int:
    # the defining count: every 1 <= j <= k whose gcd with k passes keep
    return sum(1 for j in range(1, k + 1) if keep(math.gcd(j, k)))


def test_klee_and_beta_equal_the_walk_over_every_j():
    """Klee's totient and beta count j <= k by gcd(j, k); the walk over every j is the oracle."""
    for k in range(1, 401):
        for r in range(1, 6):
            assert _klee(k, r) == _gcd_walk(k, lambda g: _is_r_free(g, r)), (k, r)
        assert _beta(k) == _gcd_walk(k, lambda g: is_rth_power(g, 2)), k


class TestNamedFunctions:
    def test_liouville(self):
        f = named_function("liouville")
        assert f(12) == -1  # 2^2 * 3 has three prime factors with multiplicity
        assert f(1) == 1

    def test_klee(self):
        assert named_function("klee", 2)(8) == 6
        assert named_function("klee", 1)(12) == euler_phi(12)

    def test_rho(self):
        assert named_function("rho", 2)(12) == 15  # divisors 3 and 12
        assert named_function("rho", 1)(12) == sum(divisors(12))

    def test_rho_prime(self):
        assert named_function("rho_prime", 2)(12) == 5  # square divisors 1, 4
        assert named_function("rho_prime", 1)(10) == sum(divisors(10))

    def test_beta(self):
        assert named_function("beta")(8) == 5

    def test_phi_inverse(self):
        assert named_function("phi_inv")(6) == 2  # (1 - 2)(1 - 3)
        assert named_function("phi_inv")(3) == -2

    def test_largest_odd(self):
        assert named_function("largest_odd")(48) == 3
        assert largest_odd_divisor(7) == 7

    def test_sigma_and_abs_mobius(self):
        assert named_function("sigma")(6) == 12
        assert named_function("abs_mobius")(12) == 0
        assert named_function("abs_mobius")(30) == 1

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_function("totally-unknown")
        with pytest.raises(ValueError):
            named_function("klee")  # missing parameter

    def test_dedekind_psi_divisor_identity(self):
        """psi(k) = sum over d | k of |mu(d)| (k/d), for every k <= 500."""
        psi = named_function("dedekind_psi")
        for k in range(1, 501):
            want = sum(abs(mobius(d)) * (k // d) for d in divisors(k))
            assert psi(k) == want, k

    def test_values_helper(self):
        assert named_function("euler_phi").values(6) == [1, 1, 2, 2, 4, 2]
