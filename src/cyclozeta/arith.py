"""Divisor lattices and classical arithmetic functions, exactly.

Values are Python ints or ``fractions.Fraction``; nothing in this module
(or anywhere else in the package) touches floating point.  The conventions
used throughout the package live here:

* Every container of values makes them exact through :func:`exact_values`
  alone: an integral Fraction becomes an int, a float or a string raises
  ``TypeError``.  Divisor keys must be ints; a bool or a float is refused.
* ``gcd(0, n) == n``, so the index ``k = 0`` behaves like ``k = n`` in every
  divisor sum over ``d | (k, n)``.
* An even function mod n (one that depends only on gcd(k, n)) is a
  :class:`DivisorMap`: its values on the divisors of n.
* Evaluators produced by :func:`named_function` follow the defining
  descriptions of the functions (counts grouped by gcd(j, k) and divisor
  sums); none of them rely on multiplicativity shortcuts.
* Every integer read from text (products, flags, weight and Seifert data,
  catalog ranks) goes through :func:`canonical_int`.

Inputs are desk-scale, so factoring is plain trial division.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping


def as_exact(x):
    """Coerce to an exact coefficient (int or Fraction); demote integral Fractions."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def exact_values(values) -> list:
    """A new list of the values made exact by :func:`as_exact`.  A list of
    plain ints (not bools) is returned as it is: the type-set test runs at C
    speed, so integer data pays no per-value conversion."""
    cs = list(values)
    if {*map(type, cs)} <= {int}:
        return cs
    return [as_exact(c) for c in cs]


def canonical_int(token: str, minimum: int | None = None) -> int | None:
    """The integer ``token`` spells in canonical ASCII decimal, as
    ``str(int)`` writes it (``0``, or digits without a leading zero after an
    optional minus sign; no whitespace, plus sign, underscore or other
    digits), if it is at least ``minimum``; otherwise None."""
    if not re.fullmatch("0|-?[1-9][0-9]*", token):
        return None
    value = int(token)
    return value if minimum is None or value >= minimum else None


def require_int_keys(keys) -> None:
    """Refuse any key that is not an int, with the same type-set test."""
    if not {*map(type, keys)} <= {int}:
        raise TypeError(f"divisor keys must be ints, got {[k for k in keys if type(k) is not int]}")


def div_exact(a, b):
    """a / b as an exact rational (never a float)."""
    if b == 1:
        return a
    if b == -1:
        return -a
    if isinstance(a, int) and isinstance(b, int):
        return as_exact(Fraction(a, b))
    return as_exact(Fraction(a) / Fraction(b))


def rational_power(base: int, s: int):
    """base**s for integer s of either sign, exactly."""
    if s >= 0:
        return base**s
    return as_exact(Fraction(1, base ** (-s)))


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, strictly increasing."""
    if n < 1:
        raise ValueError(f"divisors: need a positive integer, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


@lru_cache(maxsize=None)
def _divisor_set(n: int) -> frozenset[int]:
    return frozenset(divisors(n))


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization ``((p, multiplicity), ...)`` by trial division."""
    if n < 1:
        raise ValueError(f"factorize: need a positive integer, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def mobius(k: int) -> int:
    """Möbius function: (-1)^(number of primes) on squarefree k, else 0."""
    if k < 1:
        raise ValueError(f"mobius: need a positive integer, got {k}")
    fac = factorize(k)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


@lru_cache(maxsize=None)
def euler_phi(k: int) -> int:
    """Number of 1 <= j <= k with gcd(j, k) = 1, counted directly."""
    if k < 1:
        raise ValueError(f"euler_phi: need a positive integer, got {k}")
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def jordan_totient(n: int, s: int):
    """Sum of mu(n/d) d**s over d | n; s = 1 gives Euler's totient, s = 0 gives [n == 1]."""
    if n < 1:
        raise ValueError(f"jordan_totient: need a positive integer, got {n}")
    return as_exact(mobius_inversion(n, {d: rational_power(d, s) for d in divisors(n)})[n])


def ramanujan_sum(m: int, l: int) -> int:
    """Sum of l-th powers of the primitive m-th roots of unity.

    Computed by the closed divisor form sum of d mu(m/d) over d | gcd(l, m),
    with gcd(0, m) = m; always an integer.
    """
    if m < 1:
        raise ValueError(f"ramanujan_sum: need a positive modulus, got {m}")
    g = math.gcd(l, m)
    return sum(d * mobius(m // d) for d in divisors(g))


def is_rth_power(x: int, r: int) -> bool:
    """Whether x >= 1 is an r-th power: every prime exponent is a multiple of r."""
    return x >= 1 and all(e % r == 0 for _, e in factorize(x))


def _is_r_free(g: int, r: int) -> bool:
    # no t**r > 1 divides g: every prime exponent is below r
    return all(e < r for _, e in factorize(g))


class DivisorMap:
    """Exact values indexed by the divisors of a conductor n.

    The key set is exactly the set of positive divisors of n; missing keys in
    :meth:`from_partial` are filled with 0.

    The same values are an even function mod n, a function of k that depends
    only on gcd(k, n): ``a[d]`` is the value at a divisor d, ``a(k)`` the
    value at any integer k (``a(0) == a[n]``), and :meth:`residues` lists
    a(0), ..., a(n - 1).  ``a.values`` is the dict on the divisors.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Mapping[int, object]):
        divs = divisors(n)
        self.n = n
        if tuple(values) == divs and {*map(type, values.values())} <= {int} and {*map(type, values)} <= {int}:
            # int values on int keys, the divisors in increasing order: a
            # tuple comparison and two type-set tests, all at C speed, prove
            # what the checks below would
            self.values = dict(values)
            return
        require_int_keys(values)
        if values.keys() != _divisor_set(n):
            # a value that is not exact is refused before a wrong key set
            exact_values(values.values())
            missing = sorted(set(divs) - set(values))
            extra = sorted(set(values) - set(divs))
            raise ValueError(
                f"DivisorMap keys must be exactly the divisors of {n}"
                + (f"; missing {missing}" if missing else "")
                + (f"; non-divisors {extra}" if extra else "")
            )
        self.values = dict(zip(divs, exact_values(map(values.__getitem__, divs))))

    @classmethod
    def from_partial(cls, n: int, values: Mapping[int, object]) -> "DivisorMap":
        require_int_keys(values)
        return cls(n, {**dict.fromkeys(divisors(n), 0), **values})

    @classmethod
    def zeros(cls, n: int) -> "DivisorMap":
        return cls(n, {d: 0 for d in divisors(n)})

    def __getitem__(self, d: int):
        return self.values[d]

    def __call__(self, k: int):
        return self.values[math.gcd(k, self.n)]

    def residues(self) -> tuple:
        """(a(0), ..., a(n - 1)) of the even function."""
        n, v = self.n, self.values
        return tuple(v[math.gcd(k, n)] for k in range(n))

    def __add__(self, other):
        if not isinstance(other, DivisorMap) or other.n != self.n:
            return NotImplemented
        return DivisorMap(self.n, {d: v + other.values[d] for d, v in self.values.items()})

    def items(self):
        return self.values.items()

    def __eq__(self, other):
        if not isinstance(other, DivisorMap):
            return NotImplemented
        return self.n == other.n and self.values == other.values

    def __hash__(self):
        return hash((self.n, tuple(self.values.items())))

    def __repr__(self):
        body = ",".join(f"{d}:{v}" for d, v in self.values.items())
        return f"DivisorMap(n={self.n}, {{{body}}})"


def divisor_sums(n: int, w: Mapping[int, object]) -> dict[int, object]:
    """{g: sum of w[d] over d | g} for every divisor g of n; the caller
    normalises the values (an integral Fraction stays a Fraction here).

    The zeta transform on the divisor lattice, one prime at a time: after
    the step for p, s[g] sums w[d] over the divisors d of g for which g / d
    has no prime other than those done so far.  The step adds s[g / p] to
    s[g] for every multiple g of p, in increasing order, so s[g / p] already
    holds its own step's sum and the powers of p accumulate.
    O(tau(n) omega(n)) additions instead of O(tau(n)**2); the steps depend
    on n alone and are listed once per n.
    """
    divs = divisors(n)
    s = dict(zip(divs, map(w.__getitem__, divs)))
    for g, h in _zeta_steps(n):
        s[g] = s[g] + s[h]
    return s


@lru_cache(maxsize=None)
def _zeta_steps(n: int) -> tuple[tuple[int, int], ...]:
    """The (g, g / p) of :func:`divisor_sums`' additions at conductor n, in
    their order: for each prime p of n, each multiple g of p dividing n,
    increasing."""
    divs = divisors(n)
    return tuple((g, g // p) for p, _ in factorize(n) for g in divs if g % p == 0)


def mobius_inversion(n: int, x: Mapping[int, object]) -> dict[int, object]:
    """{g: sum of mu(g/d) x[d] over d | g} for every divisor g of n: the inverse
    of :func:`divisor_sums`.  Values may be polynomials; like there, the caller
    normalises them."""
    return {g: sum(mu * x[d] for d in divisors(g) if (mu := mobius(g // d))) for g in divisors(n)}


def mobius_transform(e: DivisorMap) -> DivisorMap:
    """Divisor-sum transform: output(d) = sum of e(d') over d' | d."""
    return DivisorMap(e.n, divisor_sums(e.n, e.values))


def inverse_mobius_transform(x: DivisorMap) -> DivisorMap:
    """Inverse of :func:`mobius_transform`: output(d) = sum of mu(d/d') x(d')."""
    return DivisorMap(x.n, mobius_inversion(x.n, x.values))


class ArithmeticFunction:
    """A named total map from positive integers to exact rationals."""

    __slots__ = ("name", "params", "_fn")

    def __init__(self, name: str, params: tuple[int, ...], fn: Callable[[int], object]):
        self.name = name
        self.params = params
        self._fn = fn

    def __call__(self, k: int):
        if k < 1:
            raise ValueError(f"{self.name}: need a positive integer, got {k}")
        return self._fn(k)

    def values(self, upto: int) -> list:
        """[f(1), ..., f(upto)]"""
        return [self(k) for k in range(1, upto + 1)]

    def __repr__(self):
        ps = ",".join(map(str, self.params))
        return f"ArithmeticFunction({self.name}{'(' + ps + ')' if ps else ''})"


def _phi_inverse(k: int) -> int:
    # sum of d mu(d) over d | k; Dirichlet inverse of Euler's totient
    return sum(d * mobius(d) for d in divisors(k))


def liouville(k: int) -> int:
    if k < 1:
        raise ValueError(f"liouville: need a positive integer, got {k}")
    return -1 if sum(e for _, e in factorize(k)) % 2 else 1


def _dedekind_psi(k: int) -> int:
    # sum of |mu(d)| (k/d) over d | k, i.e. k times the product of (1 + 1/p)
    return sum((k // d) for d in divisors(k) if mobius(d) != 0)


def _klee(k: int, r: int) -> int:
    # count of 1 <= j <= k whose gcd g with k is r-free; phi(k/g) of them have that g
    return sum(euler_phi(k // g) for g in divisors(k) if _is_r_free(g, r))


def _rho(k: int, r: int) -> int:
    # sum of divisors d of k with k/d an r-th power
    return sum(d for d in divisors(k) if is_rth_power(k // d, r))


def _rho_prime(k: int, r: int) -> int:
    # sum of divisors of k that are r-th powers
    return sum(d for d in divisors(k) if is_rth_power(d, r))


def _beta(k: int) -> int:
    # count of 1 <= j <= k with gcd(j, k) a perfect square, grouped as in _klee
    return sum(euler_phi(k // g) for g in divisors(k) if is_rth_power(g, 2))


def largest_odd_divisor(k: int) -> int:
    if k < 1:
        raise ValueError(f"largest_odd_divisor: need a positive integer, got {k}")
    while k % 2 == 0:
        k //= 2
    return k


def sigma(k: int) -> int:
    if k < 1:
        raise ValueError(f"sigma: need a positive integer, got {k}")
    return sum(divisors(k))


_PARAMETRIC: dict[str, Callable[[int, int], object]] = {"klee": _klee, "rho": _rho, "rho_prime": _rho_prime}

_PLAIN: dict[str, Callable[[int], object]] = {
    "mobius": mobius,
    "euler_phi": euler_phi,
    "phi_inv": _phi_inverse,
    "liouville": liouville,
    "dedekind_psi": _dedekind_psi,
    "beta": _beta,
    "largest_odd": largest_odd_divisor,
    "sigma": sigma,
    "abs_mobius": lambda k: abs(mobius(k)),
}


def named_function(name: str, *params: int) -> ArithmeticFunction:
    """Look up a classical arithmetic function by name.

    Plain names: mobius, euler_phi, phi_inv, liouville, dedekind_psi, beta,
    largest_odd, sigma, abs_mobius.  Parametric (one parameter r >= 1):
    klee, rho, rho_prime.
    """
    if name in _PLAIN:
        if params:
            raise ValueError(f"{name} takes no parameters")
        return ArithmeticFunction(name, (), _PLAIN[name])
    if name in _PARAMETRIC:
        if len(params) != 1 or params[0] < 1:
            raise ValueError(f"{name} needs a single parameter r >= 1")
        r, fn = params[0], _PARAMETRIC[name]
        return ArithmeticFunction(name, (r,), lambda k: fn(k, r))
    raise ValueError(f"unknown arithmetic function {name!r}")
