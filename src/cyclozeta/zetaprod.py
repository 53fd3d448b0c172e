"""Cyclotomic products and their root data.

A :class:`ZetaProduct` is the formal product over the divisors d of a
conductor n of (q**d - 1)**e(d) with integer exponents e(d).  This module
computes the attached even functions -- root multiplicities m(k), power sums
p(k), and their Saito counterparts m*(k), p*(k), each a
:class:`~cyclozeta.arith.DivisorMap` of its values on the divisors of n
(an even function depends only on gcd(k, n)) -- together with the
Fourier expansion of even functions in Ramanujan sums, the discrete Fourier
relation between m and p, the periodic Lambert form of an even function
(:func:`lambert_form`, reduced by reading that Fourier transform; cleared:
:func:`lambert_polynomial`) and the
generating-function identities built on it, and the pairing
identities obtained by substituting Möbius-inverse pairs (necklace
polynomials, cyclotomic logarithmic derivatives, Ramanujan-sum kernels).
A pairing writes every x_d over one common denominator and inverts the
numerators with :func:`cyclozeta.arith.mobius_inversion`, so both sides are
polynomials; the Fourier pair family is expanded through
:func:`ramanujan_reconstruct`.

Everything is exact.  The index convention a(0) = a(n) (gcd(0, n) = n) is
used throughout.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mul, neg, sub
from typing import Mapping

from .arith import (
    DivisorMap,
    canonical_int,
    div_exact,
    divisor_sums,
    divisors,
    euler_phi,
    factorize,
    mobius_inversion,
    ramanujan_sum,
    rational_power,
)
from .exactpoly import (
    ONE,
    ZERO,
    PolynomialQ,
    Q,
    RationalFunctionQ,
    _combine,
    binomial_product,
    cyclotomic,
    cyclotomic_product,
    necklace,
)
from .report import Report


class ZetaParseError(ValueError):
    """Malformed textual zeta-product input; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ZetaProduct:
    """Formal product over d | n of (q**d - 1)**e(d), e integer-valued."""

    __slots__ = ("n", "e")

    def __init__(self, n: int, e):
        if not isinstance(e, DivisorMap):
            e = DivisorMap(n, e)
        if e.n != n:
            raise ValueError(f"exponent map has conductor {e.n}, expected {n}")
        # a DivisorMap holds ints and non-integral Fractions, so one
        # type-set test is the integer check
        if not {*map(type, e.values.values())} <= {int}:
            d, v = next((d, v) for d, v in e.items() if type(v) is not int)
            raise ValueError(f"exponent e({d}) = {v} is not an integer")
        self.n = n
        self.e = e

    @property
    def mu_e(self) -> int:
        """Total sign-counted root count: sum of all exponents."""
        return sum(self.e.values.values())

    def __mul__(self, other: "ZetaProduct") -> "ZetaProduct":
        if not isinstance(other, ZetaProduct):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("can only multiply products with the same conductor")
        return ZetaProduct(self.n, {d: self.e[d] + other.e[d] for d in divisors(self.n)})

    def __eq__(self, other):
        if not isinstance(other, ZetaProduct):
            return NotImplemented
        return self.n == other.n and self.e == other.e

    def __hash__(self):
        return hash((self.n, self.e))

    def to_text(self) -> str:
        body = ",".join(f"{d}:{v}" for d, v in self.e.items())
        return f"n={self.n}; e={{{body}}}"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "e": {str(d): v for d, v in self.e.items()}}

    def __repr__(self):
        return f"ZetaProduct({self.to_text()})"


def parse_zeta_product(text: str) -> ZetaProduct:
    """Parse ``n=<int>; e={d:v,...}`` (whitespace-insensitive, all divisors
    required) or its JSON mirror."""
    return ZetaProduct(*parse_zeta_fields(text))


def parse_zeta_fields(text: str) -> tuple[int, dict[int, int]]:
    """The raw (n, {d: e(d)}) of a text or JSON product, read without
    computing a divisor of n, so that a caller can refuse n first.

    Numbers are taken only as :meth:`ZetaProduct.to_text` writes them, by
    :func:`arith.canonical_int`: n and the divisors positive, the exponents
    of either sign (``0``, not ``-0``, in text and in JSON), and none split
    by whitespace.
    """
    s = re.sub(r"\s+", "", text)
    if s.startswith("{"):
        return _json_fields(
            json.loads(text, object_pairs_hook=_refuse_repeated_keys, parse_int=_refuse_minus_zero)
        )
    split = re.search(r"[-0-9]\s+[0-9]", text)
    if split:
        raise ZetaParseError(f"whitespace inside the number {split.group()!r}", split.start())
    m = re.match(r"^n=(\d+);e=\{(.*)\}$", s)
    if not m:
        for pos, (got, want) in enumerate(zip(s, "n=")):
            if got != want:
                raise ZetaParseError(f"expected {want!r}, found {got!r}", pos)
        raise ZetaParseError("expected the form n=<int>; e={d:v,...}", 0)
    n = canonical_int(m.group(1), minimum=1)
    if n is None:
        raise ZetaParseError(f"n={m.group(1)} is not a positive integer in canonical decimal form", 2)
    body = m.group(2)
    e: dict[int, int] = {}
    if body:
        offset = s.index("{") + 1
        for chunk in body.split(","):
            d_text, _, v_text = chunk.partition(":")
            d, v = canonical_int(d_text, minimum=1), canonical_int(v_text)
            if d is None or v is None:
                raise ZetaParseError(
                    f"bad exponent entry {chunk!r}: expected <divisor>:<exponent> in canonical decimal form",
                    offset,
                )
            if d in e:
                raise ZetaParseError(f"duplicate divisor {d}", offset)
            e[d] = v
            offset += len(chunk) + 1
    return n, e


def _refuse_minus_zero(literal: str) -> int:
    # JSON's integer grammar is the canonical one, except that it takes -0
    value = canonical_int(literal)
    if value is None:
        raise ZetaParseError(f"the number {literal} is not in canonical decimal form (write 0)")
    return value


def _refuse_repeated_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ZetaParseError(f"duplicate key {json.dumps(key)}")
        obj[key] = value
    return obj


def _json_fields(obj: Mapping) -> tuple[int, dict[int, int]]:
    for field in obj:
        if field not in ("n", "e"):
            raise ZetaParseError(f"unknown field {json.dumps(field)}")
    for field in ("n", "e"):
        if field not in obj:
            raise ZetaParseError(f"missing field {json.dumps(field)}")
    n, e = obj["n"], obj["e"]
    if not isinstance(e, dict):
        raise ZetaParseError(f"e must be an object mapping divisors to exponents, got {json.dumps(e)}")
    for k in e:
        if canonical_int(k, minimum=1) is None:
            raise ZetaParseError(f"e key {json.dumps(k)} is not a divisor in canonical decimal form")
    for label, v in [("n", n)] + [(f"e({k})", v) for k, v in e.items()]:
        if type(v) is not int:
            raise ZetaParseError(f"{label} must be an integer, got {json.dumps(v)}")
    if n < 1:
        raise ZetaParseError(f"n must be a positive integer, got {n}")
    return n, {int(k): v for k, v in e.items()}


def _draws(rng, ranges) -> list[int]:
    """One ``rng.randint(low, high)`` for each (low, high) of ``ranges``, in
    order: the same values from the same stream, by randint's own rejection
    rule (getrandbits of the width's bit length, drawn again while it is not
    below the width), without randint's three Python frames per draw."""
    getrandbits = rng.getrandbits
    out = []
    for low, high in ranges:
        width = high - low + 1
        bits = width.bit_length()
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        out.append(low + r)
    return out


def random_zeta_product(rng, n: int, span: int = 2) -> ZetaProduct:
    """Seeded random exponent vector with entries in [-span, span]."""
    divs = divisors(n)
    return ZetaProduct(n, dict(zip(divs, _draws(rng, repeat((-span, span), len(divs))))))


def random_even_function(rng, n: int, span: int = 6) -> DivisorMap:
    """Seeded random even function mod n with values in [-span, span] / [1, 4]."""
    divs = divisors(n)
    v = _draws(rng, [(-span, span), (1, 4)] * len(divs))
    return DivisorMap(n, dict(zip(divs, map(Fraction, v[::2], v[1::2]))))


# ---------------------------------------------------------------------------
# root data of a zeta product


def root_weights(z: ZetaProduct, kind: str) -> dict[int, int]:
    """Weights w(d), d | n, of the root-data function a(k) = sum of w(d) over d | (k, n).

    kind "m": e(n/d), "p": d e(d), "mstar": e(d), "pstar": d e(n/d); the
    starred weights swap e(d) and e(n/d), which is the Saito transform.
    The exponents are in divisor order, so e(n/d) of the i-th divisor d is
    the i-th exponent from the end.
    """
    e = z.e.values
    if kind == "m":
        return dict(zip(e, reversed(e.values())))
    if kind == "p":
        return dict(zip(e, map(mul, e, e.values())))
    if kind == "mstar":
        return dict(e)
    if kind == "pstar":
        return dict(zip(e, map(mul, e, reversed(e.values()))))
    raise ValueError(f"unknown root-weight kind {kind!r}")


def _root_function(z: ZetaProduct, kind: str) -> DivisorMap:
    return DivisorMap(z.n, divisor_sums(z.n, root_weights(z, kind)))


def multiplicities(z: ZetaProduct) -> DivisorMap:
    """m(k) = sum of e(n/d) over d | (k, n): the sign-counted multiplicity of
    exp(2 pi i k / n) as a root of the product."""
    return _root_function(z, "m")


def power_sums(z: ZetaProduct) -> DivisorMap:
    """p(k) = sum of d e(d) over d | (k, n): sign-counted k-th power sums of roots."""
    return _root_function(z, "p")


def saito_transform(z: ZetaProduct) -> ZetaProduct:
    """Reindex exponents d -> e(n/d); an involution."""
    return ZetaProduct(z.n, dict(zip(divisors(z.n), reversed(z.e.values.values()))))


def saito_dual(z: ZetaProduct) -> ZetaProduct:
    """The inverse of the transform: exponents d -> -e(n/d)."""
    return ZetaProduct(z.n, dict(zip(divisors(z.n), map(neg, reversed(z.e.values.values())))))


def star_functions(z: ZetaProduct) -> tuple[DivisorMap, DivisorMap]:
    """(m*, p*): multiplicities and power sums of the Saito transform.

    m*(k) = sum of e(d), p*(k) = sum of d e(n/d), both over d | (k, n).  Read
    from the starred weights directly, not through :func:`saito_transform`,
    so that comparing them with the root data of the transform is a check.
    """
    return _root_function(z, "mstar"), _root_function(z, "pstar")


def to_rational_function(z: ZetaProduct) -> RationalFunctionQ:
    """The product as a reduced rational function of q.

    Assembled through its cyclotomic factorization: the exponent of the d-th
    cyclotomic polynomial is the sum of e(d') over multiples d' of d dividing
    n, which equals m(n/d).  Distinct cyclotomics are coprime, so the result
    is already in lowest terms.
    """
    exponents = {d: sum(map(z.e.values.__getitem__, multiples)) for d, multiples in _multiples(z.n)}
    num = cyclotomic_product({d: k for d, k in exponents.items() if k > 0})
    den = cyclotomic_product({d: -k for d, k in exponents.items() if k < 0})
    return RationalFunctionQ(num, den, _normalized=True)


@lru_cache(maxsize=None)
def _multiples(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(d, the multiples of d that divide n) for each d | n."""
    divs = divisors(n)
    return tuple((d, tuple(dp for dp in divs if dp % d == 0)) for d in divs)


def expand_divisor_product(z: ZetaProduct) -> tuple[PolynomialQ, PolynomialQ]:
    """Unreduced (numerator, denominator) of the literal product of (q**d - 1)**e(d).

    Multiplied out densely, power by power: the reference that the
    ``direct-product`` check compares :func:`to_rational_function` against.
    """
    num = math.prod(((PolynomialQ.monomial(d) - 1) ** k for d, k in z.e.items() if k > 0), start=ONE)
    den = math.prod(((PolynomialQ.monomial(d) - 1) ** -k for d, k in z.e.items() if k < 0), start=ONE)
    return num, den


@lru_cache(maxsize=None)
def _primitive_root_tests(n: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(d, phi(d), the d/p for the primes p | d) for each d | n."""
    return tuple((d, euler_phi(d), tuple(d // p for p, _ in factorize(d))) for d in divisors(n))


def _vanishes_at_primitive_root(h: list, d: int, shifts: tuple[int, ...]) -> bool:
    # fold h mod q**d - 1, then multiply by each q**s - 1, s = d/p, mod
    # q**d - 1: one rotate-and-subtract per prime p | d.  At d = 1 the fold
    # is h(1) and there is no prime.
    if d == 1:
        return not sum(h)
    f = [sum(h[r::d]) for r in range(d)]
    for s in shifts:
        f = list(map(sub, f[-s:] + f[:-s], f))
    return not any(f)


def _cyclotomic_valuations(p: PolynomialQ, n: int, coprime: Mapping[int, int] | None = None) -> dict[int, int]:
    # coprime, when given, holds the valuations of a polynomial coprime to
    # p: where one of them is positive, Phi_d does not divide p, so p's is 0
    # without a test.
    # left is deg P less v phi(d) for every valuation v proved so far
    left = p.degree
    # derivatives[j] is the j-th derivative of p, built once from the
    # (j - 1)-th for every d that asks for it
    derivatives = [list(p.coeffs)]
    out = {}
    for d, phi, shifts in _primitive_root_tests(n):
        if coprime and coprime[d]:
            out[d] = 0
            continue
        j = 0
        while (j + 1) * phi <= left:
            if j == len(derivatives):
                h = derivatives[-1]
                derivatives.append(list(map(mul, range(1, len(h)), h[1:])))
            if not _vanishes_at_primitive_root(derivatives[j], d, shifts):
                break
            j += 1
        out[d] = j
        left -= j * phi
    return out


def cyclotomic_exponents(f: RationalFunctionQ, n: int) -> DivisorMap:
    """Exponent of each cyclotomic factor of f among indices dividing n.

    The exponent of Phi_d in a polynomial P is the multiplicity of a
    primitive d-th root of unity zeta as a root of P (Phi_d is irreducible,
    so one root stands for all): the least j whose j-th derivative has
    P^(j)(zeta) != 0.  P^(j) is j! times the j-th Hasse derivative
    sum_k C(k, j) a_k q**(k - j), so both vanish at the same points, and it
    is built from P^(j - 1) with one product per coefficient.

    The search spends a degree budget.  The Phi_d are pairwise coprime, so
    Phi_d**v_d divides P for every d at once only if their product does,
    and a non-zero P then has sum of v_d phi(d) <= deg P.  The budget starts
    at deg P and loses v phi(d) once the valuation v of each d | n is
    proved; Phi_d**(j + 1) is tested only while (j + 1) phi(d) fits in what
    is left.  When it no longer fits, v_d = j follows from the bound, not
    from a further test.  The budget reads only valuations already proved.

    P^(j)(zeta) = 0 is tested without Phi_d's coefficients.  Fold P^(j) mod
    q**d - 1 to F, then multiply F mod q**d - 1 by the product of
    q**(d/p) - 1 over the primes p | d, one rotate-and-subtract per prime.
    q**d - 1 is the product of Phi_c over c | d, each once.  The product of
    the q**(d/p) - 1 is 0 mod every Phi_c with c a proper divisor of d (c
    divides some d/p) and a unit mod Phi_d (zeta**(d/p) != 1).  So the
    result is zero exactly when Phi_d divides F, that is, when
    P^(j)(zeta) = 0.  Each derivative is built once and shared by every
    d | n; each test costs O(deg P + d omega(d)).  The zero polynomial
    counts as exponent 0.

    f is in lowest terms, so Phi_d divides at most one of its numerator and
    denominator.  The numerator is searched at every d | n, the denominator
    only at the d where the numerator's proved valuation is 0; elsewhere
    the denominator's is 0 untested, which leaves its budget as it was.
    """
    num = _cyclotomic_valuations(f.num, n)
    den = _cyclotomic_valuations(f.den, n, num)
    return DivisorMap(n, {d: v - den[d] for d, v in num.items()})


def partial_zeta(z: ZetaProduct, k: int) -> RationalFunctionQ:
    """Product of (q**d - 1)**e(d) restricted to d | (k, n).

    Defined as the restricted PRODUCT: only then is the multiplicity of the
    root q = 1 the divisor sum a(k) = sum of e(d) over d | (k, n), which is
    the property this object exists to carry (a termwise sum of the factors
    would not even be multiplicative in e).  It is the product of z with e
    set to 0 off the divisors of (k, n), so it comes out reduced.
    """
    g = math.gcd(k, z.n)
    return to_rational_function(ZetaProduct(z.n, {d: ed if g % d == 0 else 0 for d, ed in z.e.items()}))


# ---------------------------------------------------------------------------
# Fourier analysis in Ramanujan sums


@lru_cache(maxsize=None)
def _ramanujan_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """One row (c_d(g) for d | n) for each g | n, both in divisor order."""
    divs = divisors(n)
    return tuple(tuple(ramanujan_sum(d, g) for d in divs) for g in divs)


def _ramanujan_synthesis(a: DivisorMap, scale: int = 1) -> dict[int, object]:
    """{g: (1/scale) sum of a(n/d) c_d(g) over d | n} for every g | n.

    The values of a are written over one common denominator D, so each row
    is a sum of integer products, divided by D * scale once."""
    n = a.n
    divs = divisors(n)
    column = [a[n // d] for d in divs]
    D = 1
    if not {*map(type, column)} <= {int}:
        D = math.lcm(*(v.denominator for v in column))
        column = [v.numerator * (D // v.denominator) for v in column]
    sums = [sum(map(mul, column, row)) for row in _ramanujan_matrix(n)]
    return dict(zip(divs, sums if D * scale == 1 else map(div_exact, sums, repeat(D * scale))))


def ramanujan_coefficients(a: DivisorMap) -> DivisorMap:
    """r(k) = (1/n) sum of a(n/d) c_d(k) over d | n."""
    return DivisorMap(a.n, _ramanujan_synthesis(a, a.n))


def ramanujan_reconstruct(r: DivisorMap) -> DivisorMap:
    """a(k) = sum of r(n/d) c_d(k) over d | n; inverse of :func:`ramanujan_coefficients`."""
    return DivisorMap(r.n, _ramanujan_synthesis(r))


def dft_power_sums(m: DivisorMap) -> DivisorMap:
    """p(l) = sum of m(n/d) c_d(l) over d | n: the even-function discrete
    Fourier transform sending multiplicities to power sums."""
    return DivisorMap(m.n, _ramanujan_synthesis(m))


# ---------------------------------------------------------------------------
# generating-function identities


def lambert_form(a: DivisorMap) -> RationalFunctionQ:
    """sum_{k=0..n-1} a(k) q**k / (1 - q**n), reduced.

    For a(k) = sum of w(d) over d | (k, n) this is the periodic Lambert
    identity's left side; it equals sum_d w(d) / (1 - q**d).

    Reduced without a gcd: 1 - q**n = -prod of Phi_c over c | n is
    squarefree, and A(q) = sum_{k<n} a(k) q**k takes at a primitive c-th
    root of unity the value sum of a(n/d) c_d(n/c) over d | n, the
    Fourier-Ramanujan transform :func:`dft_power_sums` at n/c.  So Phi_c
    cancels exactly when that value is 0; the other Phi_c form the monic
    denominator.  The numerator -A(q) is divided by the cancelled Phi_c
    through :func:`cyclotomic_product`, one binomial q**c - 1 at a time.
    """
    n = a.n
    at_roots = dft_power_sums(a)
    divs = divisors(n)
    num = cyclotomic_product({c: -1 for c in divs if not at_roots[n // c]}, start=-PolynomialQ(a.residues()))
    kept = cyclotomic_product({c: 1 for c in divs if at_roots[n // c]})
    return RationalFunctionQ(num, kept, _normalized=True)


def lambert_polynomial(n: int, w: Mapping[int, object]) -> PolynomialQ:
    """sum_d w(d) (1 - q**n) / (1 - q**d) over d | n: the partial-fraction side
    of :func:`lambert_form` cleared by 1 - q**n, so it equals sum_{k<n} a(k) q**k.
    The weights may be polynomials in q as well as numbers."""
    acc = ZERO
    for d, v in w.items():
        if v:
            acc = acc + v * binomial_product([(n, 1), (d, -1)])
    return acc


def gf_power_series(a: DivisorMap, e: DivisorMap) -> Report:
    """Check the two partial-fraction forms of the periodic Lambert identity.

    With a(k) = sum of e(d) over d | (k, n), both of

    * sum_{k=1..n} a(k) q**k / (1 - q**n)  ==  sum_d e(d) q**d / (1 - q**d)
    * sum_{k=0..n-1} a(k) q**k / (1 - q**n)  ==  sum_d e(d) / (1 - q**d)

    must hold as exact rational-function identities.  (The third member with
    q-integer denominators is the second one with (1 - q) factored out, so it
    is covered by the same cleared comparison.)  Both sides are returned in
    the report context for display.
    """
    n = a.n
    report = Report("lambert-partial-fractions", context={"n": n})
    lhs_tail = PolynomialQ([0] + [a(k) for k in range(1, n + 1)])
    rhs_tail = lambert_polynomial(n, {d: PolynomialQ.monomial(d, ed) for d, ed in e.items()})
    report.expect(lhs_tail == rhs_tail, identity="k=1..n", lhs=lhs_tail, rhs=rhs_tail)
    lhs_head = PolynomialQ(a.residues())
    rhs_head = lambert_polynomial(n, e)
    report.expect(lhs_head == rhs_head, identity="k=0..n-1", lhs=lhs_head, rhs=rhs_head)
    one_minus_qn = ONE - PolynomialQ.monomial(n)
    report.context["series_form"] = str(RationalFunctionQ(lhs_tail, one_minus_qn))
    report.context["partial_fractions"] = {d: v for d, v in e.items() if v}
    return report


# ---------------------------------------------------------------------------
# Möbius pairing identities


def check_mobius_pairing(z: ZetaProduct, x: Mapping[int, object]) -> Report:
    """Pair the root data of z against any Möbius-inverse pair of sequences.

    Given x_d for d | n, let z_d = sum of mu(d/d') x_{d'} (inverse Möbius
    transform).  Then both

    * sum_d m(n/d) z_d == sum_d e(d) x_d
    * sum_d p(n/d) z_d == sum_d (n/d) e(n/d) x_d

    are checked exactly.  Values may be rationals, polynomials or rational
    functions; every value is written over one common denominator, so both
    sides are polynomials and no gcd is needed.
    """
    X, Z, _ = _pairing_tables(z.n, x)
    return _mobius_pairing(z, X, Z)


def _pairing_tables(n: int, x: Mapping[int, object]):
    """(X, Z, D): x_d = X[d] / D and z_d = Z[d] / D for every d | n, with D the
    product of the distinct denominators of the x_d."""
    xf = {d: RationalFunctionQ.from_value(x[d]) for d in divisors(n)}
    D = math.prod(dict.fromkeys(f.den for f in xf.values()), start=ONE)
    X = {d: f.num * D.exact_div(f.den) for d, f in xf.items()}
    return X, mobius_inversion(n, X), D


def _mobius_pairing(z: ZetaProduct, X: Mapping[int, object], Z: Mapping[int, object]) -> Report:
    """The two pairing identities of :func:`check_mobius_pairing` on the
    numerators X and Z over their common denominator."""
    n = z.n
    divs = divisors(n)
    m = multiplicities(z)
    p = power_sums(z)
    e = z.e.values
    report = Report("mobius-pairing", context={"n": n})
    report.expect(
        _combine((m(n // d), Z[d].coeffs) for d in divs) == _combine((e[d], X[d].coeffs) for d in divs),
        identity="multiplicity-side",
    )
    report.expect(
        _combine((p(n // d), Z[d].coeffs) for d in divs)
        == _combine(((n // d) * e[n // d], X[d].coeffs) for d in divs),
        identity="power-sum-side",
    )
    return report


def pairing_preset(name: str, n: int) -> dict[int, object]:
    """Named substitutions: 'ones', 'necklace' (x_d = q**d), 'log-derivative'
    and 'ramanujan' (both x_d = d q**d / (q**d - 1))."""
    if name == "ones":
        return {d: 1 for d in divisors(n)}
    if name == "necklace":
        return {d: PolynomialQ.monomial(d) for d in divisors(n)}
    if name in ("log-derivative", "ramanujan"):
        # d q**d and q**d - 1 are coprime and the denominator is monic
        return {
            d: RationalFunctionQ(PolynomialQ.monomial(d, d), PolynomialQ.monomial(d) - 1, _normalized=True)
            for d in divisors(n)
        }
    raise ValueError(f"unknown pairing preset {name!r}")


def ramanujan_kernel(d: int) -> tuple[PolynomialQ, PolynomialQ]:
    """(sum of c_d(k) q**k for k = 1..d, q**d - 1) without reduction."""
    num = PolynomialQ([0] + [ramanujan_sum(d, k) for k in range(1, d + 1)])
    return num, PolynomialQ.monomial(d) - 1


@lru_cache(maxsize=128)
def _preset_tables(name: str, n: int):
    """(X, Z, D, kernels, outcomes) of a named preset at conductor n, shared
    by every product checked against it: the tables of
    :func:`_pairing_tables`; for each d | n, the kernel (num, den) that z_d
    should equal (none for 'ones'); and for each such d whether
    Z[d] * den == num * D.  That comparison reads these tables alone, so it
    is evaluated once per (name, n) and recorded for every product."""
    X, Z, D = _pairing_tables(n, pairing_preset(name, n))
    divs = divisors(n)
    if name == "log-derivative":
        kernels = {d: (Q * cyclotomic(d).derivative(), cyclotomic(d)) for d in divs}
    elif name == "ramanujan":
        kernels = {d: ramanujan_kernel(d) for d in divs}
    elif name == "necklace":
        kernels = {d: (d * necklace(d), ONE) for d in divs}
    else:
        kernels = {}
    outcomes = {d: Z[d] * kden == knum * D for d, (knum, kden) in kernels.items()}
    return X, Z, D, kernels, outcomes


def check_pairing_preset(z: ZetaProduct, name: str) -> Report:
    """Run :func:`check_mobius_pairing` on a preset substitution.

    For the log-derivative preset the inverse-Möbius sequence is verified to
    equal q Phi_d'(q) / Phi_d(q) for every d | n; for the Ramanujan preset it
    is verified to equal the Ramanujan-sum kernel over q**d - 1, and for the
    necklace preset to equal d times the necklace polynomial.  The tables,
    the kernels and each kernel comparison depend on (name, n) only, so
    they are evaluated once per such key (:func:`_preset_tables`); every
    product still records one instance per d, with that key's outcome.
    """
    X, Z, _, _, outcomes = _preset_tables(name, z.n)
    report = _mobius_pairing(z, X, Z)
    report.check = f"mobius-pairing[{name}]"
    label = "necklace kernel" if name == "necklace" else "kernel"
    for d, ok in outcomes.items():
        report.expect(ok, identity=f"{label} at d={d}")
    return report


@lru_cache(maxsize=128)
def _totient_tables(n: int, s: int) -> tuple[dict[int, object], dict[int, object]]:
    """(phi_{1-s}(d), phi_{-s}(d)) for every d | n at once: the Möbius
    inversions of d**(1-s) and d**(-s)."""
    return tuple(mobius_inversion(n, {d: rational_power(d, t) for d in divisors(n)}) for t in (1 - s, -s))


def check_totient_pairing(z: ZetaProduct, s_values) -> Report:
    """Dirichlet-exponent identities tying root data to the exponent vector.

    For each integer s the four finite rational identities

    * sum m(n/d) phi_{1-s}(d) == sum d e(d) / d**s
    * (1/n) sum p(n/d) phi_{1-s}(d) == sum e(n/d) / d**s
    * sum m(n/d) phi_{-s}(d) == sum e(d) / d**s
    * sum p(n/d) phi_{-s}(d) == sum (n/d) e(n/d) / d**s

    are evaluated exactly (phi_s is the Möbius-weighted power sum
    :func:`cyclozeta.arith.jordan_totient`).  The phi tables depend on
    (n, s) only and are built once per such key.
    """
    n = z.n
    divs = divisors(n)
    m = multiplicities(z)
    p = power_sums(z)
    report = Report("totient-pairing", context={"n": n, "s": list(s_values)})
    for s in s_values:
        phi_shifted, phi_plain = _totient_tables(n, s)
        checks = [
            (
                "m/shifted",
                sum(m(n // d) * phi_shifted[d] for d in divs),
                sum(d * z.e[d] * rational_power(d, -s) for d in divs),
            ),
            (
                "p/shifted",
                div_exact(sum(p(n // d) * phi_shifted[d] for d in divs), n),
                sum(z.e[n // d] * rational_power(d, -s) for d in divs),
            ),
            (
                "m/plain",
                sum(m(n // d) * phi_plain[d] for d in divs),
                sum(z.e[d] * rational_power(d, -s) for d in divs),
            ),
            (
                "p/plain",
                sum(p(n // d) * phi_plain[d] for d in divs),
                sum((n // d) * z.e[n // d] * rational_power(d, -s) for d in divs),
            ),
        ]
        for label, lhs, rhs in checks:
            report.expect(lhs == rhs, identity=label, s=s, lhs=lhs, rhs=rhs)
    return report


def check_fourier_pair_family(n: int, F: DivisorMap, s: int) -> Report:
    """The two-parameter family of Fourier pairs of even functions.

    f_s(k) = sum of F(d) / d**s over d | (k, n) must expand in Ramanujan sums
    with coefficients f'_{s+1}(n/d), where f'_t(k) = sum of F(n/d) / (n/d)**t
    over d | (k, n).  Checked for every residue k.
    """
    if F.n != n:
        raise ValueError("pair table must live on the divisors of n")
    divs = divisors(n)
    f_s = DivisorMap(n, divisor_sums(n, {d: F[d] * rational_power(d, -s) for d in divs}))
    prime_weights = {d: F[n // d] * rational_power(n // d, -(s + 1)) for d in divs}
    expansion = ramanujan_reconstruct(DivisorMap(n, divisor_sums(n, prime_weights)))
    report = Report("fourier-pair-family", context={"n": n, "s": s})
    for k in range(n):
        lhs, rhs = f_s(k), expansion(k)
        report.expect(lhs == rhs, k=k, lhs=lhs, rhs=rhs)
    return report
