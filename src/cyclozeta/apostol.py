"""Apostol-Bernoulli and Apostol-Euler polynomials over rational functions of q.

The two families are defined by exact power-series division in t:

    t e**(t x) / (q e**t - 1)  ->  B_r(x, q),  r! times the t**r coefficient
    2 e**(t x) / (q e**t + 1)  ->  E_r(x, q)

with coefficients in the rational-function field of q.  Both generating
functions are e**(t x) G(t), so both families are Appell sequences:

    P_r(x, q) = sum over k of binomial(r, k) P_k(0, q) x**(r - k),

and every x-coefficient follows by binomials from the constants
c_k = P_k(0, q) / k!, the t**k coefficients of G.  c_k is a polynomial over
(q - 1)**k for B and over (q + 1)**(k + 1) for E, so the recurrence for the
constants needs no polynomial division at all; the classes keep that
representation and reduce only when a coefficient is asked for.

q = 1 (B family) and q = -1 (E family) are poles; all identities below are
checked as rational-function identities after clearing those denominators,
so the poles are never evaluated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import as_exact, divisors, mobius_transform
from .exactpoly import PolynomialQ, RationalFunctionQ, _combine, binomial_product
from .report import Report
from .zetaprod import ZetaProduct, lambert_polynomial


def _base(family: str, exponent: int) -> PolynomialQ:
    """(q - 1)**exponent for the Bernoulli family, (q + 1)**exponent
    = ((q**2 - 1) / (q - 1))**exponent for the Euler family."""
    if family == "euler":
        return binomial_product([(2, exponent), (1, -exponent)])
    return binomial_product([(1, exponent)])


class ApostolPoly:
    """One polynomial of either family, exact in x and q."""

    __slots__ = ("family", "index", "den_power", "_nums")

    def __init__(self, family: str, index: int, den_power: int, nums: tuple[PolynomialQ, ...]):
        if family not in ("bernoulli", "euler"):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.index = index
        self.den_power = den_power
        self._nums = nums

    @property
    def x_degree(self) -> int:
        return len(self._nums) - 1

    @property
    def coefficients(self) -> tuple[RationalFunctionQ, ...]:
        """Reduced rational-function coefficients of x**0 .. x**deg."""
        den = _base(self.family, self.den_power)
        return tuple(RationalFunctionQ(num, den) for num in self._nums)

    def numerator(self, x0, power: int = 1) -> PolynomialQ:
        """The numerator at rational x = x0 with q -> q**power, unreduced, over
        the denominator (q**power -+ 1)**den_power exactly as stored."""
        x0 = as_exact(x0)
        num = PolynomialQ(_combine((x0**i, coeff_num.coeffs) for i, coeff_num in enumerate(self._nums)))
        if power != 1 and not num.is_zero:
            num = num.substitute_power(power)
        return num

    def __repr__(self):
        tag = "B" if self.family == "bernoulli" else "E"
        return f"ApostolPoly({tag}_{self.index}, x-degree {self.x_degree})"


@lru_cache(maxsize=None)
def _family_member(family: str, r: int) -> ApostolPoly:
    """P_r of one family, from its Appell constants.

    The constants c_j = P_j(0, q) / j! come from the division recurrence
    c_j = (N_j - sum D_i c_{j-i}) / D_0 for G = N / D, with N = t (B) or
    2 (E) and D = q e**t -+ 1, so D_0 is the base and D_i = q / i!.  Each c_j
    is held as a numerator C_j over base**(j + offset): dividing by D_0 only
    bumps that exponent, and N_j is nonzero only at j = 1 - offset, where the
    exponent is 0.  Over base**(r + offset), the numerator of x**(r - k) in
    P_r is then perm(r, k) C_k base**(r - k).
    """
    q = PolynomialQ.monomial(1)
    offset, numerator = (1, 2) if family == "euler" else (0, 1)
    cs: list[PolynomialQ] = []
    for j in range(r + 1):
        acc = PolynomialQ.constant(numerator if j == 1 - offset else 0)
        for i in range(1, j + 1):
            acc = acc - cs[j - i] * (q * _base(family, i - 1) * Fraction(1, math.factorial(i)))
        cs.append(acc)
    nums = [cs[r - d] * math.perm(r, r - d) * _base(family, d) for d in range(r + 1)]
    while nums and nums[-1].is_zero:
        nums.pop()
    return ApostolPoly(family, r, (r + offset) if nums else 0, tuple(nums))


def apostol_bernoulli(r: int) -> ApostolPoly:
    """B_r(x, q); B_0 is identically zero and B_1 = 1/(q - 1)."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    return _family_member("bernoulli", r)


def apostol_euler(r: int) -> ApostolPoly:
    """E_r(x, q); E_0 = 2/(q + 1)."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    return _family_member("euler", r)


# ---------------------------------------------------------------------------
# closed forms for weighted geometric sums


def _closed_form(b: int, c: int, r: int, count: int, alternating: bool, power: int = 1) -> PolynomialQ:
    """sum((b i + c)**r (-+q**power)**i, i < count) times the family base
    (q**power -+ 1)**(r+1), telescoped from x0 = c/b to x0 + count through
    q B_{r+1}(x+1, q) - B_{r+1}(x, q) = (r+1) x**r (plain) or through
    q E_r(x+1, q) + E_r(x, q) = 2 x**r (alternating, which puts a plus on
    the constant Euler term)."""
    x0 = Fraction(c, b)
    if alternating:
        sign, P, scale = -1, apostol_euler(r), Fraction(b**r, 2)
    else:
        sign, P, scale = 1, apostol_bernoulli(r + 1), Fraction(b**r, r + 1)
    top = PolynomialQ.monomial(power * count, sign ** (count - 1))
    return scale * (top * P.numerator(x0 + count, power) - sign * P.numerator(x0, power))


def weighted_geometric_sum(n: int, b: int, c: int, r: int, alternating: bool = False) -> Report:
    """Check :func:`_closed_form` of sum((b i + c)**r (-+q)**i, i = 0..n)
    against the dense sum cleared by (q -+ 1)**(r+1)."""
    if b < 1 or r < 0 or n < 0:
        raise ValueError("need b >= 1, r >= 0, n >= 0")
    report = Report(
        "weighted-geometric-sum",
        context={"n": n, "b": b, "c": c, "r": r, "alternating": alternating},
    )
    sign = -1 if alternating else 1
    lhs = PolynomialQ([sign**i * (b * i + c) ** r for i in range(n + 1)])
    rhs = _closed_form(b, c, r, n + 1, alternating)
    cleared = lhs * _base("euler" if alternating else "bernoulli", r + 1)
    report.expect(cleared == rhs, lhs=cleared, rhs=rhs)
    return report


@lru_cache(maxsize=128)
def _weighted_sum_blocks(n: int, b: int, c: int, r: int):
    """The parts of identities 2 and 3 below that do not depend on e.

    Returns (blocks2, blocks3, clear2, clear3): for each d | n the cleared
    block that e(d) scales in the right-hand side of identity 2 and of
    identity 3, and the multipliers (q**n - 1)**(r+1) and
    (q**(2n) - 1)**(r+1) that clear the left-hand sides.  Every random
    product checked at (n, b, c, r) shares them.
    """
    blocks2, blocks3 = {}, {}
    for d in divisors(n):
        # one Bernoulli block per divisor: all of identity 2, the even divisors of identity 3
        bernoulli = _closed_form(b * d, c, r, n // d, False, d)
        blocks2[d] = bernoulli * binomial_product([(n, r + 1), (d, -r - 1)])
        if d % 2:
            # odd divisors alternate within their block: (-q)**(d i) = (-q**d)**i
            euler = _closed_form(b * d, c, r, n // d, True, d)
            blocks3[d] = euler * binomial_product([(d, r + 1), (2 * n, r + 1), (2 * d, -r - 1)])
        else:
            blocks3[d] = bernoulli * binomial_product([(2 * n, r + 1), (d, -r - 1)])
    return blocks2, blocks3, binomial_product([(n, r + 1)]), binomial_product([(2 * n, r + 1)])


def check_weighted_sum_identities(z: ZetaProduct, b: int, c: int, r: int) -> Report:
    """The three power-weighted generating identities for a(k) = sum e(d), d | (k, n).

    1. partial fractions: sum a(k) q**k over a period equals the divisor
       geometric combination of the exponents (the r-independent identity);
    2. sum a(k)(bk+c)**r q**k written through Apostol-Bernoulli values at
       q**d, cleared by (q**n - 1)**(r+1);
    3. the (-q)**k variant, odd divisors carrying Apostol-Euler blocks and
       even divisors Apostol-Bernoulli blocks, cleared by (q**(2n) - 1)**(r+1).

    All three are exact polynomial comparisons after clearing.  The right
    sides of 2 and 3 are e-weighted sums of blocks built once per
    (n, b, c, r); the left sides come from a, so the two sides stay
    independent.
    """
    if b < 1 or r < 0:
        raise ValueError("need b >= 1 and r >= 0")
    n = z.n
    a = mobius_transform(z.e)
    report = Report("weighted-sums", context={"n": n, "b": b, "c": c, "r": r})

    lhs1 = PolynomialQ(a.residues())
    rhs1 = lambert_polynomial(n, z.e)
    report.expect(lhs1 == rhs1, identity="partial-fractions", lhs=lhs1, rhs=rhs1)

    blocks2, blocks3, clear2, clear3 = _weighted_sum_blocks(n, b, c, r)
    lhs2 = PolynomialQ([a(k) * (b * k + c) ** r for k in range(n)])
    lhs3 = PolynomialQ([a(k) * (b * k + c) ** r * (-1) ** k for k in range(n)])
    rhs2 = PolynomialQ(_combine((ed, blocks2[d].coeffs) for d, ed in z.e.items()))
    rhs3 = PolynomialQ(_combine((ed, blocks3[d].coeffs) for d, ed in z.e.items()))
    report.expect(lhs2 * clear2 == rhs2, identity="power-weighted", divisor_block="all")
    report.expect(lhs3 * clear3 == rhs3, identity="alternating", divisor_block="all")
    return report
