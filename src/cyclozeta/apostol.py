"""Apostol-Bernoulli and Apostol-Euler polynomials over rational functions of q.

The two families are defined by exact power-series division in t:

    t e**(t x) / (q e**t - 1)  ->  B_r(x, q),  r! times the t**r coefficient
    2 e**(t x) / (q e**t + 1)  ->  E_r(x, q)

with coefficients in the rational-function field of q.  Every x-coefficient
of B_r is a polynomial over (q - 1)**r and of E_r over (q + 1)**(r + 1), so
the recurrence needs no polynomial division at all; the classes keep that
representation and reduce only when a coefficient is asked for.

q = 1 (B family) and q = -1 (E family) are poles; all identities below are
checked as rational-function identities after clearing those denominators,
so the poles are never evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .arith import as_exact, mobius_transform
from .exactpoly import (
    ZERO,
    PolynomialQ,
    RationalFunctionQ,
    geometric,
)
from .report import Report
from .zetaprod import ZetaProduct, lambert_polynomial


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
    def _base(self) -> PolynomialQ:
        # (q - 1) for the Bernoulli family, (q + 1) for the Euler family
        return PolynomialQ([-1, 1]) if self.family == "bernoulli" else PolynomialQ([1, 1])

    @property
    def x_degree(self) -> int:
        return len(self._nums) - 1

    @property
    def coefficients(self) -> tuple[RationalFunctionQ, ...]:
        """Reduced rational-function coefficients of x**0 .. x**deg."""
        den = self._base**self.den_power
        return tuple(RationalFunctionQ(num, den) for num in self._nums)

    def evaluate_pair(self, x0, power: int = 1) -> tuple[PolynomialQ, PolynomialQ]:
        """(numerator, denominator) at rational x = x0 with q -> q**power, unreduced.

        The denominator is (q**power -+ 1)**den_power exactly as stored.
        """
        x0 = as_exact(x0)
        num = ZERO
        xp = 1
        for coeff_num in self._nums:
            if not coeff_num.is_zero and xp:
                num = num + coeff_num * xp
            xp = xp * x0
        if power != 1 and not num.is_zero:
            num = num.substitute_power(power)
        base = PolynomialQ.monomial(power) + (-1 if self.family == "bernoulli" else 1)
        return num, base**self.den_power

    def evaluate(self, x0, power: int = 1) -> RationalFunctionQ:
        num, den = self.evaluate_pair(x0, power)
        return RationalFunctionQ(num, den)

    def __repr__(self):
        tag = "B" if self.family == "bernoulli" else "E"
        return f"ApostolPoly({tag}_{self.index}, x-degree {self.x_degree})"


@lru_cache(maxsize=None)
def _family_table(family: str, upto: int) -> tuple[ApostolPoly, ...]:
    """The polynomials of one family up to the given index.

    The t-series quotient is computed by the standard division recurrence
    c_j = (N_j - sum D_i c_{j-i}) / D_0 with every c_j held as x-coefficient
    numerators over base**(j + offset); since D_0 is exactly the base factor,
    the division only bumps the denominator exponent.
    """
    euler = family == "euler"
    base = PolynomialQ([1, 1]) if euler else PolynomialQ([-1, 1])
    q_poly = PolynomialQ.monomial(1)
    offset = 1 if euler else 0
    factorial = [1] * (upto + 2)
    for i in range(1, upto + 2):
        factorial[i] = factorial[i - 1] * i

    def numerator_term(j: int) -> tuple[int, Fraction]:
        # (x-power, scalar) of the t**j coefficient of the numerator series
        if euler:
            return j, Fraction(2, factorial[j])
        if j == 0:
            return 0, Fraction(0)
        return j - 1, Fraction(1, factorial[j - 1])

    cs: list[list[PolynomialQ]] = []
    for j in range(upto + 1):
        common = j + offset - 1  # denominator exponent of the pre-division sum
        xpow, scalar = numerator_term(j)
        acc: list[PolynomialQ] = [ZERO] * (xpow + 1)
        if scalar:
            acc[xpow] = PolynomialQ.constant(scalar) * base ** max(common, 0)
        for i in range(1, j + 1):
            prev = cs[j - i]
            if not prev:
                continue
            factor = q_poly * Fraction(1, factorial[i]) * base ** (i - 1)
            if len(acc) < len(prev):
                acc.extend([ZERO] * (len(prev) - len(acc)))
            for xdeg, num in enumerate(prev):
                if not num.is_zero:
                    acc[xdeg] = acc[xdeg] - factor * num
        while acc and acc[-1].is_zero:
            acc.pop()
        cs.append(acc)

    polys = []
    for j, nums in enumerate(cs):
        scaled = tuple(num * factorial[j] for num in nums)
        polys.append(ApostolPoly(family, j, (j + offset) if scaled else 0, scaled))
    return tuple(polys)


def apostol_bernoulli(r: int) -> ApostolPoly:
    """B_r(x, q); B_0 is identically zero and B_1 = 1/(q - 1)."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    return _family_table("bernoulli", r)[r]


def apostol_euler(r: int) -> ApostolPoly:
    """E_r(x, q); E_0 = 2/(q + 1)."""
    if r < 0:
        raise ValueError("index must be nonnegative")
    return _family_table("euler", r)[r]


# ---------------------------------------------------------------------------
# closed forms for weighted geometric sums


def weighted_geometric_sum(n: int, b: int, c: int, r: int, alternating: bool = False) -> Report:
    """Check the closed form of sum((b i + c)**r q**i, i = 0..n) exactly.

    Plain version against (b**r/(r+1)) (q**(n+1) B_{r+1}(c/b + n + 1, q)
    - B_{r+1}(c/b, q)).  The alternating version telescopes through
    q E_r(x+1, q) + E_r(x, q) = 2 x**r, giving

        (b**r/2) ((-1)**n q**(n+1) E_r(c/b + n + 1, q) + E_r(c/b, q))

    with a plus on the constant Euler term.  Compared after clearing
    (q -+ 1)**(r+1).
    """
    if b < 1 or r < 0 or n < 0:
        raise ValueError("need b >= 1, r >= 0, n >= 0")
    x1 = Fraction(c, b) + n + 1
    x0 = Fraction(c, b)
    report = Report(
        "weighted-geometric-sum",
        context={"n": n, "b": b, "c": c, "r": r, "alternating": alternating},
    )
    if not alternating:
        lhs = PolynomialQ([(b * i + c) ** r for i in range(n + 1)])
        B = apostol_bernoulli(r + 1)
        num1, den = B.evaluate_pair(x1)
        num0, _ = B.evaluate_pair(x0)
        rhs = Fraction(b**r, r + 1) * (PolynomialQ.monomial(n + 1) * num1 - num0)
        if lhs * den != rhs:
            report.fail(lhs=str(lhs), rhs_cleared=str(rhs))
    else:
        lhs = PolynomialQ([(-1) ** i * (b * i + c) ** r for i in range(n + 1)])
        E = apostol_euler(r)
        num1, den = E.evaluate_pair(x1)
        num0, _ = E.evaluate_pair(x0)
        rhs = Fraction(b**r, 2) * ((-1) ** n * PolynomialQ.monomial(n + 1) * num1 + num0)
        if lhs * den != rhs:
            report.fail(lhs=str(lhs), rhs_cleared=str(rhs))
    return report


def check_weighted_sum_identities(z: ZetaProduct, b: int, c: int, r: int) -> Report:
    """The three power-weighted generating identities for a(k) = sum e(d), d | (k, n).

    1. partial fractions: sum a(k) q**k over a period equals the divisor
       geometric combination of the exponents (the r-independent identity);
    2. sum a(k)(bk+c)**r q**k written through Apostol-Bernoulli values at
       q**d, cleared by (q**n - 1)**(r+1);
    3. the (-q)**k variant, odd divisors carrying Apostol-Euler blocks and
       even divisors Apostol-Bernoulli blocks, cleared by (q**(2n) - 1)**(r+1).

    All three are exact polynomial comparisons after clearing.
    """
    if b < 1 or r < 0:
        raise ValueError("need b >= 1 and r >= 0")
    n = z.n
    a = mobius_transform(z.e)
    report = Report("weighted-sums", context={"n": n, "b": b, "c": c, "r": r})

    lhs1 = PolynomialQ(a.residues())
    rhs1 = lambert_polynomial(n, z.e)
    if lhs1 != rhs1:
        report.fail(identity="partial-fractions", lhs=str(lhs1), rhs=str(rhs1))

    B = apostol_bernoulli(r + 1)
    lhs2 = PolynomialQ([a(k) * (b * k + c) ** r for k in range(n)])
    master2 = (PolynomialQ.monomial(n) - 1) ** (r + 1)
    rhs2 = ZERO
    for d, ed in z.e.items():
        if not ed:
            continue
        num1, _ = B.evaluate_pair(Fraction(c + b * n, b * d), power=d)
        num0, _ = B.evaluate_pair(Fraction(c, b * d), power=d)
        block = PolynomialQ.monomial(n) * num1 - num0
        clear = geometric(d, n) ** (r + 1)
        rhs2 = rhs2 + Fraction(ed * (b * d) ** r, r + 1) * block * clear
    if lhs2 * master2 != rhs2:
        report.fail(identity="power-weighted", divisor_block="all")

    E = apostol_euler(r)
    lhs3 = PolynomialQ([a(k) * (b * k + c) ** r * (-1) ** k for k in range(n)])
    master3 = (PolynomialQ.monomial(2 * n) - 1) ** (r + 1)
    rhs3 = ZERO
    for d, ed in z.e.items():
        if not ed:
            continue
        x1 = Fraction(c + b * n, b * d)
        x0 = Fraction(c, b * d)
        if d % 2:
            # odd divisors alternate within their block; the telescoped Euler
            # closed form has a plus on the constant term
            num1, _ = E.evaluate_pair(x1, power=d)
            num0, _ = E.evaluate_pair(x0, power=d)
            sign = (-1) ** (n // d - 1)
            block = sign * PolynomialQ.monomial(n) * num1 + num0
            clear = ((PolynomialQ.monomial(d) - 1) * geometric(2 * d, 2 * n)) ** (r + 1)
            rhs3 = rhs3 + Fraction(ed * (b * d) ** r, 2) * block * clear
        else:
            num1, _ = B.evaluate_pair(x1, power=d)
            num0, _ = B.evaluate_pair(x0, power=d)
            block = PolynomialQ.monomial(n) * num1 - num0
            clear = geometric(d, 2 * n) ** (r + 1)
            rhs3 = rhs3 + Fraction(ed * (b * d) ** r, r + 1) * block * clear
    if lhs3 * master3 != rhs3:
        report.fail(identity="alternating", divisor_block="all")
    return report
