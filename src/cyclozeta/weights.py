"""Quasihomogeneous three-variable weight systems and Seifert invariants.

A weight system (a, b, c; n) determines a spectral generating function

    q**(-n) (q**n - q**a)(q**n - q**b)(q**n - q**c)
            / ((q**a - 1)(q**b - 1)(q**c - 1))

which is a polynomial with nonnegative integer coefficients exactly when the
system is regular; its coefficient sum is the local multiplicity
(n-a)(n-b)(n-c)/(abc).  The module also assembles the eight-term divisor
expansions of the root-multiplicity and power-sum generating functions from
the weights, their finite Dirichlet forms, and the characteristic rational
function attached to Seifert data {g, (alpha_i, beta_i)}; each of these is
handed back as an exponent vector on the divisors of n so the rest of the
package can analyze it.

beta_i are stored but inert: the displayed formulas use only g, r and those
alpha_i dividing n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import DivisorMap, as_exact, canonical_int, divisors, mobius_transform, rational_power
from .exactpoly import PolynomialQ, RationalFunctionQ, binomial_product
from .report import Report
from .zetaprod import (
    ZetaProduct,
    dft_power_sums,
    lambert_form,
    lambert_polynomial,
    multiplicities,
    power_sums,
    to_rational_function,
)


def _number(token: str, minimum: int = 1) -> int:
    # canonical ASCII decimal, as every input grammar reads it; whitespace around, not inside
    value = canonical_int(token.strip(), minimum)
    if value is None:
        raise ValueError(f"expected a number in canonical decimal form, got {token.strip()!r}")
    return value


class NonRegularWeightSystem(ValueError):
    """The spectral quotient failed to be a polynomial."""


@dataclass(frozen=True)
class WeightSystem:
    a: int
    b: int
    c: int
    n: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.n) < 1:
            raise ValueError("weights and degree must be positive")

    @classmethod
    def parse(cls, text: str) -> "WeightSystem":
        """Parse the ``a,b,c;n`` form."""
        head, _, deg = text.partition(";")
        parts = head.split(",")
        if len(parts) != 3 or not deg:
            raise ValueError(f"expected 'a,b,c;n', got {text!r}")
        a, b, c = (_number(p) for p in parts)
        return cls(a, b, c, _number(deg))

    def __str__(self):
        return f"{self.a},{self.b},{self.c};{self.n}"


@dataclass(frozen=True)
class SeifertData:
    genus: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.genus < 0:
            raise ValueError("genus must be nonnegative")
        for alpha, beta in self.pairs:
            if alpha < 1 or beta < 1:
                raise ValueError("Seifert pair entries must be positive")

    @property
    def r(self) -> int:
        return len(self.pairs)

    @property
    def alphas(self) -> tuple[int, ...]:
        return tuple(alpha for alpha, _ in self.pairs)

    @classmethod
    def parse(cls, text: str) -> "SeifertData":
        """Parse the ``g; a1/b1,a2/b2,...`` form."""
        head, _, tail = text.partition(";")
        genus = _number(head, minimum=0)
        pairs = []
        if tail.strip():
            for chunk in tail.split(","):
                alpha, _, beta = chunk.partition("/")
                pairs.append((_number(alpha), _number(beta)))
        return cls(genus, tuple(pairs))

    def __str__(self):
        return f"{self.genus}; " + ",".join(f"{a}/{b}" for a, b in self.pairs)


def milnor_number(w: WeightSystem) -> Fraction:
    return Fraction((w.n - w.a) * (w.n - w.b) * (w.n - w.c), w.a * w.b * w.c)


def spectral_gf(w: WeightSystem) -> PolynomialQ:
    """The spectral generating function, checked to be a genuine polynomial.

    Raises :class:`NonRegularWeightSystem` when the quotient has a remainder
    or produces a negative or fractional coefficient.
    """
    qn = PolynomialQ.monomial(w.n)
    num = (qn - PolynomialQ.monomial(w.a)) * (qn - PolynomialQ.monomial(w.b)) * (
        qn - PolynomialQ.monomial(w.c)
    )
    den = qn * binomial_product([(w.a, 1), (w.b, 1), (w.c, 1)])
    quo, rem = divmod(num, den)
    if not rem.is_zero:
        raise NonRegularWeightSystem(f"({w}) spectral quotient has a remainder")
    if any(not isinstance(cf, int) or cf < 0 for cf in quo.coeffs):
        raise NonRegularWeightSystem(f"({w}) spectral coefficients are not nonnegative integers")
    return quo


def spectral_mod(w: WeightSystem) -> PolynomialQ:
    """Spectral generating function reduced mod q**n - 1."""
    _, rem = divmod(spectral_gf(w), PolynomialQ.monomial(w.n) - 1)
    return rem


def m_line_from_weights(w: WeightSystem) -> DivisorMap:
    """Coefficients of 1/(q**d - 1) in the multiplicity generating function.

    All eight displayed terms land on divisors of n (gcds with n), so the
    result is a genuine divisor map; the coefficient at d equals the product
    exponent e(n/d).
    """
    a, b, c, n = w.a, w.b, w.c, w.n
    coeff: dict[int, object] = {d: 0 for d in divisors(n)}
    coeff[1] += Fraction(n * n, a * b * c)
    coeff[n] += -1
    for wt in (a, b, c):
        g = math.gcd(wt, n)
        coeff[g] += Fraction(g, wt)
    for wt1, wt2 in ((b, c), (a, c), (a, b)):
        g = math.gcd(math.gcd(wt1, wt2), n)
        coeff[g] -= Fraction(n * g, wt1 * wt2)
    return DivisorMap(n, coeff)


def p_line_from_weights(w: WeightSystem) -> DivisorMap:
    """Coefficients of 1/(q**d - 1) in the power-sum generating function."""
    a, b, c, n = w.a, w.b, w.c, w.n
    coeff: dict[int, object] = {d: 0 for d in divisors(n)}
    coeff[n] += Fraction(n**3, a * b * c)
    coeff[1] += -1
    for wt in (a, b, c):
        g = math.gcd(wt, n)
        coeff[n // g] += Fraction(n, wt)
    for wt1, wt2 in ((b, c), (a, c), (a, b)):
        g = math.gcd(math.gcd(wt1, wt2), n)
        coeff[n // g] -= Fraction(n * n, wt1 * wt2)
    return DivisorMap(n, coeff)


def m_gf_from_weights(w: WeightSystem) -> tuple[RationalFunctionQ, DivisorMap]:
    """(sum of v(d) / (q**d - 1), v) for the m-line v; the sum is minus the
    Lambert form of the even function the line generates."""
    line = m_line_from_weights(w)
    return -lambert_form(mobius_transform(line)), line


def p_gf_from_weights(w: WeightSystem) -> RationalFunctionQ:
    """sum of v(d) / (q**d - 1) for the power-sum line v of
    :func:`p_line_from_weights`."""
    return -lambert_form(mobius_transform(p_line_from_weights(w)))


def m_dirichlet_from_weights(w: WeightSystem, s: int):
    """The finite Dirichlet form of the multiplicity series at integer s."""
    a, b, c, n = w.a, w.b, w.c, w.n
    total = Fraction(n * n, a * b * c) - rational_power(n, -s)
    for wt in (a, b, c):
        g = math.gcd(wt, n)
        total += Fraction(1, wt) * rational_power(g, 1 - s)
    for wt1, wt2 in ((b, c), (a, c), (a, b)):
        g = math.gcd(math.gcd(wt1, wt2), n)
        total -= Fraction(n, wt1 * wt2) * rational_power(g, 1 - s)
    return as_exact(total)


def p_dirichlet_from_weights(w: WeightSystem, s: int):
    """The finite Dirichlet form of the power-sum series at integer s."""
    a, b, c, n = w.a, w.b, w.c, w.n
    total = Fraction(1, a * b * c) * rational_power(n, 3 - s) - 1
    for wt in (a, b, c):
        g = math.gcd(wt, n)
        total += Fraction(1, wt) * rational_power(g, s) * rational_power(n, 1 - s)
    for wt1, wt2 in ((b, c), (a, c), (a, b)):
        g = math.gcd(math.gcd(wt1, wt2), n)
        total -= Fraction(1, wt1 * wt2) * rational_power(g, s) * rational_power(n, 2 - s)
    return as_exact(total)


def check_weight_consistency(w: WeightSystem) -> Report:
    """Internal coherence of all the weight-derived data.

    Checks: spectral polynomial coefficient sum and degree, palindromic
    coefficients, reduction mod q**n - 1 against the m-line, the Fourier
    pairing p = DFT(m), the exponent relation p-coefficient(d) = d e(d), and
    both finite Dirichlet forms against the divisor expansions at
    s = -1, ..., 3.
    """
    report = Report("weight-system", context={"weights": str(w)})
    n = w.n
    try:
        spec = spectral_gf(w)
    except NonRegularWeightSystem as exc:
        report.expect(False, error=str(exc))
        return report
    total, mu = sum(spec.coeffs), milnor_number(w)
    report.expect(total == mu, identity="multiplicity-sum", lhs=total, rhs=mu)
    degree = 2 * n - w.a - w.b - w.c
    report.expect(spec.is_zero or spec.degree == degree, identity="degree", lhs=spec.degree, rhs=degree)
    # reciprocity: the spectral function satisfies P(1/q) = q**(-n) P(q),
    # i.e. exponents pair up as m <-> n - m
    for k in range(n + 1):
        if not report.expect(spec.coefficient(k) == spec.coefficient(n - k), identity="reciprocity", k=k):
            break

    m_line = m_line_from_weights(w)
    p_line = p_line_from_weights(w)
    m_even, p_even = mobius_transform(m_line), mobius_transform(p_line)
    reduced = spectral_mod(w)
    from_m = PolynomialQ(m_even.residues())
    report.expect(reduced == from_m, identity="spectral-mod", lhs=reduced, rhs=from_m)
    report.expect(dft_power_sums(m_even) == p_even, identity="fourier-pairing")
    for d in divisors(n):
        report.expect(p_line[d] == d * m_line[n // d], identity="exponent-relation", d=d)
    for s in range(-1, 4):
        lhs = m_dirichlet_from_weights(w, s)
        rhs = sum(v * rational_power(d, -s) for d, v in m_line.items())
        report.expect(lhs == rhs, identity="m-dirichlet", s=s, lhs=lhs, rhs=rhs)
        lhs = p_dirichlet_from_weights(w, s)
        rhs = sum(v * rational_power(d, -s) for d, v in p_line.items())
        report.expect(lhs == rhs, identity="p-dirichlet", s=s, lhs=lhs, rhs=rhs)
    return report


# ---------------------------------------------------------------------------
# Seifert data


def char_poly_from_seifert(w: WeightSystem, sd: SeifertData) -> tuple[RationalFunctionQ, ZetaProduct]:
    """Characteristic rational function from Seifert invariants.

    (1 - q**n)**(2g - 2 + r) times (1 - q**(n/d)) over d | n, d in {a, b, c},
    divided by (1 - q) and by (1 - q**(n/alpha_i)) over alpha_i | n.  Returns
    the function together with its exponent vector on the divisors of n.
    As (1 - q**d)**e = (-1)**e (q**d - 1)**e, the function is the reduced
    form of that vector, negated when its exponent sum mu_e is odd.
    """
    n = w.n
    expo: dict[int, int] = {d: 0 for d in divisors(n)}
    expo[n] += 2 * sd.genus - 2 + sd.r
    for d in sorted({w.a, w.b, w.c}):
        if n % d == 0:
            expo[n // d] += 1
    expo[1] -= 1
    for alpha in sd.alphas:
        if n % alpha == 0:
            expo[n // alpha] -= 1
    z = ZetaProduct(n, expo)
    rf = to_rational_function(z)
    return (-rf if z.mu_e % 2 else rf), z


def check_seifert_lines(w: WeightSystem, sd: SeifertData) -> Report:
    """The four displayed generating forms for Seifert data.

    The multiplicity and power-sum lines are rebuilt from g, r, {a, b, c}
    and the alpha_i, cleared against the exponent vector of
    :func:`char_poly_from_seifert`, and the two finite Dirichlet forms are
    evaluated at s = 0, 1, 2.
    """
    n = w.n
    _, z = char_poly_from_seifert(w, sd)
    gr = 2 * sd.genus - 2 + sd.r
    report = Report("seifert-lines", context={"weights": str(w), "seifert": str(sd)})

    # the signed divisors of the displayed forms: +d for each distinct weight
    # d | n, -alpha for each alpha_i | n, and -n
    signed = [(d, 1) for d in sorted({w.a, w.b, w.c}) if n % d == 0]
    signed += [(alpha, -1) for alpha in sd.alphas if n % alpha == 0] + [(n, -1)]
    m_coeff: dict[int, object] = {d: 0 for d in divisors(n)}
    p_coeff: dict[int, object] = {d: 0 for d in divisors(n)}
    m_coeff[1] += gr
    p_coeff[n] += n * gr
    for d, sign in signed:
        m_coeff[d] += sign
        p_coeff[n // d] += sign * (n // d)

    m_poly = PolynomialQ(multiplicities(z).residues())
    p_poly = PolynomialQ(power_sums(z).residues())
    rhs_m = lambert_polynomial(n, m_coeff)
    rhs_p = lambert_polynomial(n, p_coeff)
    report.expect(m_poly == rhs_m, identity="m-line", lhs=m_poly, rhs=rhs_m)
    report.expect(p_poly == rhs_p, identity="p-line", lhs=p_poly, rhs=rhs_p)

    for s in range(3):
        lhs = sum(z.e[n // d] * rational_power(d, -s) for d in divisors(n))
        rhs = gr + sum(sign * rational_power(d, -s) for d, sign in signed)
        report.expect(lhs == rhs, identity="m-dirichlet", s=s, lhs=lhs, rhs=rhs)
        lhs = rational_power(n, s - 1) * sum(
            d * z.e[d] * rational_power(d, -s) for d in divisors(n)
        )
        rhs = gr + sum(sign * rational_power(d, s - 1) for d, sign in signed)
        report.expect(lhs == rhs, identity="p-dirichlet", s=s, lhs=lhs, rhs=rhs)
    return report
