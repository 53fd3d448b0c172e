"""Exact univariate algebra in q: polynomials, rational functions, series.

Coefficients are ints or ``fractions.Fraction``, made exact by the
constructors alone (:func:`cyclozeta.arith.exact_values`), so integral values
are stored as ints; the list kernels leave that to them.  Polynomials are
dense tuples with trailing zeros stripped (the zero polynomial is the empty
tuple).  Rational functions are kept reduced with a monic denominator.
Power series and ``dirichlet.DirichletSeries`` share one truncated-series
container: truncated hard at their stated order, mixed-order arithmetic
truncates to the minimum rather than extending precision.
Every product of binomials (q**c - 1)**a, a of either sign, is built in
one place, :func:`binomial_product`; products of cyclotomic powers
(:func:`cyclotomic_product`, :func:`cyclotomic`) are such products by the
Möbius formula.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Sequence

from .arith import as_exact, div_exact, divisors, exact_values, mobius


class ExactDivisionError(ArithmeticError):
    """Polynomial division left a remainder where none was allowed."""


# ---------------------------------------------------------------------------
# raw dense-list kernels


def _trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _combine(terms: Iterable[tuple[object, Sequence]], order: int | None = None) -> list:
    """The sum of c * cs over the (exact number c, coefficient sequence cs)
    pairs, as one list, with no container per term or partial sum.

    Each row c * cs (cs itself when c == 1) is added into the prefix of the
    sum with one slice assignment, as in :func:`_mul`, and its part past the
    end is appended.  Without ``order`` the rows are polynomials and the sum
    is trimmed; with it they are truncated series, each row is cut to
    ``order`` and the sum has exactly ``order`` coefficients (zeros when no
    c is non-zero).  Two-term sums keep the loops below: on small operands
    they are faster.
    """
    out = []
    for c, cs in terms:
        if c:
            if order is not None and len(cs) > order:
                cs = cs[:order]
            row = cs if c == 1 else [ci * c for ci in cs]
            if len(row) <= len(out):
                out[: len(row)] = map(add, out, row)
            else:
                out = [*map(add, out, row), *row[len(out) :]]
    if order is None:
        return _trim(out)
    out += [0] * (order - len(out))
    return out


def _add(a: Sequence, b: Sequence) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _neg(a: Sequence) -> list:
    return [-c for c in a]


def _row_cost(cs: Sequence) -> int:
    """The work of ``cs`` as the outer factor of :func:`_mul`: one row per
    non-zero coefficient, and a scaled copy of the row for each one that is
    not 1."""
    return 2 * (len(cs) - cs.count(0)) - cs.count(1)


def _mul(a: Sequence, b: Sequence, limit: int | None = None) -> list:
    """Dense product; with ``limit``, only the coefficients below q**limit.

    The one schoolbook product loop: polynomials and truncated series both
    multiply here.  Each non-zero coefficient ``ai`` of the outer factor adds
    the other factor, times ``ai``, into ``out[i:]`` with one slice
    assignment, so the inner loop runs in C; the outer factor is the one
    with the cheaper rows (:func:`_row_cost`).
    """
    if not a or not b:
        return []
    size = len(a) + len(b) - 1 if limit is None else limit
    if _row_cost(b) < _row_cost(a):
        a, b = b, a
    out = [0] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            end = min(size, i + len(b))
            out[i:end] = map(add, out[i:end], b if ai == 1 else map(mul, b, repeat(ai)))
    return _trim(out)


def _scale(a: Sequence, c) -> list:
    if not c:
        return []
    return _trim([ai * c for ai in a])


def _divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    if len(r) <= db:
        return [], _trim(r)
    q = [0] * (len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = div_exact(c, lb)
            q[i - db] = c
            r[i] = 0
            for j in range(db):
                r[i - db + j] -= c * b[j]
    return _trim(q), _trim(r)


def _pow(a: Sequence, k: int) -> list:
    if k < 0:
        raise ValueError("negative polynomial power")
    out = [1]
    base = list(a)
    while k:
        if k & 1:
            out = _mul(out, base)
        k >>= 1
        if k:
            base = _mul(base, base)
    return out


class PolynomialQ:
    """Dense polynomial in q with exact rational coefficients.

    ``coeffs[i]`` is the coefficient of q**i; trailing zeros are stripped and
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = tuple(_trim(exact_values(coeffs)))

    @classmethod
    def constant(cls, c) -> "PolynomialQ":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c=1) -> "PolynomialQ":
        return cls([0] * k + [c])

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def valuation(self) -> int:
        """Index of the lowest nonzero coefficient (0 for the zero polynomial)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return 0

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, PolynomialQ):
            return other
        if isinstance(other, (int, Fraction)):
            return PolynomialQ.constant(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PolynomialQ(_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PolynomialQ(_add(self.coeffs, _neg(o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PolynomialQ(_add(o.coeffs, _neg(self.coeffs)))

    def __neg__(self):
        return PolynomialQ(_neg(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, PolynomialQ):
            return PolynomialQ(_mul(self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return PolynomialQ(_scale(self.coeffs, as_exact(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return PolynomialQ(_pow(self.coeffs, k))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        q, r = _divmod(self.coeffs, o.coeffs)
        return PolynomialQ(q), PolynomialQ(r)

    def exact_div(self, other) -> "PolynomialQ":
        """Divide exactly; raise :class:`ExactDivisionError` on a remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return q

    def derivative(self) -> "PolynomialQ":
        return PolynomialQ([i * c for i, c in enumerate(self.coeffs)][1:])

    def substitute_power(self, m: int) -> "PolynomialQ":
        """q -> q**m."""
        if m < 1:
            raise ValueError("substitute_power: need m >= 1")
        if self.is_zero or m == 1:
            return self
        out = [0] * (self.degree * m + 1)
        for i, c in enumerate(self.coeffs):
            if c:
                out[i * m] = c
        return PolynomialQ(out)

    def __call__(self, x):
        """Exact evaluation by Horner's rule."""
        x = as_exact(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return as_exact(acc)

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, PolynomialQ):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == PolynomialQ.constant(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if i == 0:
                body = f"{mag}"
            else:
                var = "q" if i == 1 else f"q^{i}"
                body = var if mag == 1 else (f"{mag}*{var}" if isinstance(mag, Fraction) else f"{mag}{var}")
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"PolynomialQ({self})"


ZERO = PolynomialQ()
ONE = PolynomialQ.constant(1)
Q = PolynomialQ.monomial(1)


# ---------------------------------------------------------------------------
# gcd over the rationals (primitive remainder sequence on integer clears)


def _int_clear(cs: Sequence) -> list[int]:
    """Scale exact coefficients to integers and divide out the content."""
    den = math.lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    g = math.gcd(*ints)
    return [c // g for c in ints] if g > 1 else ints


def poly_gcd(a: PolynomialQ, b: PolynomialQ) -> PolynomialQ:
    """Monic greatest common divisor, via a primitive PRS over the integers:
    each pseudo-remainder, lc(B)**(deg A - deg B + 1) A mod B, is taken by
    :func:`_divmod` (every quotient coefficient is then an integer) and
    cleared to a primitive integer list."""
    if a.is_zero and b.is_zero:
        return ZERO
    if a.is_zero:
        return _make_monic(b)
    if b.is_zero:
        return _make_monic(a)
    A, B = _int_clear(a.coeffs), _int_clear(b.coeffs)
    while B:
        scale = B[-1] ** max(len(A) - len(B) + 1, 0)
        A, B = B, _int_clear(_divmod([c * scale for c in A], B)[1])
    return _make_monic(PolynomialQ(A))


def _make_monic(p: PolynomialQ) -> PolynomialQ:
    if p.is_zero or p.is_monic:
        return p
    inv = div_exact(1, p.leading)
    return p * inv


# ---------------------------------------------------------------------------
# rational functions


class RationalFunctionQ:
    """Quotient of two polynomials in lowest terms with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE, *, _normalized=False):
        if not isinstance(num, PolynomialQ):
            num = PolynomialQ.constant(num) if isinstance(num, (int, Fraction)) else num
        if not isinstance(den, PolynomialQ):
            den = PolynomialQ.constant(den) if isinstance(den, (int, Fraction)) else den
        if not isinstance(num, PolynomialQ) or not isinstance(den, PolynomialQ):
            raise TypeError("RationalFunctionQ needs polynomial or rational arguments")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        if not _normalized:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            if not den.is_monic:
                inv = div_exact(1, den.leading)
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_value(cls, x) -> "RationalFunctionQ":
        if isinstance(x, RationalFunctionQ):
            return x
        if isinstance(x, PolynomialQ):
            return cls(x, ONE, _normalized=True)
        return cls(PolynomialQ.constant(x), ONE, _normalized=True)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == ONE

    def _coerce(self, other):
        if isinstance(other, RationalFunctionQ):
            return other
        if isinstance(other, (PolynomialQ, int, Fraction)):
            return RationalFunctionQ.from_value(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunctionQ(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunctionQ(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RationalFunctionQ(-self.num, self.den, _normalized=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunctionQ(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunctionQ(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k >= 0:
            return RationalFunctionQ(self.num**k, self.den**k, _normalized=True)
        if self.is_zero:
            raise ZeroDivisionError("negative power of zero")
        return RationalFunctionQ(self.den ** (-k), self.num ** (-k))

    def derivative(self) -> "RationalFunctionQ":
        return RationalFunctionQ(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x):
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at q = {x}")
        return div_exact(self.num(x), d)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RationalFunctionQ({self})"


def log_derivative(f) -> RationalFunctionQ:
    """q f'(q) / f(q), reduced; additive over products."""
    f = RationalFunctionQ.from_value(f)
    if f.is_zero:
        raise ValueError("log_derivative of the zero function")
    num = Q * (f.num.derivative() * f.den - f.num * f.den.derivative())
    return RationalFunctionQ(num, f.num * f.den)


# ---------------------------------------------------------------------------
# truncated series


class _TruncatedSeries:
    """Exact coefficients of a series truncated at a fixed order: the one
    container of :class:`PowerSeriesQ` and ``dirichlet.DirichletSeries``.

    ``coeffs[0]`` is the coefficient at the class's index ``first`` (q**0,
    or 1**(-s)); the order is the number of coefficients.  Sums and
    differences truncate to the smaller order; a scalar adds at
    ``coeffs[0]``, the unit of both kinds' products.  Each kind multiplies
    two series in its own ``__mul__``; a series of the other kind is refused
    by exact type.
    """

    __slots__ = ("coeffs",)
    first = 0

    def __init__(self, coeffs: Iterable):
        cs = tuple(exact_values(coeffs))
        if not cs:
            raise ValueError(f"{type(self).__name__} needs at least one coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int):
        if not 0 <= k - self.first < self.order:
            raise IndexError(f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k - self.first]

    def truncate(self, order: int):
        if not 1 <= order <= self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} to order {order}")
        return type(self)(self.coeffs[:order])

    def __add__(self, other):
        if type(other) is type(self):
            return type(self)(map(add, self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return type(self)((self.coeffs[0] + other, *self.coeffs[1:]))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return type(self)(map(neg, self.coeffs))

    def __sub__(self, other):
        if type(other) is type(self):
            return type(self)(map(sub, self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The scalar product; a subclass's ``__mul__`` defers to it for
        anything but a series of its own kind."""
        if isinstance(other, (int, Fraction)):
            return type(self)([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"{type(self).__name__}([{head}{tail}], order={self.order})"


class PowerSeriesQ(_TruncatedSeries):
    """Power series truncated at a fixed order: coefficients of q^0..q^(order-1).

    With ``order``, the coefficients are cut or padded with zeros to it.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = list(coeffs)
        if order is not None:
            if order < 1:
                raise ValueError("PowerSeriesQ: order must be at least 1")
            cs += [0] * (order - len(cs))
        super().__init__(cs)
        # cut only now, so values past the order are checked for exactness too
        self.coeffs = self.coeffs[:order]

    def __mul__(self, other):
        if type(other) is not PowerSeriesQ:
            return super().__mul__(other)
        n = min(self.order, other.order)
        return PowerSeriesQ(_mul(self.coeffs, other.coeffs, n), n)


def expand_fraction(num: PolynomialQ, den: PolynomialQ, order: int) -> PowerSeriesQ:
    """Maclaurin expansion of num/den (no reduction required of the pair)."""
    dc = den.coeffs
    nc = num.coeffs
    if not dc or dc[0] == 0:
        raise ValueError("expand: denominator vanishes at q = 0")
    d0 = dc[0]
    out = [0] * order
    for k in range(order):
        acc = nc[k] if k < len(nc) else 0
        top = min(k, len(dc) - 1)
        for j in range(1, top + 1):
            c = dc[j]
            if c:
                acc -= c * out[k - j]
        out[k] = div_exact(acc, d0)
    return PowerSeriesQ(out, order)


def expand(f, order: int) -> PowerSeriesQ:
    """First ``order`` Maclaurin coefficients of a rational function, exactly."""
    f = RationalFunctionQ.from_value(f)
    return expand_fraction(f.num, f.den, order)


# ---------------------------------------------------------------------------
# cyclotomic and necklace polynomials


def binomial_product(pairs: Iterable[tuple[int, int]], start: PolynomialQ | None = None) -> PolynomialQ:
    """The product of (q**c - 1)**a over the pairs (c, a), a of either sign,
    times the polynomial ``start`` (1 when it is None), as for ``math.prod``.

    The exponents of a repeated c add up first, so (c, a) and (c, -a) cancel.
    Each binomial multiplies by one shift-and-subtract; only after every
    multiplication, each divides by the prefix sums along the residue classes
    mod c.  A remainder raises :class:`ExactDivisionError`.
    """
    a: dict[int, int] = {}
    for c, k in pairs:
        if c < 1:
            raise ValueError(f"binomial_product: need c >= 1, got {c}")
        a[c] = a.get(c, 0) + k
    out = [1] if start is None else list(start.coeffs)
    for c, ac in a.items():
        for _ in range(ac):
            out = list(map(sub, [0] * c + out, out + [0] * c))
    for c, ac in a.items():
        for _ in range(-ac):
            # out = (q**c - 1) quo: quo[i] = quo[i - c] - out[i]
            sums = [0] * len(out)
            for r in range(c):
                sums[r::c] = accumulate(out[r::c])
            if any(sums[-c:]):
                raise ExactDivisionError(f"{PolynomialQ(out)} is not divisible by q^{c} - 1")
            out = list(map(neg, sums[:-c]))
    return PolynomialQ(out)


def cyclotomic_product(exponents: Mapping[int, int], start: PolynomialQ | None = None) -> PolynomialQ:
    """The product of Phi_d**k over the items (d, k) of ``exponents``, times
    the polynomial ``start`` (1 when it is None).

    Phi_d is the product of (q**c - 1)**mu(d/c) over c | d, so this is the
    :func:`binomial_product` of the pairs (c, mu(d/c) k).  A negative k
    means exact division of ``start`` by Phi_d**(-k); a remainder raises
    :class:`ExactDivisionError`.  Without ``start`` a negative k always
    raises: the Phi_d are coprime, so none divides the others' product.
    """
    return binomial_product(((c, mobius(d // c) * k) for d, k in exponents.items() for c in divisors(d)), start)


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> PolynomialQ:
    """n-th cyclotomic polynomial, by the Möbius product over q**d - 1."""
    return cyclotomic_product({n: 1})


@lru_cache(maxsize=None)
def necklace(d: int) -> PolynomialQ:
    """Necklace polynomial (1/d) * sum of mu(d/d') q**d' over d' | d."""
    if d < 1:
        raise ValueError(f"necklace: need a positive integer, got {d}")
    acc = ZERO
    for dp in divisors(d):
        mu = mobius(d // dp)
        if mu:
            acc = acc + PolynomialQ.monomial(dp, mu)
    return acc * Fraction(1, d)


# ---------------------------------------------------------------------------
# tensor product of polynomials through power sums: the roots of f (x) g are
# the products of a root of f and a root of g, so p_k(f (x) g) = p_k(f) p_k(g)


def _power_sums(cs: Sequence, count: int) -> list:
    """[0, p_1, ..., p_count] for the roots of the polynomial ``cs``, by Newton's identities."""
    m = len(cs) - 1
    a = [div_exact(cs[m - i], cs[m]) for i in range(m + 1)]  # monic, high to low
    p = [0] * (count + 1)
    for k in range(1, count + 1):
        acc = k * a[k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc += a[i] * p[k - i]
        p[k] = -acc
    return p


def _from_power_sums(p: list) -> list:
    """The monic polynomial of degree len(p) - 1 with power sums p[1], p[2], ...; p[0] is unused."""
    n = len(p) - 1
    b = [1] + [0] * n  # high to low
    for k in range(1, n + 1):
        acc = p[k]
        for i in range(1, k):
            acc += b[i] * p[k - i]
        b[k] = div_exact(-acc, k)
    return b[::-1]


def tensor_product(f: PolynomialQ, g: PolynomialQ) -> PolynomialQ:
    """Polynomial whose roots are the pairwise products of the roots of f and g.

    The result has degree deg(f) * deg(g).  It is monic when f and g are
    both monic.  Otherwise it is the resultant in t of t**deg(f) f(q/t) and
    g(t), which is (-1)**((m - s) l) lc(g)**(m - s) lc(f)**l times the monic
    product, with m = deg f, l = deg g and s the valuation of f.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("tensor_product: zero polynomial has no root data")
    m, l = f.degree, g.degree
    pf, pg = _power_sums(f.coeffs, m * l), _power_sums(g.coeffs, m * l)
    cs = _from_power_sums([a * b for a, b in zip(pf, pg)])
    if not (f.is_monic and g.is_monic):
        t = m - f.valuation()
        scale = (-1) ** (t * l) * g.leading**t * f.leading**l
        cs = [c * scale for c in cs]
    return PolynomialQ(cs)
