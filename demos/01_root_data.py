"""Walk through the root data of one cyclotomic product.

The running example is the product (q^3 - 1) / (q - 1) = q^2 + q + 1, the
characteristic polynomial of a rank-two Coxeter transformation, encoded by
exponents e(1) = -1, e(3) = 1 on the divisors of the conductor n = 3.
"""

from cyclozeta import (
    ZetaProduct,
    dft_power_sums,
    gf_power_series,
    mobius_transform,
    multiplicities,
    power_sums,
    ramanujan_coefficients,
    ramanujan_reconstruct,
    saito_dual,
    saito_transform,
    star_functions,
    to_rational_function,
)

z = ZetaProduct(3, {1: -1, 3: 1})
print("product:        ", z.to_text())
print("as a function:  ", to_rational_function(z))
print("total roots mu_e:", z.mu_e)

# The multiplicity function m(k) records how often exp(2 pi i k / 3) occurs
# as a root; the power-sum function p(k) sums k-th powers of all roots.
m = multiplicities(z)
p = power_sums(z)
print("\nm(k) for k = 0, 1, 2:", list(m.residues()))
print("p(k) for k = 0, 1, 2:", list(p.residues()))
print("p equals the even-function Fourier transform of m:", dft_power_sums(m) == p)

# The Saito transform reindexes exponents by d -> n/d; applying it twice
# gives the original product back.
star = saito_transform(z)
print("\ntransform:", star.to_text())
print("dual:     ", saito_dual(z).to_text())
print("involution holds:", saito_transform(star) == z)
mstar, pstar = star_functions(z)
print("m*(k):", list(mstar.residues()), "  p*(k):", list(pstar.residues()))

# Every n-periodic gcd-dependent function expands uniquely in Ramanujan sums.
r = ramanujan_coefficients(m)
print("\nRamanujan coefficients of m:", [str(v) for v in r.residues()])
print("reconstruction returns m:", ramanujan_reconstruct(r) == m)

# The divisor partial fractions of the generating function of m.
a = mobius_transform(star.e)  # a(k) = sum of e(d) over d | (k, n)
report = gf_power_series(a, star.e)
print("\ngenerating-function identity:", report.status)
print("series form:", report.context["series_form"])
