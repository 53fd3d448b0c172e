"""Exact calculus of cyclotomic products.

Products of (q**d - 1)**e(d) over the divisors of a conductor carry the root
data of monodromy operators: multiplicities, power sums, Saito transforms,
Fourier expansions in Ramanujan sums, Dirichlet convolution identities,
eta-style infinite products, quasihomogeneous weight-system formulas and a
singularity catalog.  Everything is exact rational arithmetic; no floating
point anywhere.
"""

from .arith import (
    ArithmeticFunction,
    DivisorMap,
    divisors,
    euler_phi,
    inverse_mobius_transform,
    jordan_totient,
    mobius,
    mobius_transform,
    named_function,
    ramanujan_sum,
)
from .exactpoly import (
    PolynomialQ,
    PowerSeriesQ,
    RationalFunctionQ,
    cyclotomic,
    expand,
    log_derivative,
    necklace,
    tensor_product,
)
from .zetaprod import (
    ZetaProduct,
    dft_power_sums,
    gf_power_series,
    multiplicities,
    parse_zeta_product,
    partial_zeta,
    power_sums,
    ramanujan_coefficients,
    ramanujan_reconstruct,
    saito_dual,
    saito_transform,
    star_functions,
    to_rational_function,
)
from .dirichlet import (
    DirichletSeries,
    convolution_example,
    g_transforms,
    mobius_series,
    ps_g_transforms,
    unit_series,
    zeta_series,
)
from .apostol import apostol_bernoulli, apostol_euler, weighted_geometric_sum
from .etaprod import EtaExpansion, eta_log_derivative, lambert_series
from .weights import (
    SeifertData,
    WeightSystem,
    char_poly_from_seifert,
    m_gf_from_weights,
    p_gf_from_weights,
    spectral_gf,
)
from . import catalog
from .report import Report

__version__ = "0.1.0"
