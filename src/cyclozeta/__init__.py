"""Exact calculus of cyclotomic products.

Products of (q**d - 1)**e(d) over the divisors of a conductor carry the root
data of monodromy operators: multiplicities, power sums, Saito transforms,
Fourier expansions in Ramanujan sums, Dirichlet convolution identities,
eta-style infinite products, quasihomogeneous weight-system formulas and a
singularity catalog.  Everything is exact rational arithmetic; no floating
point anywhere.

Each public name below is imported from its submodule on first use, so
``import cyclozeta`` loads nothing else and a command line run loads only
the submodules it needs.
"""

import importlib

# public name -> the submodule that defines it; ``catalog`` is a submodule
_EXPORTS = {
    **dict.fromkeys(
        (
            "ArithmeticFunction",
            "DivisorMap",
            "divisors",
            "euler_phi",
            "inverse_mobius_transform",
            "jordan_totient",
            "mobius",
            "mobius_transform",
            "named_function",
            "ramanujan_sum",
        ),
        "arith",
    ),
    **dict.fromkeys(
        (
            "PolynomialQ",
            "PowerSeriesQ",
            "RationalFunctionQ",
            "cyclotomic",
            "expand",
            "log_derivative",
            "necklace",
            "tensor_product",
        ),
        "exactpoly",
    ),
    **dict.fromkeys(
        (
            "ZetaProduct",
            "dft_power_sums",
            "gf_power_series",
            "multiplicities",
            "parse_zeta_product",
            "partial_zeta",
            "power_sums",
            "ramanujan_coefficients",
            "ramanujan_reconstruct",
            "saito_dual",
            "saito_transform",
            "star_functions",
            "to_rational_function",
        ),
        "zetaprod",
    ),
    **dict.fromkeys(
        (
            "DirichletSeries",
            "convolution_example",
            "g_transforms",
            "mobius_series",
            "ps_g_transforms",
            "unit_series",
            "zeta_series",
        ),
        "dirichlet",
    ),
    **dict.fromkeys(("apostol_bernoulli", "apostol_euler", "weighted_geometric_sum"), "apostol"),
    **dict.fromkeys(("EtaExpansion", "eta_log_derivative", "lambert_series"), "etaprod"),
    **dict.fromkeys(
        (
            "SeifertData",
            "WeightSystem",
            "char_poly_from_seifert",
            "m_gf_from_weights",
            "p_gf_from_weights",
            "spectral_gf",
        ),
        "weights",
    ),
    "catalog": "catalog",
    "Report": "report",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
