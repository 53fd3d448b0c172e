"""Acceptance gate: every contract criterion at its stated size and tolerance.

All arithmetic is exact, so "tolerance" everywhere means equality of
rationals; the only numeric tolerances are the wall-clock budgets.  Each test
prints one PASS line (visible with ``pytest -s``); a failure raises before
the line is printed.
"""

import subprocess
import sys
import time

from cyclozeta.arith import named_function
from cyclozeta.catalog import a_family, expected_anomalies, get as catalog_get, verify_all
from cyclozeta.dirichlet import zeta_series, g_transforms
from cyclozeta.etaprod import eta_log_derivative
from cyclozeta.exactpoly import PolynomialQ
from cyclozeta.verify import (
    SuiteConfig,
    suite_catalog,
    suite_cyclotomic,
    suite_dirichlet,
    suite_eta,
    suite_examples,
    suite_fourier,
    suite_pairings,
    suite_root_data,
    suite_tensor,
    suite_weighted_sums,
    suite_weights,
)
from cyclozeta.weights import (
    SeifertData,
    WeightSystem,
    char_poly_from_seifert,
    m_line_from_weights,
    p_line_from_weights,
    spectral_gf,
    spectral_mod,
)
from cyclozeta.zetaprod import ZetaProduct, star_functions

CFG = SuiteConfig(seed=42, nmax=60, order=200)


def _announce(slug, detail=""):
    print(f"ACCEPTANCE {slug}: PASS {detail}".rstrip())


def test_cyclotomic_identities_to_sixty():
    """Divisor products of cyclotomics rebuild q**n - 1 for every n <= 60."""
    t0 = time.monotonic()
    rep = suite_cyclotomic(CFG)
    elapsed = time.monotonic() - t0
    assert rep.status == "pass", rep.to_dict()
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    _announce("cyclotomic-products", f"(n<=60, {elapsed:.1f}s)")


def test_root_data_coherence_sweep():
    """100 seeded products per conductor: factorization exponents equal the
    multiplicity function and power sums equal its Fourier transform."""
    rep = suite_root_data(CFG)
    assert rep.status == "pass", rep.to_dict()
    _announce("root-data-coherence", "(100 x n<=60, exact)")


def test_fourier_roundtrip_sweep():
    """Ramanujan expansion and reconstruction invert each other exactly,
    50 random even functions per conductor."""
    rep = suite_fourier(CFG)
    assert rep.status == "pass", rep.to_dict()
    _announce("fourier-roundtrip", "(50 x n<=60, exact)")


def test_tensor_powers_by_resultants():
    """Iterated root-product powers of q**d - 1 for d <= 4, k <= 3."""
    rep = suite_tensor(CFG)
    assert rep.status == "pass", rep.to_dict()
    _announce("tensor-powers", "(d<=4, k<=3, exact)")


def test_weighted_sum_identities():
    """All three power-weighted closed forms, n in {6, 12}, r <= 4,
    (b, c) in {(1,0), (2,3)}, 10 seeded exponent vectors each."""
    t0 = time.monotonic()
    rep = suite_weighted_sums(CFG)
    elapsed = time.monotonic() - t0
    assert rep.status == "pass", rep.to_dict()
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
    _announce("weighted-sums", f"({elapsed:.1f}s)")


def test_mobius_pairing_instantiations():
    """Totient points s in -2..3 plus the necklace, log-derivative and
    Ramanujan-kernel substitutions, n in {6, 12, 30}, 20 seeded vectors."""
    rep = suite_pairings(CFG)
    assert rep.status == "pass", rep.to_dict()
    _announce("mobius-pairings", "(n in {6,12,30}, 20 seeded)")


def test_dirichlet_transfer_and_examples():
    """Star-series and transfer identities plus all twelve convolution
    examples to order 200, including the hand-checked rank-two instance."""
    rep = suite_dirichlet(CFG)
    assert rep.status == "pass", rep.to_dict()
    rep = suite_examples(CFG)
    assert rep.status == "pass", rep.to_dict()
    # hand instance, spelled out
    a2 = ZetaProduct(3, {1: -1, 3: 1})
    phi = named_function("euler_phi")
    _, pstar = star_functions(a2)
    m3 = 3 * g_transforms(a2, zeta_series(10)).m.coefficient(3)
    assert m3 == 0 == phi(3) * pstar(1) + phi(1) * pstar(3)
    _announce("dirichlet-transfer-and-examples", "(order 200, exact)")


def test_eta_expansion_forms():
    """Direct expansion equals the negated divisor Lambert combination and
    both multiplicity-weighted forms, order 100, on every catalog entry;
    exactly one sign flag overall."""
    rep = suite_eta(CFG)
    assert rep.status == "flagged", rep.to_dict()
    assert len(rep.flags) == 1
    for name in ("A_2", "E_8", "J_10", "E_12"):
        z = catalog_get(name).zeta_product()
        exp = eta_log_derivative(z, 100)
        assert exp.series == -exp.lambert_form, name
        assert exp.series == exp.cyclotomic_form == exp.ramanujan_form, name
    _announce("eta-expansion", "(order 100, one sign flag)")


def test_weight_system_cross_checks():
    """The cubic-cone system reproduces the parabolic catalog lines and its
    spectral data; assembled lines are Fourier-consistent."""
    w = WeightSystem(1, 1, 1, 3)
    spec = spectral_gf(w)
    assert spec == PolynomialQ([1, 3, 3, 1])
    assert sum(spec.coeffs) == 8
    assert spectral_mod(w) == PolynomialQ([2, 3, 3])
    p8 = catalog_get("P_8")
    assert {d: v for d, v in m_line_from_weights(w).items() if v} == p8.m_line
    assert {d: v for d, v in p_line_from_weights(w).items() if v} == p8.p_line
    rep = suite_weights(CFG)
    assert rep.status == "pass", rep.to_dict()
    _announce("weight-systems", "(parabolic cross-check, exact)")


def test_seifert_exceptional_cross_check():
    """Seifert data {g=0, (2,3,5)} over (15,10,6;30) yields the stored
    exceptional exponent vector exactly."""
    _, z = char_poly_from_seifert(
        WeightSystem(15, 10, 6, 30), SeifertData(0, ((2, 1), (3, 1), (5, 1)))
    )
    assert z == catalog_get("E_8").zeta_product()
    _announce("seifert-cross-check", "(exact)")


def test_catalog_verification():
    """Every entry is internally consistent except the two recorded
    anomalies; simple entries reproduce their root-exponent multisets."""
    t0 = time.monotonic()
    reports = verify_all()
    elapsed = time.monotonic() - t0
    flagged = sorted(r.context["name"] for r in reports if r.status == "flagged")
    assert not [r for r in reports if r.status == "fail"]
    assert flagged == sorted(expected_anomalies()) == ["J_10", "X_9"]
    for l in range(1, 13):
        m = a_family(l).m_even()
        vals = [m(k) for k in range(l + 1)]
        assert vals == [0] + [1] * l, l
    e8 = catalog_get("E_8").m_even()
    assert [k for k in range(30) if e8(k)] == [1, 7, 11, 13, 17, 19, 23, 29]
    assert all(e8(k) in (0, 1) for k in range(30))
    rep = suite_catalog(CFG)
    assert rep.status == "flagged" and len(rep.flags) == 2
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    _announce("catalog", f"(2 known anomalies, {elapsed:.1f}s)")


def test_full_verification_run_is_deterministic():
    """The complete seeded run passes with exactly three flags, finishes
    inside five minutes, and repeats byte-identically."""
    cmd = [sys.executable, "-m", "cyclozeta.cli", "verify", "all", "--seed", "42"]
    t0 = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    assert first.returncode == 0, first.stdout + first.stderr
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
    assert "status: pass  flags: 3  failures: 0" in first.stdout
    second = subprocess.run(cmd, capture_output=True, text=True)
    assert second.returncode == 0
    assert second.stdout == first.stdout, "seeded run is not reproducible"
    _announce("full-verification", f"(pass + 3 flags, {elapsed:.1f}s)")
