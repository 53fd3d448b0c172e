"""Weight systems, spectral polynomials and Seifert characteristic functions."""

import math
import random
import re
from dataclasses import replace

import pytest

from cyclozeta import catalog
from cyclozeta.arith import divisors, mobius_transform
from cyclozeta.catalog import get as catalog_get
from cyclozeta.exactpoly import ONE, PolynomialQ, RationalFunctionQ
from cyclozeta.weights import (
    NonRegularWeightSystem,
    SeifertData,
    WeightSystem,
    char_poly_from_seifert,
    check_seifert_lines,
    check_weight_consistency,
    m_dirichlet_from_weights,
    m_gf_from_weights,
    m_line_from_weights,
    p_gf_from_weights,
    milnor_number,
    p_dirichlet_from_weights,
    p_line_from_weights,
    spectral_gf,
    spectral_mod,
)
from cyclozeta.verify import SuiteConfig, suite_weights
from cyclozeta.zetaprod import dft_power_sums


class TestSpectral:
    def test_cubic_cone(self):
        w = WeightSystem(1, 1, 1, 3)
        spec = spectral_gf(w)
        assert spec == PolynomialQ([1, 3, 3, 1])
        assert sum(spec.coeffs) == 8 == milnor_number(w)
        assert spec.degree == 3
        assert spectral_mod(w) == PolynomialQ([2, 3, 3])

    def test_exceptional_exponents(self):
        spec = spectral_gf(WeightSystem(15, 10, 6, 30))
        assert [k for k, c in enumerate(spec.coeffs) if c] == [1, 7, 11, 13, 17, 19, 23, 29]
        assert all(c in (0, 1) for c in spec.coeffs)

    def test_non_regular_rejected(self):
        with pytest.raises(NonRegularWeightSystem):
            spectral_gf(WeightSystem(2, 3, 5, 10))

    def test_smooth_degenerate(self):
        w = WeightSystem(1, 1, 1, 1)
        assert spectral_gf(w).is_zero
        assert milnor_number(w) == 0


class TestDivisorLines:
    def test_cubic_cone_lines(self):
        w = WeightSystem(1, 1, 1, 3)
        rf, line = m_gf_from_weights(w)
        assert line.values == {1: 3, 3: -1}
        assert p_line_from_weights(w).values == {1: -1, 3: 9}
        # assembled rational function = (sum of m(k) q**k) / (q**3 - 1)
        want = RationalFunctionQ(PolynomialQ([2, 3, 3]), PolynomialQ.monomial(3) - 1)
        assert rf == want
        # the power line assembled term by term: -1/(q - 1) + 9/(q**3 - 1)
        q = PolynomialQ.monomial(1)
        assert p_gf_from_weights(w) == RationalFunctionQ(-1, q - 1) + RationalFunctionQ(9, q**3 - 1)

    def test_parabolic_matches_catalog(self):
        for text, name in (("1,1,1;3", "P_8"), ("1,1,2;4", "X_9"), ("1,2,3;6", "J_10")):
            w = WeightSystem.parse(text)
            line = {d: v for d, v in m_line_from_weights(w).items() if v}
            assert line == catalog_get(name).m_line, name

    def test_suite_reports_a_corrupted_parabolic_line(self, monkeypatch):
        # the weight-systems suite is the one place that compares P_8's
        # stored m-line with the (1,1,1;3) weights
        corrupted = tuple(
            replace(e, m_line={**e.m_line, 1: e.m_line[1] + 1}) if e.name == "P_8" else e
            for e in catalog.entries()
        )
        monkeypatch.setattr(catalog, "entries", lambda: corrupted)
        rep = suite_weights(SuiteConfig(seed=42, nmax=60, order=200))
        assert rep.status == "fail"
        assert {"check": "weights-vs-catalog", "identity": "m-line", "name": "P_8"} in rep.mismatches

    def test_exceptional_weight_lines(self):
        line = {d: v for d, v in m_line_from_weights(WeightSystem(15, 10, 6, 30)).items() if v}
        assert line == catalog_get("E_8").m_line
        line = {d: v for d, v in m_line_from_weights(WeightSystem(6, 4, 3, 12)).items() if v}
        assert line == catalog_get("E_6").m_line

    def test_fourier_consistency(self):
        for text in ("1,1,1;3", "1,1,2;4", "15,10,6;30", "6,4,3;12"):
            w = WeightSystem.parse(text)
            m = mobius_transform(m_line_from_weights(w))
            p = mobius_transform(p_line_from_weights(w))
            assert dft_power_sums(m) == p, text

    def test_dirichlet_forms(self):
        from cyclozeta.arith import rational_power

        w = WeightSystem(1, 1, 2, 4)
        m_line = m_line_from_weights(w)
        p_line = p_line_from_weights(w)
        for s in (-2, -1, 0, 1, 2, 3):
            assert m_dirichlet_from_weights(w, s) == sum(
                v * rational_power(d, -s) for d, v in m_line.items()
            )
            assert p_dirichlet_from_weights(w, s) == sum(
                v * rational_power(d, -s) for d, v in p_line.items()
            )

    def test_consistency_sweep(self):
        for text in ("1,1,1;3", "1,1,2;4", "1,2,3;6", "15,10,6;30", "6,4,3;12", "1,2,2;4", "1,1,1;2", "1,1,1;1"):
            rep = check_weight_consistency(WeightSystem.parse(text))
            assert rep.status == "pass", (text, rep.to_dict())

    def test_non_regular_reported(self):
        assert check_weight_consistency(WeightSystem(2, 3, 5, 10)).status == "fail"


class TestParsing:
    def test_weight_round_trip(self):
        w = WeightSystem.parse(" 15, 10, 6 ; 30 ")
        assert w == WeightSystem(15, 10, 6, 30)
        assert str(w) == "15,10,6;30"
        with pytest.raises(ValueError):
            WeightSystem.parse("1,2;6")

    def test_seifert_round_trip(self):
        sd = SeifertData.parse("0; 2/1,3/1,5/1")
        assert sd.genus == 0 and sd.alphas == (2, 3, 5) and sd.r == 3
        assert SeifertData.parse("2;").pairs == ()

    @pytest.mark.parametrize("text, token", [
        ("+1,1,\u0663;0_3", "+1"),
        ("1,1,\u0663;3", "\u0663"),
        ("1,1,3;0_3", "0_3"),
        ("1 5,10,6;30", "1 5"),
        ("01,1,1;3", "01"),
        ("1,1,1;-3", "-3"),
    ])
    def test_weights_refuse_a_number_in_another_spelling(self, text, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            WeightSystem.parse(text)

    @pytest.mark.parametrize("text, token", [
        ("00; 02/+1", "00"),
        ("0; 02/1", "02"),
        ("0; 2/+1", "+1"),
        ("-0; 2/1", "-0"),
        ("1; 2 3/1", "2 3"),
        ("0; \uff12/1", "\uff12"),
        ("0; 2/1,", ""),
    ])
    def test_seifert_data_refuse_a_number_in_another_spelling(self, text, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            SeifertData.parse(text)


class TestSeifert:
    def test_exceptional_root_system(self):
        w = WeightSystem(15, 10, 6, 30)
        sd = SeifertData(0, ((2, 1), (3, 1), (5, 1)))
        rf, z = char_poly_from_seifert(w, sd)
        assert z == catalog_get("E_8").zeta_product()
        # the same function written with (q**d - 1) factors: even number of flips
        from cyclozeta.zetaprod import to_rational_function

        assert rf == to_rational_function(z)
        assert check_seifert_lines(w, sd).status == "pass"

    def test_skeleton(self):
        w = WeightSystem(7, 11, 13, 5)
        sd = SeifertData(0, ())
        rf, z = char_poly_from_seifert(w, sd)
        assert z.e.values == {1: -1, 5: -2}
        q = PolynomialQ.monomial(1)
        assert rf == RationalFunctionQ(ONE, (ONE - q) * (ONE - PolynomialQ.monomial(5)) ** 2)
        assert check_seifert_lines(w, sd).status == "pass"

    def test_equals_the_reduced_dense_product_of_one_minus_q_powers(self):
        """On random Seifert data, against the written-out product of
        (1 - q**d)**e(d), reduced by a gcd; both parities of mu_e occur."""
        rng = random.Random(37)
        parities = set()
        for _ in range(40):
            n = rng.choice([6, 10, 12, 20, 30])
            w = WeightSystem(*(rng.choice((*divisors(n), 7)) for _ in range(3)), n)
            pairs = tuple((rng.choice((*divisors(n), 4, 9)), rng.randint(1, 5)) for _ in range(rng.randint(0, 4)))
            rf, z = char_poly_from_seifert(w, SeifertData(rng.randint(0, 2), pairs))
            powers = [(ONE - PolynomialQ.monomial(d), k) for d, k in z.e.items()]
            num = math.prod((f**k for f, k in powers if k > 0), start=ONE)
            den = math.prod((f**-k for f, k in powers if k < 0), start=ONE)
            assert rf == RationalFunctionQ(num, den), (w, pairs)
            parities.add(z.mu_e % 2)
        assert parities == {0, 1}

    def test_betas_are_inert(self):
        w = WeightSystem(15, 10, 6, 30)
        z1 = char_poly_from_seifert(w, SeifertData(0, ((2, 1), (3, 1), (5, 1))))[1]
        z2 = char_poly_from_seifert(w, SeifertData(0, ((2, 7), (3, 2), (5, 4))))[1]
        assert z1 == z2
