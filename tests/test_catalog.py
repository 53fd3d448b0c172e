"""The singularity catalog: lookups, consistency, duality pairing."""

import pytest

from cyclozeta.catalog import (
    CatalogEntry,
    a_family,
    coxeter_exponents,
    d_family,
    entries,
    expected_anomalies,
    get,
    saito_dual_pairs,
    verify_all,
    verify_entry,
    walked_entries,
)
from cyclozeta.exactpoly import PolynomialQ
from cyclozeta.zetaprod import saito_transform


class TestLookup:
    def test_fixed_entries(self):
        assert len(entries()) == 20
        e8 = get("E8")
        assert e8.n == 30
        assert e8.m_line == {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 10: 1, 15: 1, 30: -1}
        assert get("Q_12").p_line == {1: -1, 3: 3, 5: -5, 15: 15}

    def test_families(self):
        a2 = get("A_2")
        assert a2.n == 3 and a2.m_line == {1: 1, 3: -1} and a2.p_line == {1: -1, 3: 3}
        assert get("A_5").name == "A_5"
        d5 = d_family(5)
        assert d5.n == 8 and d5.m_line == {1: 1, 2: -1, 4: 1, 8: -1}
        # colliding divisors merge: D_3 = A_3
        assert get("D_3").m_line == get("A_3").m_line
        assert get("D_3").p_line == get("A_3").p_line
        with pytest.raises(ValueError):
            d_family(2)

    def test_unknown(self):
        with pytest.raises(KeyError):
            get("B_2")

    @pytest.mark.parametrize("name", ["A_03", "A_\u0663", "D_007", "A_0", "D_\uff11\uff12", "A_1 2"])
    def test_family_rank_only_in_canonical_ascii_decimal(self, name):
        with pytest.raises(KeyError):
            get(name)

    def test_note_on_symbolic_coefficient(self):
        assert "symbolic" in get("S_12").note


class TestConsistency:
    def test_exactly_two_anomalies(self):
        reports = verify_all()
        failed = [r for r in reports if r.status == "fail"]
        assert not failed, [r.to_dict() for r in failed]
        flagged = sorted(r.context["name"] for r in reports if r.status == "flagged")
        assert flagged == sorted(expected_anomalies()) == ["J_10", "X_9"]
        assert sum(len(r.flags) for r in reports) == 2

    def test_every_entry_walked_once_fixed_then_families(self):
        names = [entry.name for entry in walked_entries()]
        families = [f"A_{l}" for l in range(1, 13)] + [f"D_{l}" for l in range(3, 13)]
        assert names == [entry.name for entry in entries()] + families
        assert [r.context["name"] for r in verify_all()] == names

    def test_x9_flag_names_the_sign(self):
        rep = verify_entry(get("X_9"))
        assert rep.status == "flagged"
        assert "-2/(1-q^2)" in rep.flags[0] and "2/(1-q^2)" in rep.flags[0]

    def test_j10_flag_names_the_exponent(self):
        rep = verify_entry(get("J_10"))
        assert rep.status == "flagged"
        assert "4 does not divide 6" in rep.flags[0]
        assert "d=3" in rep.flags[0]

    def test_an_m_line_exponent_off_the_divisors_fails_naming_it(self):
        rep = verify_entry(CatalogEntry("bad", 6, {1: 1, 4: 1}, {}, "test"))
        assert rep.status == "fail" and rep.checks == 1
        assert rep.mismatches == [{"identity": "m-line divides n", "exponents": [4]}]

    def test_rank_four_expansion(self):
        a4 = get("A_4")
        m = a4.m_even()
        assert PolynomialQ([m(k) for k in range(5)]) == PolynomialQ([0, 1, 1, 1, 1])

    def test_simple_families_are_root_counts(self):
        """A-entries expand to 0/1 vectors with exactly rank ones."""
        for l in range(1, 13):
            entry = a_family(l)
            m = entry.m_even()
            vals = [m(k) for k in range(entry.n)]
            assert set(vals) <= {0, 1} and sum(vals) == l, l
        for l in range(3, 13):
            entry = d_family(l)
            m = entry.m_even()
            vals = [m(k) for k in range(entry.n)]
            assert all(v >= 0 for v in vals) and sum(vals) == l, l

    def test_exceptional_exponent_sets(self):
        assert coxeter_exponents("E_8") == [1, 7, 11, 13, 17, 19, 23, 29]
        assert coxeter_exponents("D_4") == [1, 3, 3, 5]
        assert coxeter_exponents("Q_12") is None
        for name in ("E_6", "E_7", "E_8"):
            assert verify_entry(get(name)).status == "pass"


class TestDuality:
    def test_involution_and_table(self):
        rep = saito_dual_pairs()
        assert rep.status == "pass"
        table = {row["name"]: row for row in rep.context["pairs"]}
        # transform of the rank-family entry matches nothing stored
        for row in rep.context["pairs"]:
            z = get(row["name"]).zeta_product()
            assert saito_transform(saito_transform(z)) == z

    def test_strange_pairs_through_the_dual(self):
        rep = saito_dual_pairs()
        dual = {row["name"]: row["dual_match"] for row in rep.context["pairs"]}
        assert dual["E_13"] == "Z_11" and dual["Z_11"] == "E_13"
        assert dual["E_14"] == "Q_10" and dual["Q_10"] == "E_14"
        assert dual["W_13"] == "S_11" and dual["S_11"] == "W_13"
        assert dual["Z_13"] == "Q_11" and dual["Q_11"] == "Z_13"
        for name in ("E_12", "Z_12", "W_12", "Q_12", "S_12", "U_12"):
            assert dual[name] == name, name
