"""Command-line surface: grammar, JSON schema, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import cyclozeta.catalog
import cyclozeta.cli
import cyclozeta.dirichlet
import cyclozeta.etaprod
import cyclozeta.exactpoly
import cyclozeta.verify
import cyclozeta.zetaprod
from cyclozeta.arith import DivisorMap, divisors
from cyclozeta.cli import main
from cyclozeta.report import Report
from cyclozeta.verify import SuiteConfig, suite_catalog, suite_eta
from cyclozeta.zetaprod import (
    ZetaProduct,
    cyclotomic_exponents,
    multiplicities,
    power_sums,
    ramanujan_coefficients,
    random_zeta_product,
    star_functions,
    to_rational_function,
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "n=3; e={1:-1,3:1}")
        assert code == 0
        assert "m: [0, 1, 1]" in out
        assert "p: [2, -1, -1]" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "analyze", "n=3; e={1:-1,3:1}")
        assert code == 0
        doc = json.loads(out)
        assert "analyze" in doc["command"] and doc["status"] == "pass"
        payload = doc["payload"]
        for key in ("n", "e", "mu_e", "m", "p", "mstar", "pstar", "ramanujan_m", "zeta",
                    "m_line", "p_line", "cyclotomic_exponents"):
            assert key in payload, key
        assert payload["m"] == [0, 1, 1]
        assert payload["pstar"] == [-2, 1, 1]
        assert payload["e"] == {"1": -1, "3": 1}

    def test_json_input_mirror(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "analyze", '{"n": 3, "e": {"1": -1, "3": 1}}')
        assert code == 0
        assert json.loads(out)["payload"]["m"] == [0, 1, 1]

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 60])
    def test_json_lists_every_residue_of_the_even_functions(self, capsys, n):
        z = random_zeta_product(random.Random(f"residues:{n}"), n)
        code, out, _ = run_cli(capsys, "--format", "json", "analyze", z.to_text())
        assert code == 0
        payload = json.loads(out)["payload"]
        mstar, pstar = star_functions(z)
        r = ramanujan_coefficients(multiplicities(z))
        for key, a in (("m", multiplicities(z)), ("p", power_sums(z)), ("mstar", mstar), ("pstar", pstar)):
            assert payload[key] == [a(k) for k in range(n)], key
        assert payload["ramanujan_m"] == [str(r(k)) for k in range(n)]

    def test_format_flag_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--format", "json", "n=3; e={1:-1,3:1}")
        assert code == 0
        assert json.loads(out)["payload"]["p"] == [2, -1, -1]

    def test_cyclotomic_exponents_are_those_of_the_reduced_product(self):
        rng = random.Random(5)
        vectors = [ZetaProduct(12, {d: 0 for d in divisors(12)})]
        vectors += [random_zeta_product(rng, n) for n in (1, 2, 6, 12, 20, 30, 36, 60) for _ in range(3)]
        for z in vectors:
            want = cyclotomic_exponents(to_rational_function(z), z.n)
            got = cyclozeta.cli._analyze_payload(z)["cyclotomic_exponents"]
            # the text output prints this dict, so its key order matters too
            assert list(got.items()) == [(str(d), v) for d, v in want.items()], z

    def test_zero_product(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "n=1; e={1:0}")
        assert code == 0
        assert "mu_e: 0" in out

    def test_parse_error_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "n=3; e={1:-1}")
        assert code == 2 and "divisors" in err
        code, _, err = run_cli(capsys, "analyze", "x=3")
        assert code == 2 and "parse error" in err

    @pytest.mark.parametrize("text, shown", [
        ('{"n": 3, "e": {"1": 1.5, "3": 1}}', "e(1) must be an integer, got 1.5"),
        ('{"n": 3, "e": {"1": true, "3": 1}}', "e(1) must be an integer, got true"),
        ('{"n": 3, "e": {"1": -1, "3": "1"}}', 'e(3) must be an integer, got "1"'),
        ('{"n": 3.0, "e": {"1": -1, "3": 1}}', "n must be an integer, got 3.0"),
        ('{"n": true, "e": {"1": -1}}', "n must be an integer, got true"),
    ])
    def test_json_input_refuses_non_integers(self, capsys, text, shown):
        code, out, err = run_cli(capsys, "analyze", text)
        assert code == 2 and not out
        assert "parse error" in err and shown in err

    @pytest.mark.parametrize("text, shown", [
        ('{"n":3,"e":{"1":1,"3":1,"01":2}}', 'e key "01" is not a divisor in canonical decimal form'),
        ('{"n":6,"e":{"1":1,"2":0,"3":0,"0_6":1}}', 'e key "0_6" is not a divisor'),
        ('{"n":3,"e":{"1":1,"+3":1}}', 'e key "+3" is not a divisor'),
        ('{"n":3,"e":{"1":1," 3":1}}', 'e key " 3" is not a divisor'),
        ('{"n":3,"e":{"1":1,"3":1,"1":2}}', 'duplicate key "1"'),
        ('{"n":3,"e":{"1":1,"3":1},"n":3}', 'duplicate key "n"'),
        ('{"e":{"1":1}}', 'missing field "n"'),
        ('{"n":3}', 'missing field "e"'),
        ('{"n": 3, "e": {"1": -1, "3": 1}, "num": [1, 2]}', 'unknown field "num"'),
        ('{"n": 0, "e": {}}', "n must be a positive integer, got 0"),
        ('{"n": -4, "e": {"1": 1}}', "n must be a positive integer, got -4"),
    ])
    def test_json_input_refuses_non_canonical_repeated_and_missing_keys(self, capsys, text, shown):
        code, out, err = run_cli(capsys, "dual", text)
        assert code == 2 and not out
        assert "parse error" in err and shown in err


class TestDualAndSeries:
    def test_dual(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "n=3; e={1:-1,3:1}")
        assert code == 0
        assert "transform: n=3; e={1:1,3:-1}" in out

    def test_series(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "series", "--G", "zeta", "--order", "20", "--which", "m",
            "n=3; e={1:-1,3:1}",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["m"][:6] == [1, 1, 0, 1, 1, 0]

    @pytest.mark.parametrize("which", ["mstar", "pstar"])
    def test_power_series_refuses_starred_transforms(self, capsys, which):
        code, out, err = run_cli(
            capsys, "series", "n=3; e={1:-1,3:1}", "--kind", "power", "--which", which, "--order", "8",
        )
        assert code == 2 and not out
        assert which in err and "--kind power" in err

    @pytest.mark.parametrize("G", ["mobius", "unit", "zeta"])
    def test_power_series_refuses_G_before_any_series(self, capsys, monkeypatch, G):
        # the power kind always multiplies the geometric series, so --G would be ignored
        monkeypatch.setattr(cyclozeta.dirichlet, "ps_g_transforms", lambda z, g: pytest.fail("not refused"))
        code, out, err = run_cli(capsys, "series", "n=3; e={1:-1,3:1}", "--kind", "power", "--G", G,
                                 "--order", "6")
        assert code == 2 and not out
        assert "--G" in err and "--kind dirichlet" in err

    def test_dirichlet_series_takes_zeta_without_G(self, capsys):
        argv = ["series", "n=6; e={1:-1,2:1,3:1,6:-1}", "--order", "30"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and "\nG: zeta\n" in out
        assert run_cli(capsys, *argv, "--G", "zeta") == (0, out, "")

    @pytest.mark.parametrize("text", [
        "n=03; e={1:1,3:-1}",
        "n=3; e={01:1,3:-1}",
        "n=3; e={1:1,3:-01}",
        "n=3; e={1:-0,3:1}",
        "n=3; e={1:+1,3:1}",
        "n=0; e={}",
    ])
    def test_text_input_refuses_non_canonical_numbers(self, capsys, text):
        code, out, err = run_cli(capsys, "dual", text)
        assert code == 2 and not out
        assert "parse error" in err and "canonical decimal form" in err

    def test_json_input_refuses_minus_zero(self, capsys):
        code, out, err = run_cli(capsys, "dual", '{"n": 3, "e": {"1": -0, "3": 1}}')
        assert code == 2 and not out
        assert "parse error" in err and "-0 is not in canonical decimal form" in err

    def test_json_input_takes_a_zero_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "dual", '{"n": 3, "e": {"1": 0, "3": -1}}')
        assert code == 0 and "input: n=3; e={1:0,3:-1}" in out

    @pytest.mark.parametrize("text", ["n=1 2; e={1:1,2:0,3:0,4:0,6:0,12:-1}", "n=3; e={1:- 1,3:1}",
                                      "n=3; e={1:1,3:1\t0}"])
    def test_text_input_refuses_whitespace_inside_a_number(self, capsys, text):
        code, out, err = run_cli(capsys, "dual", text)
        assert code == 2 and not out
        assert "parse error" in err and "whitespace inside the number" in err

    def test_text_input_takes_a_zero_exponent(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "n=3; e={1:0,3:-1}")
        assert code == 0 and "input: n=3; e={1:0,3:-1}" in out


class TestSizeContract:
    def test_limits_at_and_above(self):
        assert cyclozeta.cli.size_error(cyclozeta.cli.MAX_N) is None
        assert "n <= 5040" in cyclozeta.cli.size_error(cyclozeta.cli.MAX_N + 1)
        assert cyclozeta.cli.size_error(1, cyclozeta.cli.MAX_DEGREE) is None
        assert "limit 2500" in cyclozeta.cli.size_error(1, cyclozeta.cli.MAX_DEGREE + 1)
        assert cyclozeta.cli.size_error(1, order=cyclozeta.cli.MAX_ORDER) is None
        assert "--order 4001 is above the size limit 4000" in cyclozeta.cli.size_error(1, order=4001)

    def test_reduced_degree_is_that_of_the_reduced_product(self):
        rng = random.Random(13)
        for n in (1, 2, 12, 30, 60, 97):
            for span in (0, 2, 9):
                z = random_zeta_product(rng, n, span)
                f = to_rational_function(z)
                assert cyclozeta.cli.reduced_degree(z) == f.num.degree + f.den.degree, z

    @pytest.mark.parametrize("argv", [
        ["analyze", "n=5041; e={1:1,71:-1,5041:1}"],
        ["dual", "n=5041; e={1:1,71:-1,5041:1}"],
        ["series", "n=5041; e={1:1,71:-1,5041:1}", "--order", "4"],
        ["series", '{"n": 5041, "e": {"1": 1}}', "--kind", "power", "--order", "4"],
    ])
    def test_conductor_above_the_limit_is_refused_before_its_divisors(self, capsys, monkeypatch, argv):
        # the product (and with it every divisor of n) must not be built
        monkeypatch.setattr(cyclozeta.cli, "ZetaProduct", lambda n, e: pytest.fail("not refused"))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out
        assert "n = 5041 is above the size limit n <= 5040" in err

    def test_conductor_at_the_limit_is_accepted(self, capsys):
        text = ZetaProduct(5040, {d: (-1) ** i for i, d in enumerate(divisors(5040))}).to_text()
        code, out, _ = run_cli(capsys, "dual", text)
        assert code == 0 and out.startswith("input: n=5040; e={1:1,2:-1,")

    @pytest.mark.parametrize("kind", ["dirichlet", "power"])
    def test_series_refuses_an_order_above_the_limit_before_any_series(self, capsys, monkeypatch, kind):
        # neither the product nor any series may be built
        monkeypatch.setattr(cyclozeta.cli, "ZetaProduct", lambda n, e: pytest.fail("not refused"))
        code, out, err = run_cli(capsys, "series", "n=3; e={1:-1,3:1}", "--kind", kind, "--order", "4001")
        assert code == 2 and not out
        assert err == "error: --order 4001 is above the size limit 4000\n"

    @pytest.mark.parametrize("kind", ["dirichlet", "power"])
    def test_series_takes_the_order_at_the_limit(self, capsys, kind):
        code, out, _ = run_cli(capsys, "--format", "json", "series", "n=1; e={1:1}", "--kind", kind,
                               "--order", "4000", "--which", "m")
        assert code == 0 and len(json.loads(out)["payload"]["m"]) == 4000

    def test_verify_refuses_a_conductor_above_the_limit_before_any_suite(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda *args: pytest.fail("not refused"))
        code, out, err = run_cli(capsys, "verify", "all", "--n", "6", "--n", "5041", "--trials", "1")
        assert code == 2 and not out
        assert err == "error: n = 5041 is above the size limit n <= 5040\n"

    def test_verify_takes_a_conductor_at_the_limit(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "example", "--index", "1", "--n", "5040", "--trials", "1",
                               "--order", "10")
        assert code == 0 and "[PASS   ] convolution-examples" in out

    @pytest.mark.parametrize("flag, limit", [("--nmax", 120), ("--order", 1000), ("--trials", 100)])
    def test_verify_takes_each_size_flag_at_its_limit_and_refuses_it_above(self, capsys, monkeypatch, flag, limit):
        # prop --index 1 runs tensor-powers alone, so no work bound is reached
        ran = []
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg, timings=None: ran.append(cfg) or [])
        run_cli(capsys, "verify", "prop", "--index", "1", flag, str(limit))
        assert getattr(ran.pop(), flag[2:]) == limit
        code, out, err = run_cli(capsys, "verify", "prop", "--index", "1", flag, str(limit + 1))
        assert code == 2 and not out and not ran
        assert err == f"error: {flag} {limit + 1} is above the size limit {limit}\n"

    @pytest.mark.parametrize("argv, work", [
        # the default sizes and the benchmark's command
        (["all"], 28 * (36 + 144 + 900 + 3 * 30 * 200)),
        (["all", "--seed", "7", "--nmax", "60", "--order", "200"], 28 * (36 + 144 + 900 + 3 * 30 * 200)),
        # the tables of weighted-sums and mobius-pairings at each --n
        (["all", "--n", "360"], 28 * (360**2 + 30 * 200)),
        (["prop", "--index", "2", "--n", "660", "--trials", "1"], 9 * 660**2),
        # the Dirichlet suites, growing with --order at every conductor
        (["prop", "--index", "9", "--n", "6", "--n", "12", "--order", "1000", "--trials", "5"], 13 * 2 * 30 * 1000),
        (["example", "--index", "1", "--n", "5040", "--trials", "1", "--order", "10"], 9 * 30 * 10),
    ])
    def test_verify_takes_a_run_whose_work_is_at_the_limit_and_refuses_one_above(self, capsys, monkeypatch, argv,
                                                                                 work):
        ran = []
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg, timings=None: ran.append(cfg) or [])
        monkeypatch.setattr(cyclozeta.verify, "MAX_WORK", work)
        run_cli(capsys, "verify", *argv)
        assert len(ran) == 1
        monkeypatch.setattr(cyclozeta.verify, "MAX_WORK", work - 1)
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and not out and len(ran) == 1
        assert err == (f"error: the run's work (trials + 8) x sum of (n^2 + 30 x order) over its conductors is {work}, "
                       f"above the size limit {work - 1}\n")

    @pytest.mark.parametrize("argv", [
        ["all"],
        ["all", "--seed", "42", "--nmax", "60", "--order", "200"],
        ["all", "--nmax", "120"],
        ["all", "--n", "360"],
        ["example", "--index", "1", "--n", "5040", "--trials", "1", "--order", "10"],
    ])
    def test_verify_takes_the_default_and_benchmark_sizes(self, capsys, monkeypatch, argv):
        ran = []
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg, timings=None: ran.append(cfg) or [])
        run_cli(capsys, "verify", *argv)
        assert len(ran) == 1

    @pytest.mark.parametrize("argv", [
        ["all", "--n", "5040", "--trials", "1", "--order", "10"],
        ["all", "--n", "370"],
        ["all", "--nmax", "100000", "--trials", "1"],
        ["all", "--order", "10000000", "--trials", "1"],
        ["all", "--trials", "100000000"],
        ["example", "--n", "6", "--order", "1000", "--trials", "100", "--n", "12"],
    ])
    def test_verify_refuses_runs_above_the_contract_before_any_suite(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda *args: pytest.fail("not refused"))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and not out and "above the size limit" in err

    @pytest.mark.parametrize("text, degree", [("n=1; e={1:2501}", 2501), ("n=2; e={1:0,2:-1251}", 2502)])
    def test_analyze_refuses_a_degree_above_the_limit(self, capsys, monkeypatch, text, degree):
        monkeypatch.setattr(cyclozeta.cli, "_analyze_payload", lambda z: pytest.fail("not refused"))
        code, out, err = run_cli(capsys, "analyze", text)
        assert code == 2 and not out
        assert f"degree {degree}, above the size limit 2500" in err


class TestCatalogCommand:
    def test_get(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "get", "E8")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"]["n"] == 30

    def test_unknown_entry(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "get", "B_2")
        assert code == 2 and not out
        assert err == "error: unknown catalog entry 'B_2'\n"

    @pytest.mark.parametrize("action", ["get", "verify"])
    @pytest.mark.parametrize("name, reason", [
        ("A_03", "unknown catalog entry"),
        ("A_\u0663", "unknown catalog entry"),
        ("D_007", "unknown catalog entry"),
        ("A_1 2", "unknown catalog entry 'A_1 2'"),
        ("A_1000000", "n = 1000001 is above the size limit n <= 5040"),
        ("A_5040", "n = 5041 is above the size limit n <= 5040"),
    ])
    def test_ranks_outside_the_input_contract_are_refused(self, capsys, action, name, reason):
        code, out, err = run_cli(capsys, "catalog", action, name)
        assert code == 2 and not out
        assert reason in err

    @pytest.mark.parametrize("name, n", [("A_5039", 5040), ("D_12", 22)])
    def test_ranks_at_the_size_limit_are_accepted(self, capsys, name, n):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "get", name)
        assert code == 0
        assert json.loads(out)["payload"]["n"] == n

    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0 and "E_8" in out and "families" in out

    def test_verify_flags_two_entries(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "verify")
        assert code == 0
        assert out.count("flag:") == 2
        assert "status: flagged  flags: 2  failures: 0" in out

    def test_verify_fails_when_the_flagged_set_is_not_the_expected_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cyclozeta.catalog, "expected_anomalies", lambda: ("X_9",))
        code, out, _ = run_cli(capsys, "catalog", "verify")
        assert code == 1
        assert "[FAIL   ] anomaly-set" in out and "status: fail  flags: 2  failures: 1" in out
        assert suite_catalog(SuiteConfig()).status == "fail"

    def test_verify_single(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "verify", "X_9")
        assert code == 0 and "FLAGGED" in out

    def test_json_list_names_every_entry_and_both_families(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "list")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "cyclozeta --format json catalog list" and doc["status"] == "pass"
        want = [{"name": e.name, "n": e.n, "source": e.source} for e in cyclozeta.catalog.entries()]
        assert doc["payload"] == {"entries": want, "families": ["A_<rank>", "D_<rank>"]}
        assert len(want) == 20 and {"name": "E_8", "n": 30, "source": "simple-parabolic"} in want

    def test_json_verify_is_flagged_with_one_report_per_check(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "verify")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "flagged"
        reports = doc["payload"]["reports"]
        assert len(reports) == 44
        assert reports == [r.to_dict() for r in cyclozeta.catalog.verify_catalog()]
        assert [r["status"] for r in reports].count("flagged") == 2
        assert all(r["status"] in ("pass", "flagged") and not r["mismatches"] for r in reports)

    def test_json_verify_of_one_entry(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "catalog", "verify", "E8")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        [report] = doc["payload"]["reports"]
        assert report["check"] == "catalog-entry" and report["status"] == "pass"
        assert report["context"] == {"n": 30, "name": "E_8"} and report["checks"] > 0

    def test_get_without_a_name_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "get")
        assert code == 2 and not out
        assert err == "error: catalog get needs an entry name\n"


def picked(z: ZetaProduct) -> bool:
    """The products that a planted fault picks: about one in five."""
    return z.n > 2 and z.e.values[1] == 2


def failing_on_picked(real, at=0):
    """``real``, a check that returns a report, plus one failing check naming
    the product (its argument at ``at``) for each picked product."""
    def faulty(*args, **kwargs):
        report, z = real(*args, **kwargs), args[at]
        if picked(z):
            report.expect(False, n=z.n, instance=z.to_text())
        return report
    return faulty


# a fault planted in each random suite, through a name that verify imports
# and that suite alone calls: (the name, the faulty version of it)
PLANTED = {
    "root-data-coherence": ("saito_transform", lambda real: lambda z: real(z) * real(z) if picked(z) else real(z)),
    "fourier-roundtrip": ("ramanujan_reconstruct",
                          lambda real: lambda r: real(r) + real(r) if r.n > 2 and r.values[r.n] > 0 else real(r)),
    "weighted-sums": ("check_weighted_sum_identities", failing_on_picked),
    "dirichlet-transfer": ("check_transfer", failing_on_picked),
    "convolution-examples": ("convolution_example", lambda real: failing_on_picked(real, at=1)),
}


class TestVerifyCommand:
    def test_example_scope(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "example", "--index", "1", "--n", "12", "--trials", "3",
            "--order", "80",
        )
        assert code == 0
        assert "[PASS   ] convolution-examples" in out

    def test_eta_scope_flags_once(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eta")
        assert code == 0
        assert out.count("flag:") == 1

    def test_the_prop_scope_runs_the_suite_of_each_proposition_once_in_index_order(self):
        suites = ["tensor-powers", "weighted-sums", "mobius-pairings", "dirichlet-transfer"]
        assert cyclozeta.verify.suite_names("prop") == suites
        by_index = [cyclozeta.verify.suite_names("prop", i)[0] for i in range(1, 10)]
        assert list(dict.fromkeys(by_index)) == suites

    def test_prop_scope_index(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "prop", "--index", "1")
        assert code == 0 and "tensor-powers" in out

    def test_deterministic_output(self, capsys):
        args = ("verify", "example", "--index", "11", "--n", "6", "--trials", "2",
                "--order", "60", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_timings_go_to_stderr_and_leave_stdout_byte_identical(self, capsys, fmt):
        args = ("--format", fmt, "verify", "prop", "--n", "6", "--trials", "2", "--order", "40", "--seed", "5")
        code1, out1, err1 = run_cli(capsys, *args)
        code2, out2, err2 = run_cli(capsys, *args, "--timings")
        assert code1 == code2 == 0
        assert out1 == out2
        assert err1 == ""
        lines = err2.splitlines()
        assert len(lines) == len(cyclozeta.verify.SCOPE_SUITES["prop"])
        for line, name in zip(lines, cyclozeta.verify.SCOPE_SUITES["prop"]):
            label, suite, seconds, unit = line.split()
            assert (label, suite, unit) == ("timing:", name, "s") and float(seconds) >= 0

    def test_json_report_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "--format", "json", "verify", "example", "--index", "2", "--n", "6",
            "--trials", "2", "--order", "60",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failures"] == 0
        assert doc["examples"][0]["example"] == 2
        assert doc["examples"][0]["first_mismatch"] is None

    @pytest.mark.parametrize("argv", [
        ["verify", "all", "--nmax", "0", "--order", "1"],
        ["verify", "all", "--order", "0"],
        ["verify", "prop", "--index", "2", "--trials", "0"],
        ["verify", "example", "--trials", "-3"],
        ["verify", "example", "--nmax", "x"],
        ["verify", "prop", "--index", "1", "--n", "0"],
        ["verify", "example", "--index", "11", "--n", "-4"],
    ])
    def test_sizes_below_one_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "expected an integer >= 1" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "prop", "--index", "0_3", "--trials", "1", "--n", "6"],
        ["verify", "prop", "--index", "+3", "--trials", "1", "--n", "6"],
        ["verify", "all", "--seed", "4_2"],
        ["verify", "all", "--seed", "042"],
        ["verify", "all", "--seed", "-0"],
        ["verify", "all", "--seed", "\u0664\u0662"],
        ["verify", "all", "--nmax", "1_0"],
        ["verify", "all", "--order", "0x10"],
        ["verify", "prop", "--index", "1", "--trials", " 1"],
        ["verify", "example", "--index", "1", "--n", "\u0666"],
        ["series", "n=3; e={1:-1,3:1}", "--order", "\u0663"],
    ])
    def test_integer_flags_refuse_non_canonical_numbers(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg: pytest.fail("not refused"))
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert not captured.out and "canonical decimal form" in captured.err

    def test_integer_flags_take_canonical_numbers(self):
        assert [cyclozeta.cli._int(t) for t in ("0", "7", "-7", "1200")] == [0, 7, -7, 1200]
        assert cyclozeta.cli._positive_int("12") == 12

    def test_zero_trials_and_conductors_are_not_replaced_by_defaults(self):
        cfg = SuiteConfig(trials=0, ns=())
        assert cfg.pick_trials(10) == 0 and cfg.pick_ns((6, 12)) == ()
        assert SuiteConfig().pick_trials(10) == 10 and SuiteConfig().pick_ns((6, 12)) == (6, 12)

    @pytest.mark.parametrize("index", ["13", "0", "-1"])
    def test_example_index_out_of_range(self, capsys, index):
        code, out, err = run_cli(capsys, "verify", "example", "--index", index, "--trials", "1")
        assert code == 2 and not out
        assert "1..12" in err and index in err

    @pytest.mark.parametrize("scope", ["all", "catalog", "eta", "weights"])
    def test_index_is_refused_outside_prop_and_example(self, capsys, scope):
        code, out, err = run_cli(capsys, "verify", scope, "--index", "9", "--nmax", "6", "--order", "30",
                                 "--trials", "1")
        assert code == 2 and not out
        assert "--index" in err and scope in err

    @pytest.mark.parametrize("index, transfer_calls, star_calls", [(9, 2 * 3, 0), (8, 0, 3 * 3)])
    def test_prop_index_keeps_one_dirichlet_proposition(self, capsys, monkeypatch, index, transfer_calls,
                                                          star_calls):
        calls = {"transfer": 0, "star": 0}

        def counting(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(cyclozeta.verify, "check_transfer", counting("transfer", cyclozeta.verify.check_transfer))
        monkeypatch.setattr(cyclozeta.verify, "check_star_series", counting("star", cyclozeta.verify.check_star_series))
        code, out, _ = run_cli(capsys, "verify", "prop", "--index", str(index), "--trials", "1", "--order", "40")
        assert code == 0
        assert out == "[PASS   ] dirichlet-transfer\nstatus: pass  flags: 0  failures: 0\n"
        assert calls == {"transfer": transfer_calls, "star": star_calls}

    def test_prop_index_zero_is_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "verify", "prop", "--index", "0")
        assert code == 2 and "1..9" in err

    def test_catalog_verify_and_verify_print_each_report_the_same_way(self, capsys, monkeypatch):
        """Both commands print reports through one printer: on one planted
        list their lines agree up to each command's own status line.  A report
        is named by its catalog entry when it has one."""
        seven = Report("stub-seven", context={"name": "planted-entry"})
        seven.flag("a documented discrepancy")
        for k in range(7):
            seven.expect(False, k=k, value=Fraction(k, 2))
        passing = Report("stub-pass")
        passing.expect(True)
        reports = [seven, passing, Report("stub-empty")]
        monkeypatch.setattr(cyclozeta.catalog, "verify_catalog", lambda: reports)
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg, timings=None: reports)
        lines = {}
        for argv in (["catalog", "verify"], ["verify", "all"]):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 1
            *lines[argv[0]], status = out.splitlines()
            assert status.endswith("  flags: 1  failures: 2")
        assert lines["catalog"] == lines["verify"] == [
            "[FAIL   ] planted-entry",
            "          flag: a documented discrepancy",
            *(f"          mismatch: {{'k': {k}, 'value': '{Fraction(k, 2)}'}}" for k in range(5)),
            "          (+2 more)",
            "[PASS   ] stub-pass",
            "[EMPTY  ] stub-empty",
        ]

    def test_text_mode_counts_mismatches_beyond_the_shown_five(self, capsys, monkeypatch):
        report = Report("stub-suite")
        for k in range(7):
            report.expect(False, k=k)
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg, timings=None: [report])
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 1
        assert out.count("mismatch:") == 5
        assert "(+2 more)" in out
        assert "status: fail  flags: 0  failures: 1" in out
        # no mismatch names a conductor, so there is no command to re-run
        assert "rerun:" not in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_suite_that_checked_nothing_fails_the_run(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(cyclozeta.verify, "run_scope", lambda scope, cfg, timings=None: [Report("stub")])
        code, out, _ = run_cli(capsys, "--format", fmt, "verify", "all")
        assert code == 1
        if fmt == "json":
            doc = json.loads(out)
            assert doc["summary"]["status"] == "fail" and doc["suites"][0]["status"] == "empty"
        else:
            assert out == "[EMPTY  ] stub\nstatus: fail  flags: 0  failures: 1\n"

    def test_json_counts_the_checks_of_each_suite(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "weights")
        doc = json.loads(out)
        assert code == 0
        checks = doc["suites"][0]["checks"]
        assert checks > 0 and doc["summary"]["checks"] == checks

    @pytest.mark.parametrize("repeated, once", [
        (["--n", "6", "--n", "6"], ["--n", "6"]),
        (["--n", "12", "--n", "6", "--n", "12"], ["--n", "12", "--n", "6"]),
    ])
    def test_a_repeated_conductor_runs_once_in_first_seen_order(self, capsys, repeated, once):
        """A repeated --n checks nothing new, so it is dropped before the size
        contract and the suites run: the run checks and counts what it checks
        without the repeat."""
        docs = []
        for ns in (repeated, once):
            code, out, _ = run_cli(capsys, "--format", "json", "verify", "prop", "--index", "9", "--trials", "1", *ns)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0]["summary"] == docs[1]["summary"] and docs[0]["suites"] == docs[1]["suites"]
        assert docs[0]["suites"][0]["context"]["ns"] == [int(n) for n in once[1::2]]

    def test_json_pins_the_check_count_of_every_suite_at_seed_42(self, capsys, monkeypatch):
        """Text output shows statuses only; a change that drops an identity
        instance moves one of these counts.  No suite runs a polynomial gcd:
        every rational function it builds is reduced by construction.  The
        root-data suite factors each distinct product of its draws once per
        conductor."""
        gcds, factored = [], []
        real = cyclozeta.exactpoly.poly_gcd
        monkeypatch.setattr(cyclozeta.exactpoly, "poly_gcd", lambda a, b: gcds.append((a, b)) or real(a, b))
        real_exponents = cyclozeta.verify.cyclotomic_exponents
        monkeypatch.setattr(cyclozeta.verify, "cyclotomic_exponents",
                            lambda f, n: factored.append(n) or real_exponents(f, n))
        cfg = SuiteConfig()
        distinct = {
            n: len({tuple(z.e.values.values()) for z in cfg.draw(("root", n), 100, random_zeta_product, n)})
            for n in range(1, 61)
        }
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "all", "--seed", "42")
        doc = json.loads(out)
        assert code == 0 and [(s["check"], s["checks"]) for s in doc["suites"]] == [
            ("cyclotomic-products", 180),
            ("root-data-coherence", 30207),
            ("fourier-roundtrip", 6000),
            ("tensor-powers", 20),
            ("weighted-sums", 740),
            ("mobius-pairings", 3396),
            ("dirichlet-transfer", 480),
            ("convolution-examples", 1384),
            ("eta-expansion", 126),
            ("weight-systems", 236),
            ("catalog", 88),
        ]
        assert doc["summary"]["checks"] == 42857
        assert sha256(out) == "afd2be8b9a5f44b32605c8dfaf5ee9746a26e6125e5aaa004f091550266306b8"
        assert gcds == []
        # 6,000 draws, of which 1,662 repeat a product drawn before at their n
        assert Counter(factored) == distinct and sum(distinct.values()) == 4338

    @pytest.mark.parametrize("argv, digest", [
        ("--format json verify all --seed 7 --nmax 20", "ec6fb2e5f89b3c14ddd3ca213b5e72df617cd8b92a59ac4f6d87a403fafc8bde"),
        ("verify example", "745af6e781907960638eae25240944fc45a93bd02179e3dd708942e1c391f090"),
        ("--format json verify prop --seed 3", "9a935c445e86b3e3f9086d4f9119d5d31e1891d580e2406c7070cef50bd131c2"),
        ("catalog verify", "ff6b1dd2910c1ba85dc98ea4cabf7a04b1142bdc979c848a5527bd251a61e4eb"),
        ("verify weights", "c6931ec08cc7ad6ea15c471f963436d4f7aef28052b1983ccf218ac3ae7e7e53"),
        ("verify eta", "6d6ea8a1fe0d8c2702ec6eb4f01145d74827b374fdc6685bb55ef26d043907b0"),
    ])
    def test_seeded_stdout_matches_its_pinned_digest(self, capsys, argv, digest):
        """Any printed byte that moves changes a digest: a change that is not
        meant to touch output must leave every one of them as it is."""
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0 and sha256(out) == digest

    @pytest.mark.parametrize("module, argv, first", [
        (cyclozeta.zetaprod, ["prop", "--index", "4", "--n", "6", "--n", "12", "--trials", "2"],
         "{'check': 'mobius-pairing[ones]', 'n': 6, 'identity': 'multiplicity-side'}"),
        (cyclozeta.etaprod, ["eta"],
         "{'check': 'eta-log-derivative', 'n': 12, 'order': 100, 'mu_e': 0, 'name': 'E_6', 'identity': 'cyclotomic'}"),
    ], ids=["pairing", "eta"])
    def test_a_merged_mismatch_names_its_sub_check(self, capsys, monkeypatch, module, argv, first):
        real = module.multiplicities
        monkeypatch.setattr(
            module, "multiplicities", lambda z: DivisorMap(z.n, {d: v + 1 for d, v in real(z).items()})
        )
        code, out, _ = run_cli(capsys, "verify", *argv)
        shown = [line.strip() for line in out.splitlines() if "mismatch:" in line]
        assert code == 1 and len(shown) == 5
        assert shown[0] == f"mismatch: {first}"
        assert all(line.startswith("mismatch: {'check': ") for line in shown)

    def test_the_rerun_command_repeats_the_first_mismatch_at_its_n_alone(self, capsys, monkeypatch):
        real = cyclozeta.zetaprod.multiplicities
        monkeypatch.setattr(
            cyclozeta.zetaprod, "multiplicities", lambda z: DivisorMap(z.n, {d: v + 1 for d, v in real(z).items()})
        )
        code, out, _ = run_cli(capsys, "verify", "prop", "--index", "4", "--n", "12", "--n", "6",
                               "--trials", "2", "--nmax", "30")
        lines = [line.strip() for line in out.splitlines()]
        reruns = [line for line in lines if line.startswith("rerun: ")]
        # the scope, --index and --seed always; --nmax and --trials because
        # they differ from the defaults; --order does not
        want = "cyclozeta verify prop --index 4 --seed 42 --n 12 --nmax 30 --trials 2"
        assert code == 1 and reruns == [f"rerun: {want}"]
        assert lines[lines.index(reruns[0]) - 1].startswith("mismatch: {'check': 'mobius-pairing[ones]', 'n': 12,")
        code, out, _ = run_cli(capsys, "--format", "json", "verify", *want.split()[2:])
        mismatches = json.loads(out)["suites"][0]["mismatches"]
        assert code == 1 and {m["n"] for m in mismatches} == {12}
        assert mismatches[0]["rerun"] == want and not any("rerun" in m for m in mismatches[1:])

    @pytest.mark.parametrize("suite, argv, want", [
        ("root-data-coherence", "all --nmax 12 --trials 3 --order 20",
         "cyclozeta verify all --seed 42 --n 3 --nmax 12 --order 20 --trials 3"),
        ("fourier-roundtrip", "all --nmax 12 --trials 3 --order 20",
         "cyclozeta verify all --seed 42 --n 3 --nmax 12 --order 20 --trials 3"),
        ("weighted-sums", "prop --index 2 --trials 2 --seed 7",
         "cyclozeta verify prop --index 2 --seed 7 --n 6 --trials 2"),
        ("dirichlet-transfer", "prop --index 9 --trials 8 --order 30",
         "cyclozeta verify prop --index 9 --seed 42 --n 6 --order 30 --trials 8"),
        ("convolution-examples", "example --index 1 --trials 3 --order 40",
         "cyclozeta verify example --index 1 --seed 42 --n 6 --order 40 --trials 3"),
    ])
    def test_each_random_suite_fails_again_at_its_rerun_conductor_alone(self, capsys, monkeypatch, suite, argv,
                                                                       want):
        """The printed command keeps every non-default size, and at its
        conductor draws the instances that the failing run drew there: it
        reports exactly the mismatches that run had at that conductor."""
        name, fault = PLANTED[suite]
        monkeypatch.setattr(cyclozeta.verify, name, fault(getattr(cyclozeta.verify, name)))

        def mismatches(*words):
            code, out, _ = run_cli(capsys, "--format", "json", "verify", *words)
            found = next(s for s in json.loads(out)["suites"] if s["check"] == suite)["mismatches"]
            assert code == 1 and found
            return found[0].pop("rerun"), found

        rerun, full = mismatches(*argv.split())
        n = full[0]["n"]
        assert rerun == want and {m["n"] for m in full} > {n}
        again, alone = mismatches(*rerun.split()[2:])
        assert again == rerun and alone == [m for m in full if m["n"] == n]

    def test_the_eta_rerun_command_reports_its_conductor_alone(self, capsys, monkeypatch):
        """``--n`` keeps the catalog entries of that conductor, so the printed
        command fails again at n = 12 and nowhere else."""
        real = cyclozeta.etaprod.multiplicities
        monkeypatch.setattr(
            cyclozeta.etaprod, "multiplicities", lambda z: DivisorMap(z.n, {d: v + 1 for d, v in real(z).items()})
        )
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "eta")
        mismatches = json.loads(out)["suites"][0]["mismatches"]
        assert code == 1 and {m["n"] for m in mismatches} > {12}
        want = "cyclozeta verify eta --seed 42 --n 12"
        assert mismatches[0]["rerun"] == want
        code, out, _ = run_cli(capsys, "--format", "json", "verify", *want.split()[2:])
        suite = json.loads(out)["suites"][0]
        assert code == 1 and {m["n"] for m in suite["mismatches"]} == {12}
        assert suite["context"]["entries"] == sum(1 for e in cyclozeta.catalog.walked_entries() if e.n == 12)

    def test_a_conductor_with_no_catalog_entry_runs_every_eta_entry(self, capsys):
        """No walked entry has n = 37, so ``--n 37`` leaves eta-expansion as
        it is without ``--n``, and ``verify all --n 37`` passes."""
        assert all(e.n != 37 for e in cyclozeta.catalog.walked_entries())
        _, whole, _ = run_cli(capsys, "--format", "json", "verify", "eta")
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "eta", "--n", "37")
        assert code == 0 and json.loads(out)["suites"] == json.loads(whole)["suites"]
        code, out, _ = run_cli(capsys, "verify", "all", "--seed", "42", "--n", "37", "--trials", "1")
        assert code == 0 and "failures: 0" in out

    def test_a_catalog_failure_gets_a_rerun_command_without_n(self, capsys, monkeypatch):
        """The catalog suite runs whole whatever ``--n`` says, so its command
        leaves ``--n`` out although the mismatch names its entry's conductor."""
        real = cyclozeta.catalog.coxeter_exponents
        monkeypatch.setattr(
            cyclozeta.catalog, "coxeter_exponents", lambda name: None if (e := real(name)) is None else [*e, 0]
        )
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "catalog", "--seed", "7")
        first = json.loads(out)["suites"][0]["mismatches"][0]
        assert code == 1 and first["check"] == "catalog-entry" and first["n"] >= 1
        assert first["rerun"] == "cyclozeta verify catalog --seed 7"

    def test_eta_mismatches_name_their_catalog_entry(self, monkeypatch):
        """Four catalog entries share n = 12; each carried mismatch says which one failed."""
        real = cyclozeta.etaprod.multiplicities
        monkeypatch.setattr(
            cyclozeta.etaprod, "multiplicities", lambda z: DivisorMap(z.n, {d: v + 1 for d, v in real(z).items()})
        )
        rep = suite_eta(SuiteConfig())
        assert {m["name"] for m in rep.mismatches if m["n"] == 12} == {"E_6", "U_12", "A_11", "D_7"}

    def test_bad_scope_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestEntryPoint:
    def test_a_closed_stdout_exits_141_without_a_traceback(self):
        """``cyclozeta ... | head -1`` is no verification failure (exit 1)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        e = ",".join(f"{d}:{(-1) ** i}" for i, d in enumerate(divisors(360)))
        # about 150 kB of JSON, more than a pipe holds, so the command is
        # still writing when its reader goes away
        argv = [sys.executable, "-m", "cyclozeta.cli", "--format", "json", "series", f"n=360; e={{{e}}}",
                "--order", "4000"]
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert b"Traceback" not in err, err.decode()
