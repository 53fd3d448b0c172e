"""Report status is derived from its checks, mismatches and flags."""

from cyclozeta.catalog import get as catalog_get
from cyclozeta.etaprod import check_eta_forms
from cyclozeta.report import Report, summarize
from cyclozeta.verify import (
    SuiteConfig,
    run_scope,
    size_error,
    suite_cyclotomic,
    suite_fourier,
    suite_root_data,
)
from cyclozeta.zetaprod import ZetaProduct, check_totient_pairing


def checked(check: str, *oks: bool) -> Report:
    report = Report(check)
    for ok in oks:
        report.expect(ok)
    return report


def test_status_rules():
    assert Report("a").status == "empty"
    # a flag is not a check
    assert Report("a").flag("known").status == "empty"
    assert checked("a", True).status == "pass"
    assert checked("a", True).flag("known").status == "flagged"
    assert checked("a", True, False).status == "fail"
    # a fail outranks a flag, in either order
    assert checked("a", False).flag("known").status == "fail"
    flagged_first = Report("a").flag("known")
    flagged_first.expect(False)
    assert flagged_first.status == "fail"


def test_only_pass_and_flagged_leave_a_run_passing():
    assert Report("a").failed
    assert checked("a", True, False).failed
    assert not checked("a", True).failed
    assert not checked("a", True).flag("known").failed


def test_summarize_fails_a_run_only_on_a_failed_report():
    passed, flagged = checked("a", True), checked("b", True).flag("known").flag("also known")
    assert summarize([passed, flagged]) == {"status": "flagged", "suites": 2, "failures": 0, "flags": 2, "checks": 2}
    assert summarize([passed]) == {"status": "pass", "suites": 1, "failures": 0, "flags": 0, "checks": 1}
    # an empty report fails the run like a failing one, and a failure outranks a flag
    for failed in (Report("c"), checked("c", True, False)):
        summary = summarize([flagged, failed])
        assert (summary["status"], summary["failures"], summary["flags"]) == ("fail", 1, 2)


def test_expect_counts_every_instance_and_renders_only_a_failure():
    class Loud:
        def __str__(self):
            raise AssertionError("a passing check rendered its sides")

    report = Report("a")
    assert report.expect(True, lhs=Loud(), rhs=Loud()) is True
    assert report.expect(False, identity="x", lhs=3, rhs=[1, 2], k=4) is False
    assert report.checks == 2
    assert report.mismatches == [{"identity": "x", "lhs": "3", "rhs": "[1, 2]", "k": 4}]
    assert report.to_dict()["checks"] == 2


def test_absorb_rolls_sub_reports_up():
    passing, flagged = checked("p", True), checked("f", True, True).flag("known")
    # an absorbed mismatch names its sub-check and context; its own keys win
    failing = Report("x", context={"n": 12, "k": 0})
    failing.expect(False, k=3)
    failing.flag("also").flag("known").note("seen")

    def rolled(*subs, context=None):
        report = Report("m", context=context)
        for sub in subs:
            report.absorb(sub)
        return report

    assert rolled().status == "empty"
    assert rolled(Report("a"), Report("b")).status == "empty"
    assert rolled(passing).status == "pass"
    assert rolled(passing, flagged).status == "flagged"
    merged = rolled(flagged, failing, passing, flagged, context={"n": 6})
    assert merged.status == "fail"
    assert merged.checks == 6
    assert merged.mismatches == [{"check": "x", "n": 12, "k": 3}]
    # a flag the report already holds is kept once; notes stay with the sub-check
    assert merged.flags == ["known", "also"]
    assert merged.notes == []
    assert merged.to_dict()["status"] == "fail" and merged.context == {"n": 6}


def test_reports_never_share_a_container():
    first, second = Report("a"), Report("b")
    first.expect(False, k=1)
    first.flag("known").note("seen")
    first.context["n"] = 6
    first.example_docs.append({"index": 1})
    assert (second.mismatches, second.flags, second.notes, second.context, second.example_docs) == ([], [], [], {}, [])
    assert second.checks == 0 and second.status == "empty"


def test_context_is_kept_as_given_and_example_docs_stay_out_of_the_dict():
    context = {"n": 12}
    report = Report("a", context=context)
    assert report.context is context
    assert report.example_docs == []
    report.example_docs.append({"index": 1})
    assert set(report.to_dict()) == {"check", "status", "checks", "context", "mismatches", "flags", "notes"}


class TestCounts:
    """Each identity instance is one check, so the counts can be worked out by hand."""

    def test_cyclotomic_suite_checks_three_identities_per_conductor(self):
        for nmax in (1, 7):
            assert suite_cyclotomic(SuiteConfig(nmax=nmax)).checks == 3 * nmax

    def test_fourier_suite_checks_both_directions_per_trial(self):
        assert suite_fourier(SuiteConfig(nmax=6, trials=2)).checks == 2 * 6 * 2

    def test_given_conductors_replace_one_to_nmax(self):
        cfg = SuiteConfig(nmax=60, trials=2, ns=(12,))
        assert suite_cyclotomic(cfg).checks == 3
        assert suite_fourier(cfg).checks == 2 * 2
        # five identities per trial, two additivity checks, three direct products
        assert suite_root_data(cfg).checks == 5 * 2 + 2 + 3
        # the direct products run for a listed n above nmax, and for no other n
        assert suite_root_data(SuiteConfig(nmax=20, trials=1, ns=(30,))).checks == 5 + 2 + 3

    def test_a_repeated_conductor_is_checked_and_counted_once(self):
        """``SuiteConfig`` keeps the first place of each conductor, so library
        callers count ``ns=(6, 6, 12)`` as ``(6, 12)``, as the CLI does."""
        repeated, once = SuiteConfig(trials=1, order=20, ns=(6, 6, 12)), SuiteConfig(trials=1, order=20, ns=(6, 12))
        assert repeated.ns == (6, 12) and SuiteConfig(ns=(12, 6, 12)).ns == (12, 6)
        assert [r.to_dict() for r in run_scope("all", repeated)] == [r.to_dict() for r in run_scope("all", once)]
        # one n = 360 is within the work limit, and so is its repeat
        assert size_error("all", SuiteConfig(ns=(360, 360))) is None

    def test_a_fourier_suite_without_trials_is_not_a_pass(self):
        report = suite_fourier(SuiteConfig(nmax=6, trials=0))
        assert report.checks == 0 and report.status == "empty"

    def test_totient_pairing_checks_four_identities_per_exponent(self):
        z = ZetaProduct(6, {1: -1, 2: 1, 3: 2, 6: -1})
        report = check_totient_pairing(z, range(-2, 4))
        assert report.checks == 4 * 6 and report.status == "pass"

    def test_eta_forms_check_three_closed_forms(self):
        assert check_eta_forms(catalog_get("E_6").zeta_product(), 40).checks == 3
