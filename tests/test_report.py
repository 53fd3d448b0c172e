"""Report status is derived from its mismatches and flags."""

from cyclozeta.report import Report, merge_reports


def test_status_rules():
    assert Report("a").status == "pass"
    assert Report("a").flag("known").status == "flagged"
    assert Report("a").fail(k=1).status == "fail"
    # a fail outranks a flag, in either order
    assert Report("a").flag("known").fail(k=1).status == "fail"
    assert Report("a").fail(k=1).flag("known").status == "fail"
    assert Report("a").fail().status == "fail"


def test_merge_combines_the_same_way():
    passing, flagged = Report("p"), Report("f").flag("known")
    # a merged mismatch names its sub-check and context; its own keys win
    failing = Report("x", context={"n": 12, "k": 0}).fail(k=3).flag("also")
    assert merge_reports("m", []).status == "pass"
    assert merge_reports("m", [passing]).status == "pass"
    assert merge_reports("m", [passing, flagged]).status == "flagged"
    merged = merge_reports("m", [flagged, failing, passing], {"n": 6})
    assert merged.status == "fail"
    assert merged.mismatches == [{"check": "x", "n": 12, "k": 3}]
    assert merged.flags == ["known", "also"]
    assert merged.to_dict()["status"] == "fail" and merged.context == {"n": 6}
