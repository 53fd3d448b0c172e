"""Structured pass/fail/flagged reports shared by all verification routines."""

from __future__ import annotations

from fractions import Fraction


def json_safe(value):
    """Render exact values (Fractions, polynomials, maps) as JSON-friendly data."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return str(value)


class Report:
    """Outcome of one identity check or verification sweep.

    checks counts the identity instances checked; mismatches carry enough
    data to reproduce the first failure; flags are known, documented
    discrepancies.  example_docs holds the per-example JSON documents of
    ``verify example``; it is not part of :meth:`to_dict`.
    """

    __slots__ = ("check", "context", "mismatches", "flags", "notes", "checks", "example_docs")

    def __init__(self, check: str, context: dict | None = None):
        self.check = check
        self.context = {} if context is None else context
        self.mismatches: list = []
        self.flags: list = []
        self.notes: list = []
        self.checks = 0
        self.example_docs: list = []

    @property
    def status(self) -> str:
        """"fail" if there is a mismatch, else "empty" if nothing was checked,
        else "flagged" if there is a flag, else "pass"."""
        if self.mismatches:
            return "fail"
        if not self.checks:
            return "empty"
        return "flagged" if self.flags else "pass"

    @property
    def failed(self) -> bool:
        """Whether this report fails a run: every status but pass and flagged."""
        return self.status not in ("pass", "flagged")

    def expect(self, ok: bool, **details) -> bool:
        """Count one identity instance; when ok is false, record details as a
        mismatch, its lhs and rhs rendered by str.  Returns ok."""
        self.checks += 1
        if not ok:
            for side in ("lhs", "rhs"):
                if side in details:
                    details[side] = str(details[side])
            self.mismatches.append(details)
        return ok

    def absorb(self, sub: "Report") -> None:
        """Roll sub into this report, the one way a sub-check joins its suite.

        Adds sub's checks; its mismatches, each named by sub's check and
        context (a mismatch's own keys win over the context's); and each of
        its flags that this report does not hold yet, so a discrepancy seen
        by many sub-checks is flagged once.  Notes stay with sub.
        """
        self.checks += sub.checks
        self.mismatches.extend({"check": sub.check, **sub.context, **mismatch} for mismatch in sub.mismatches)
        for f in sub.flags:
            if f not in self.flags:
                self.flags.append(f)

    def flag(self, message: str) -> "Report":
        self.flags.append(message)
        return self

    def note(self, message: str) -> "Report":
        self.notes.append(message)
        return self

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "status": self.status,
            "checks": self.checks,
            "context": json_safe(self.context),
            "mismatches": json_safe(self.mismatches),
            "flags": list(self.flags),
            "notes": list(self.notes),
        }


def summarize(reports: list[Report]) -> dict:
    """The roll-up of a run's reports: it fails when any report failed
    (:attr:`Report.failed`), else it is flagged when any report holds a flag."""
    failures = sum(1 for r in reports if r.failed)
    flags = sum(len(r.flags) for r in reports)
    return {
        "status": "fail" if failures else ("flagged" if flags else "pass"),
        "suites": len(reports),
        "failures": failures,
        "flags": flags,
        "checks": sum(r.checks for r in reports),
    }
