"""Structured pass/fail/flagged reports shared by all verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Report:
    """Outcome of one identity check or verification sweep.

    mismatches carry enough data to reproduce the first failure; flags are
    known, documented discrepancies.
    """

    check: str
    context: dict = field(default_factory=dict)
    mismatches: list = field(default_factory=list)
    flags: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def status(self) -> str:
        """"fail" if there is a mismatch, else "flagged" if there is a flag, else "pass"."""
        if self.mismatches:
            return "fail"
        return "flagged" if self.flags else "pass"

    def fail(self, **details) -> "Report":
        self.mismatches.append(details)
        return self

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
            "context": json_safe(self.context),
            "mismatches": json_safe(self.mismatches),
            "flags": list(self.flags),
            "notes": list(self.notes),
        }


def carried_mismatches(sub: Report) -> list[dict]:
    """sub's mismatches, each named by sub's check and context; a mismatch's
    own keys win over the context's."""
    return [{"check": sub.check, **sub.context, **mismatch} for mismatch in sub.mismatches]


def merge_reports(check: str, reports: list[Report], context: dict | None = None) -> Report:
    """Roll a list of reports into one; any failure fails the merge, and each
    merged mismatch names the sub-check it came from."""
    merged = Report(check, context=dict(context or {}))
    for r in reports:
        merged.mismatches.extend(carried_mismatches(r))
        merged.flags.extend(r.flags)
        merged.notes.extend(r.notes)
    return merged
