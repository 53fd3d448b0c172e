"""Independent checks of cyclozeta's text output, by plain integer divisor sums.

Each check takes the exponent vector the benchmark generated and the stdout
of one command, and returns a list of problems (empty when the output is
right).  Nothing here imports cyclozeta, so a bug in the package cannot hide
itself in its own check.
"""

from __future__ import annotations

import ast
import math

# the three discrepancies the package documents and reports as flags
VERIFY_FLAGS = (
    "eta sign: direct log derivative is the negative of the Lambert-form display",
    "X_9 power line inconsistent with its m-line: stored -2/(1-q^2) vs recomputed 2/(1-q^2)",
    "J_10 power line inconsistent with its m-line: stored 3/(1-q^4) but 4 does not divide 6; "
    "recomputed term sits at d=3; stored 0/(1-q^3) vs recomputed 3/(1-q^3)",
)


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def check_verify(stdout: str) -> list[str]:
    """All suites pass except the documented flags, and the summary says so."""
    lines = stdout.splitlines()
    problems = []
    if not lines or lines[-1] != "status: pass  flags: 3  failures: 0":
        problems.append(f"summary line is {lines[-1] if lines else None!r}")
    flags = tuple(line.strip()[len("flag: "):] for line in lines if line.strip().startswith("flag: "))
    if flags != VERIFY_FLAGS:
        problems.append(f"flags are {flags!r}")
    suites = [line for line in lines if line.startswith("[")]
    if len(suites) != 11 or any(not s.startswith(("[PASS   ]", "[FLAGGED]")) for s in suites):
        problems.append(f"suite lines are {suites!r}")
    return problems


def check_analyze(n: int, e: dict[int, int], stdout: str) -> list[str]:
    """n, mu_e, m, p and the cyclotomic exponents, recomputed from e."""
    fields = _fields(stdout)
    want_m = [sum(e[n // d] for d in divisors(math.gcd(k, n))) for k in range(n)]
    want_p = [sum(d * e[d] for d in divisors(math.gcd(k, n))) for k in range(n)]
    want = {
        "n": n,
        "mu_e": sum(e.values()),
        "m": want_m,
        "p": want_p,
        "cyclotomic_exponents": {str(d): want_m[(n // d) % n] for d in divisors(n)},
    }
    problems = []
    for key, value in want.items():
        try:
            got = ast.literal_eval(fields[key])
        except (KeyError, ValueError, SyntaxError):
            problems.append(f"{key} missing or unreadable")
            continue
        if got != value:
            problems.append(f"{key} differs from the divisor-sum recomputation")
    return problems


def series_closed_form(n: int, e: dict[int, int], order: int) -> tuple[list[int], list[int]]:
    """The m- and p-series against g = q/(1-q), coefficient by coefficient.

    sum over d | n of w(d) q/(1 - q**d) has coefficient k equal to the sum of
    w(d) over d | n with d | k-1 (every d when k = 1); w(d) = e(n/d) for m
    and d e(d) for p.
    """
    m = [0] * order
    p = [0] * order
    for d in divisors(n):
        for k in range(1, order, d):
            m[k] += e[n // d]
            p[k] += d * e[d]
    return m, p


def check_series(n: int, e: dict[int, int], order: int, stdout: str) -> list[str]:
    fields = _fields(stdout)
    want_m, want_p = series_closed_form(n, e, order)
    problems = []
    if fields.get("n") != str(n) or fields.get("order") != str(order):
        problems.append("n or order not echoed")
    for key, value in (("m", want_m), ("p", want_p)):
        try:
            got = ast.literal_eval(fields[key])
        except (KeyError, ValueError, SyntaxError):
            problems.append(f"{key} missing or unreadable")
            continue
        if got != value:
            problems.append(f"{key}-series differs from the closed form")
    return problems
