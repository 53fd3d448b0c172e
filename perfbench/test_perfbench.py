"""Tests of the benchmark itself: trace completeness, the output checks and
the host-speed samples.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import cyclozeta.cli  # noqa: E402
from checks import VERIFY_FLAGS, check_analyze, check_series, check_verify, divisors  # noqa: E402
from run import REF_S, child_env, normalised, run_child, tail, zeta_text  # noqa: E402

# Runs one command under cProfile with the tracer installed and prints, per
# span, the tracer's count and the number of calls that reached the original
# functions: cProfile's ncalls for plain functions, and the cache_info()
# delta for lru-cached ones (their C wrapper is invisible to cProfile).
PROBE = r"""
import cProfile, contextlib, io, json, sys
import cyclozeta.cli
from tracer import Tracer

tracer = Tracer()
tracer.install()
cached = {name: [(fn, fn.cache_info()) for fn in fns if hasattr(fn, "cache_info")]
          for name, fns in tracer.originals.items()}
profile = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    rc = profile.runcall(cyclozeta.cli.main, json.loads(sys.argv[1]))
profile.create_stats()
ncalls = {}
for (filename, line, func), (_cc, nc, _tt, _ct, _callers) in profile.stats.items():
    ncalls[(filename, line, func)] = nc
out = {"rc": rc, "spans": {}}
for name, fns in tracer.originals.items():
    reached = 0
    for fn in fns:
        if hasattr(fn, "cache_info"):
            before = dict((id(f), i) for f, i in cached[name])[id(fn)]
            after = fn.cache_info()
            reached += after.hits + after.misses - before.hits - before.misses
        else:
            code = fn.__code__
            reached += ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
    out["spans"][name] = [tracer.stats[name][0], reached]
print(json.dumps(out))
"""


def small_vector(n: int, seed: int = 3) -> dict[int, int]:
    rng = random.Random(f"{seed}:test:{n}")
    return {d: rng.randint(-2, 2) for d in divisors(n)}


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cyclozeta.cli.main(argv)
    if rc != 0:
        raise AssertionError(f"{argv} exited {rc}")
    return out.getvalue()


class TraceCompleteness(unittest.TestCase):
    """Every call into a spanned function must pass through its span."""

    SMALL = {
        "verify-all": ["verify", "all", "--seed", "7", "--nmax", "8", "--order", "24", "--trials", "2"],
        "analyze-ladder": ["analyze", zeta_text(36, small_vector(36))],
        "series-ladder": ["series", zeta_text(12, small_vector(12)), "--kind", "power", "--order", "300"],
    }

    def test_traced_calls_equal_profiled_calls(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        for workload, argv in self.SMALL.items():
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, "-c", PROBE, json.dumps(argv)],
                    env=env, capture_output=True, text=True, timeout=300, check=True,
                )
                out = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(out["rc"], 0)
                missed = {name: counts for name, counts in out["spans"].items()
                          if counts[0] != counts[1]}
                self.assertEqual(missed, {}, "span: [traced, reached]")
                self.assertGreater(out["spans"]["cli.main"][0], 0)


class OutputChecks(unittest.TestCase):
    def test_series_closed_form_holds_and_catches_a_wrong_coefficient(self):
        for n in (60, 12, 7):
            e = small_vector(n)
            stdout = run_cli(["series", zeta_text(n, e), "--kind", "power", "--order", "400"])
            self.assertEqual(check_series(n, e, 400, stdout), [])
            broken = stdout.replace("m: [0, ", "m: [1, ", 1)
            self.assertNotEqual(check_series(n, e, 400, broken), [])

    def test_analyze_recomputation_holds_and_catches_a_wrong_exponent(self):
        for n in (60, 12, 7):
            e = small_vector(n)
            stdout = run_cli(["analyze", zeta_text(n, e)])
            self.assertEqual(check_analyze(n, e, stdout), [])
            wrong = {**e, 1: e[1] + 1}
            self.assertNotEqual(check_analyze(n, wrong, stdout), [])

    def test_verify_check_wants_the_three_documented_flags(self):
        suites = ["[PASS   ] s"] * 9 + ["[FLAGGED] eta", "[FLAGGED] catalog"]
        flags = [f"          flag: {f}" for f in VERIFY_FLAGS]
        good = "\n".join(suites + flags + ["status: pass  flags: 3  failures: 0"])
        self.assertEqual(check_verify(good), [])
        self.assertNotEqual(check_verify(good.replace("flags: 3", "flags: 2")), [])
        self.assertNotEqual(check_verify("\n".join(suites + flags[:2] + [good.splitlines()[-1]])), [])
        self.assertNotEqual(check_verify(good.replace("[PASS   ]", "[FAIL   ]", 1)), [])


class HostSpeed(unittest.TestCase):
    def test_child_samples_the_host_while_the_command_runs(self):
        argv = ["series", zeta_text(60, small_vector(60)), "--kind", "power", "--order", "1500"]
        report = run_child(argv, False, child_env())
        self.assertEqual(report["rc"], 0)
        # one sample before, one after, and SIGPROF samples in between
        self.assertGreaterEqual(report["ref_samples"], 3)
        self.assertAlmostEqual(normalised(report, "cmd_s"), report["cmd_s"] * REF_S / report["ref_s"])
        self.assertAlmostEqual(report["setup_norm_s"],
                               report["setup_s"] * REF_S / report["setup_ref_s"])
        # the samples' own time is taken off the command's
        self.assertGreater(report["wall_s"], report["cmd_s"])
        self.assertGreater(report["ref_spent_s"], 0)


class Tail(unittest.TestCase):
    def test_tail_is_p90_below_100_samples_and_keeps_ten_beyond_above(self):
        value, pct, beyond = tail([float(i) for i in range(1, 11)])
        self.assertEqual(pct, 90.0)
        self.assertAlmostEqual(value, 9.1)
        self.assertEqual(beyond, 1)
        value, pct, beyond = tail([float(i) for i in range(200)])
        self.assertEqual(pct, 95.0)
        self.assertGreaterEqual(beyond, 10)


if __name__ == "__main__":
    unittest.main()
