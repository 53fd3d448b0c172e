#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cyclozeta command line.

    python3 perfbench/run.py --workload verify-all --seed 42 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A closed loop with one client repeats *passes* over a workload's
command list until the next pass would end after ``--seconds`` (at least two
passes, or one untraced and one traced pass with ``--trace 1``).  Every
command runs in a fresh interpreter, one at a time: a CLI user pays cold
caches on every command, and in-process repeats would let an input-keyed
cache fake a gain.

Workloads (inputs drawn from ``random.Random(f"{seed}:{workload}:{n}")``,
exponents e(d) in [-2, 2] on every divisor d of n):

* ``verify-all``: ``verify all --seed S`` at the contract sizes.  Many small
  operands in arith, dirichlet, zetaprod and exactpoly; almost no gcds.
* ``analyze-ladder``: ``analyze`` on twenty-six exponent vectors at n = 360.
  Large polynomials: the gcds of RationalFunctionQ reduction dominate, and
  arith's oracles and dirichlet are bypassed.
* ``series-ladder``: ``series --kind power --order 4000`` on two exponent
  vectors at each of n = 60, 120, 180.  The same exactpoly layer through
  its series path: truncated series multiplication dominates and the gcds
  are small.

Other tenants slow this host by up to half, for seconds to minutes at a
time, and that moves every raw timing by more than any bound a benchmark may
set.  So each child also times a fixed pure-Python reference loop around its
import and before, during and after its command (``child.py``).  Every timing
in the result is host-normalised: raw time x ``REF_S`` / the reference
loop's mean time over that stretch, that is, seconds at the host speed at
which the loop takes ``REF_S``.  The raw timings are printed on stderr
beside them, as ``<metric>_raw_s``.

Every command's stdout is checked (see ``checks.py``), must repeat byte for
byte across passes, and at seed 42 must match the SHA-256 recorded in
``reference_seed42.json``.  The last stdout line is the JSON result; a
readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from checks import check_analyze, check_series, check_verify, divisors
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "analyze-ladder", "series-ladder")
# One vector's gcd cost swings by a factor of two with its structure, so a
# steady pass needs many vectors.  Too few of them fit into a run at n = 540
# and 720: passes with vectors there spread by 11 % to 23 % across seeds.
# So the ladder keeps only its bottom rung.  With host-normalised timings the
# inputs set most of the remaining spread: over ten seeds wall_s spread by
# 9 % with 20 vectors and by 5 % with 26.
ANALYZE_N = 360
ANALYZE_VECTORS = 26
# Series cost follows the zero pattern of each vector's expansion, so each n
# gets two vectors; order 4000 keeps the pass inside a run.
SERIES_NS = (60, 120, 180)
SERIES_VECTORS = 2
SERIES_ORDER = 4000
SETUP_PROBES = 9  # import-only interpreters per run, besides the commands'
COMMAND_TIMEOUT_S = 150
# The reference loop's time on this 2-core host (Python 3.11.7) when no
# other tenant slows it; it fixes the scale of the host-normalised timings.
REF_S = 0.0009
REFERENCE = HERE / "reference_seed42.json"


class Command(NamedTuple):
    argv: list[str]
    check: Callable[[str], list[str]]


def exponent_vectors(seed: int, workload: str, n: int, count: int) -> list[dict[int, int]]:
    rng = random.Random(f"{seed}:{workload}:{n}")
    return [{d: rng.randint(-2, 2) for d in divisors(n)} for _ in range(count)]


def zeta_text(n: int, e: dict[int, int]) -> str:
    return f"n={n}; e={{{','.join(f'{d}:{v}' for d, v in e.items())}}}"


def commands(workload: str, seed: int) -> list[Command]:
    if workload == "verify-all":
        argv = ["verify", "all", "--seed", str(seed), "--nmax", "60", "--order", "200"]
        return [Command(argv, check_verify)]
    out = []
    if workload == "analyze-ladder":
        n = ANALYZE_N
        for e in exponent_vectors(seed, workload, n, ANALYZE_VECTORS):
            out.append(Command(["analyze", zeta_text(n, e)], lambda s, e=e: check_analyze(n, e, s)))
    else:
        for n in SERIES_NS:
            for e in exponent_vectors(seed, workload, n, SERIES_VECTORS):
                argv = ["series", zeta_text(n, e), "--kind", "power", "--order", str(SERIES_ORDER)]
                out.append(Command(argv, lambda s, n=n, e=e: check_series(n, e, SERIES_ORDER, s)))
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(argv: list[str] | None, trace: bool, env: dict[str, str]) -> dict:
    """One fresh interpreter; returns the child's report plus ``wall_s`` and
    ``cpu_s`` (children run one at a time, so the rusage delta is its own)."""
    request = json.dumps({"argv": argv, "trace": trace})
    cpu0 = children_cpu_s()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), request],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"wall_s": time.perf_counter() - start, "error": "timed out"}
    wall = time.perf_counter() - start
    cpu = children_cpu_s() - cpu0
    lines = proc.stdout.splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"wall_s": wall, "error": f"child exited {proc.returncode}: {proc.stderr[-2000:]}"}
    # the reference-loop samples are the benchmark's, not the command's
    report["wall_s"] = wall - report.get("ref_spent_s", 0.0)
    report["cpu_s"] = cpu - report.get("ref_spent_s", 0.0)
    if "ref_s" in report:
        report["host_speed"] = REF_S / report["ref_s"]
    if "setup_ref_s" in report:
        report["setup_norm_s"] = report["setup_s"] * REF_S / report["setup_ref_s"]
    if proc.returncode:
        report["error"] = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    return report


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_pass(cmds: list[Command], trace: bool, env: dict[str, str]) -> list[dict]:
    return [run_child(c.argv, trace, env) for c in cmds]


def normalised(result: dict, key: str) -> float:
    """``result[key]`` in seconds at the reference host speed.  A child that
    failed (the run then fails too) counts with its raw wall time."""
    if "host_speed" not in result:
        return result["wall_s"]
    return result[key] * result["host_speed"]


def pass_total(results: list[dict], key: str, norm: bool) -> float:
    return sum(normalised(r, key) if norm else r.get(key, r["wall_s"]) for r in results)


def command_problems(cmd: Command, result: dict, first_stdout: str | None, ref_sha: str | None) -> list[str]:
    if "error" in result:
        return [result["error"]]
    if result["rc"] != 0:
        return [f"exit code {result['rc']}"]
    stdout = result["stdout"]
    if first_stdout is not None:
        return [] if stdout == first_stdout else ["stdout differs from the first pass"]
    problems = cmd.check(stdout)
    if ref_sha is not None and hashlib.sha256(stdout.encode()).hexdigest() != ref_sha:
        problems.append("stdout SHA-256 differs from the seed-42 reference")
    return problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the command-latency tail.

    The highest percentile with at least ten samples beyond it, but not
    below p90: under 100 samples no percentile from p90 up has ten beyond
    it, and a lower one would land inside the fastest rung of a ladder.
    Linear interpolation between order statistics keeps the value
    continuous as the sample count changes with the speed of the program.
    """
    xs = sorted(latencies)
    count = len(xs)
    pct = max(90.0, 100.0 * (1 - 10 / count))
    pos = pct / 100 * (count - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, count - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return value, pct, count - 1 - lo


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    env = child_env()
    cmds = commands(workload, seed)
    refs = json.loads(REFERENCE.read_text()).get(workload, {}) if seed == 42 else {}

    run_child(None, False, env)  # compiles bytecode on a fresh checkout; not measured
    probes = [run_child(None, False, env) for _ in range(SETUP_PROBES)]

    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(cmds, False, env))
        if trace:
            traced.append(run_pass(cmds, True, env))
        passes = len(untraced)
        elapsed = time.perf_counter() - start
        if passes >= (1 if trace else 2) and elapsed * (passes + 1) / passes > seconds:
            break

    attempted = failed = 0
    problems: list[str] = []
    first = [None] * len(cmds)
    for p in untraced + traced:
        for i, (cmd, result) in enumerate(zip(cmds, p)):
            attempted += 1
            found = command_problems(cmd, result, first[i], refs.get(" ".join(cmd.argv)))
            if first[i] is None and "stdout" in result and not found:
                first[i] = result["stdout"]
            if found:
                failed += 1
                problems.append(f"{' '.join(cmd.argv)[:80]}: {'; '.join(found)[:400]}")

    results = [r for p in untraced for r in p]
    setups = [r for r in probes + results if "setup_norm_s" in r]
    raw_latencies = [r["cmd_s"] for r in results if "cmd_s" in r]
    latencies = [normalised(r, "cmd_s") for r in results if "cmd_s" in r]
    tail_s, tail_pct, beyond = tail(latencies)
    info = {
        "sha": git_sha(), "python": platform.python_version(), "nproc": nproc(),
        "workload": workload, "seed": seed, "seconds": seconds,
        "passes": len(untraced), "commands": len(latencies), "tail_percentile": tail_pct,
        "host_speed": statistics.median(r.get("host_speed", 1.0) for r in results),
        "tail_beyond": beyond, "fail_ratio": failed / attempted, "problems": problems,
        "attempted": attempted, "failed": failed,
    }
    e2e = {
        "setup_s": statistics.median(r["setup_norm_s"] for r in setups),
        "wall_s": statistics.median(pass_total(p, "wall_s", True) for p in untraced),
        "cpu_s": statistics.median(pass_total(p, "cpu_s", True) for p in untraced),
        "cmd_p50_s": statistics.median(latencies),
        "cmd_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "setup_raw_s": statistics.median(r["setup_s"] for r in setups),
        "wall_raw_s": statistics.median(pass_total(p, "wall_s", False) for p in untraced),
        "cpu_raw_s": statistics.median(pass_total(p, "cpu_s", False) for p in untraced),
        "cmd_p50_raw_s": statistics.median(raw_latencies),
        "cmd_tail_raw_s": tail(raw_latencies)[0],
    }
    layers: dict[str, float] = {}
    if trace:
        per_pass = [layer_metrics(sum_traces(p)) for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_ratio"] = (
            statistics.median(pass_total(p, "wall_s", True) for p in traced) / e2e["wall_s"]
        )
        info["spans"] = sum_traces(traced[0])["spans"]
    return info, {"e2e": e2e, "layers": layers}


def sum_traces(results: list[dict]) -> dict:
    """Span and cache totals over one pass, span times host-normalised."""
    spans: dict[str, list] = {}
    caches: dict[str, list] = {}
    for r in results:
        raw = r.get("trace")
        if raw is None:
            continue
        speed = r.get("host_speed", 1.0)
        for name, (calls, total, self_s, outcome) in raw["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total * speed
            acc[2] += self_s * speed
            acc[3] += outcome
        for key, rec in raw["caches"].items():
            acc = caches.setdefault(key, [0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
    return {"spans": spans, "caches": caches}


# The end-to-end metrics BENCHMARK.json gates; the others are printed on
# stderr only.  The raw timings move with the host by more than any allowed
# bound.  On analyze-ladder the command latencies follow the seed's inputs:
# over ten seeds cmd_p50_s spread by 6 % and cmd_tail_s by 10 %, but over
# five seeds with 20 vectors by 21 % and 19 %.  wall_s carries their changes.
# fail_ratio is 0 in every passing run, and the result's attempted and failed
# carry it.
GATED = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")


def e2e_unit(name: str) -> str:
    return {"peak_rss_mb": "MB", "fail_ratio": "ratio"}.get(name, "s")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return "ratio"


def summarize(info: dict, metrics: dict, out) -> None:
    print(f"# cyclozeta benchmark: workload={info['workload']} seed={info['seed']} "
          f"seconds={info['seconds']} sha={info['sha']} python={info['python']} "
          f"nproc={info['nproc']}", file=out)
    print(f"# {info['passes']} untraced passes, {info['commands']} commands; "
          f"attempted {info['attempted']}, failed {info['failed']}; host speed "
          f"{info['host_speed']:.3f} of the reference (median over commands)", file=out)
    e2e = dict(metrics["e2e"], fail_ratio=info["fail_ratio"])
    for name, value in e2e.items():
        note = ""
        if name.startswith("cmd_tail_"):
            note = (f"  (p{info['tail_percentile']:.1f} of {info['commands']} commands, "
                    f"{info['tail_beyond']} beyond it)")
        print(f"{name:>14} {value:12.6f} {e2e_unit(name)}{note}", file=out)
    for problem in info["problems"][:10]:
        print(f"FAILED {problem}", file=out)
    if metrics["layers"]:
        print("# per layer (median over traced passes, one pass each)", file=out)
        for name, value in sorted(metrics["layers"].items()):
            print(f"{name:>50} {value:14.6f} {layer_unit(name)}", file=out)
        spans = info["spans"]
        cli_total = spans["cli.main"][1]
        ranked = sorted(spans.items(), key=lambda kv: -kv[1][2])[:8]
        print("# where the time goes: self time as a share of traced cli.main time", file=out)
        for name, (calls, _total, self_s, _o) in ranked:
            print(f"{name:>50} {100 * self_s / cli_total:6.1f} %  ({calls} calls)", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cyclozeta" / "cli.py").is_file():
        print(f"error: no cyclozeta source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info, metrics = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    summarize(info, metrics, sys.stderr)
    chosen = metrics["layers"] if args.trace else {k: metrics["e2e"][k] for k in GATED}
    units = layer_unit if args.trace else e2e_unit
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in chosen.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
