#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads verify-all analyze-ladder --seeds 42 11 12 13 14
    python3 perfbench/spread.py --seeds 42 11 12 13 14 15 16 17 18 19 --baseline out.json

Runs ``run.py`` once per workload and seed, one at a time.  The spread of a
metric is the distance between the first and third quartiles of its values
(``statistics.quantiles(values, n=4)``) as a share of their median.  With
``--baseline`` it also makes one traced run per workload at the first seed
and writes every end-to-end and per-layer value to the given file, in the
form of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, e2e_unit, git_sha, nproc  # noqa: E402


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.splitlines()[-1])
    # the summary on stderr has every end-to-end metric, raw ones included
    result["printed"] = {m[1]: float(m[2]) for m in PRINTED.finditer(proc.stderr.split("# per layer")[0])}
    return result


PRINTED = re.compile(r"^ *([a-z0-9_]+) +(-?[0-9.]+) [a-zA-Z]+", re.M)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        failed_runs = 0
        for seed in args.seeds:
            result = one_run(workload, seed, args.seconds, 0)
            failed_runs += not result["correct"]
            for name, value in result["printed"].items():
                values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()), flush=True)
        e2e = {}
        for name, vs in values.items():
            e2e[name] = dict(quartiles(vs), unit=e2e_unit(name), gated=name in bounds)
            if name in bounds:
                print(f"  {name:>12} median {e2e[name]['median']:10.4f}  spread "
                      f"{e2e[name]['spread']:.3f}  (bound {bounds[name]}, a third "
                      f"{bounds[name] / 3:.3f})", flush=True)
        out[workload] = {"runs": len(args.seeds), "failed_runs": failed_runs, "end_to_end": e2e}
        if args.baseline:
            traced = one_run(workload, args.seeds[0], args.seconds, 1)
            out[workload]["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
    if args.baseline:
        baseline = {
            "what": f"medians and quartiles over {len(args.seeds)} untraced runs per workload "
                    f"(seeds {' '.join(map(str, args.seeds))}); per_layer is one traced run per "
                    f"workload at seed {args.seeds[0]}",
            "sha": git_sha(), "python": sys.version.split()[0], "nproc": nproc(),
            "run_seconds": args.seconds, "workloads": out,
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
