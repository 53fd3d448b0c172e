"""The benchmark's independent output checks in perfbench/checks.py, run on
the CLI's own output, the seed-42 reference digests, and the benchmark's own
unit tests, so that output drift in ``analyze``, ``series`` or ``verify all``,
a tracer path that no longer resolves or an incomplete trace fails here and
not only in a benchmark run."""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cyclozeta.arith import divisors
from cyclozeta.cli import main

CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
RUN_PATH = CHECKS_PATH.parent / "run.py"
SERIES_ORDER = 200


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench_run():
    # run.py imports its sibling modules by their bare names
    sys.path.insert(0, str(RUN_PATH.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(RUN_PATH.parent))
    return module


def stdout_of(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue()


def vectors():
    rng = random.Random(3)
    for n in (1, 12, 30):
        yield n, {d: 0 for d in divisors(n)}
        yield n, {d: rng.randint(-2, 2) for d in divisors(n)}


@pytest.mark.parametrize("n, e", list(vectors()))
def test_analyze_and_power_series_pass_the_benchmark_checks(checks, n, e):
    text = f"n={n}; e={{{','.join(f'{d}:{v}' for d, v in e.items())}}}"
    assert checks.check_analyze(n, e, stdout_of("analyze", text)) == []
    out = stdout_of("series", text, "--kind", "power", "--order", str(SERIES_ORDER))
    assert checks.check_series(n, e, SERIES_ORDER, out) == []


def test_seed42_stdout_matches_the_benchmark_reference(perfbench_run):
    # every analyze-ladder command and one series-ladder command, in-process:
    # any printed byte that moves changes a digest
    reference = json.loads(perfbench_run.REFERENCE.read_text())
    runs = [("analyze-ladder", cmd) for cmd in perfbench_run.commands("analyze-ladder", 42)]
    runs.append(("series-ladder", perfbench_run.commands("series-ladder", 42)[0]))
    assert len(runs) == 27
    for workload, cmd in runs:
        digest = hashlib.sha256(stdout_of(*cmd.argv).encode()).hexdigest()
        assert digest == reference[workload][" ".join(cmd.argv)], cmd.argv


def test_verify_all_stdout_matches_the_benchmark_reference(perfbench_run):
    # the verify-all workload's one command, in-process (about 3 s)
    reference = json.loads(perfbench_run.REFERENCE.read_text())
    (cmd,) = perfbench_run.commands("verify-all", 42)
    digest = hashlib.sha256(stdout_of(*cmd.argv).encode()).hexdigest()
    assert digest == reference["verify-all"][" ".join(cmd.argv)]


def test_perfbench_unit_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=CHECKS_PATH.parent.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-4000:]
