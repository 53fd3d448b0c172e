"""The benchmark's independent output checks in perfbench/checks.py, run on
the CLI's own output, and the benchmark's own unit tests, so that output
drift in ``analyze`` or ``series``, a tracer path that no longer resolves or
an incomplete trace fails here and not only in a benchmark run."""

import contextlib
import importlib.util
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cyclozeta.arith import divisors
from cyclozeta.cli import main

CHECKS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
SERIES_ORDER = 200


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
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


def test_perfbench_unit_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=CHECKS_PATH.parent.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr[-4000:]
