"""Mutation check: every entry breaks the program in one place, and its test
must catch the fault.

    python tests/mutants.py

Each entry is (path, old, new, test id).  An entry whose ``old`` text does
not occur exactly once in its file is refused before anything runs.  The
repository is copied, without ``.git``, to a temporary directory; each entry
is applied there alone and its test is run with ``python -m pytest -q -x``.
The script exits 1 and names every mutant whose test still passes (or could
not run), and 0 when every mutant is caught.

Stdlib only.  pytest does not collect this file, so it is not part of the
test suite; run it after changing a test that an entry names.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ARITH = "src/cyclozeta/arith.py"
ZETAPROD = "src/cyclozeta/zetaprod.py"
DIRICHLET = "src/cyclozeta/dirichlet.py"
CLI = "src/cyclozeta/cli.py"
EVEN = "tests/test_arith.py::TestDivisorMapAtResidues"

MUTANTS = [
    (ARITH, "return self.values[math.gcd(k, self.n)]", "return self.values[math.gcd(k + 1, self.n)]",
     f"{EVEN}::test_value_at_k_is_the_value_at_gcd"),
    (ARITH, "v[math.gcd(k, n)] for k in range(n))", "v[math.gcd(k, n)] for k in range(1, n + 1))",
     f"{EVEN}::test_residues_list_a_of_0_to_n_minus_1"),
    (ARITH, "{d: v + other.values[d] for", "{d: v - other.values[d] for",
     f"{EVEN}::test_sum_is_taken_divisor_by_divisor"),
    (ARITH, "if not isinstance(other, DivisorMap) or other.n != self.n:", "if not isinstance(other, DivisorMap):",
     f"{EVEN}::test_sum_of_different_conductors_is_refused"),
    (ZETAPROD, "sum(a[n // d] * ramanujan_sum(d, g)", "sum(a[d] * ramanujan_sum(d, g)",
     "tests/test_zetaprod.py::TestFourier::test_dft_power_sums"),
    (ZETAPROD, "div_exact(total, n)", "total",
     "tests/test_zetaprod.py::TestFourier::test_reconstruction_of_multiplicities"),
    (ZETAPROD, "1 if at_roots[n // c] else -1", "1 if at_roots[c] else -1",
     "tests/test_zetaprod.py::TestGeneratingForms::test_lambert_form_is_the_partial_fraction_sum"),
    (ZETAPROD, ", parse_int=_refuse_minus_zero", "",
     "tests/test_cli.py::TestDualAndSeries::test_json_input_refuses_minus_zero"),
    (DIRICHLET, "for d in divisors(k):", "for d in divisors(k)[:-1]:",
     "tests/test_dirichlet.py::TestSeriesAlgebra::test_invert_round_trip"),
    (DIRICHLET, "mobius_inversion(n, a.values) for a in (m, p)", "mobius_inversion(n, a.values) for a in (p, m)",
     "tests/test_dirichlet.py::TestStarSeries::test_zeta_and_mobius"),
    (CLI, '"m": list(m.residues())', '"m": list(m.values)',
     "tests/test_cli.py::TestAnalyze::test_json_lists_every_residue_of_the_even_functions"),
    (CLI, 're.fullmatch("0|-?[1-9][0-9]*", text)', 're.fullmatch("-?[0-9]+", text)',
     "tests/test_cli.py::TestVerifyCommand::test_integer_flags_refuse_non_canonical_numbers"),
    (CLI, "return _int(text, minimum=1)", "return _int(text)",
     "tests/test_cli.py::TestVerifyCommand::test_sizes_below_one_are_refused"),
]


def check_entries() -> None:
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            sys.exit(f"{path}: {old!r} occurs {count} times, not exactly once")


def run(copy: Path, path: str, old: str, new: str, test: str) -> int:
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(old, new))
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
        return subprocess.run(argv, cwd=copy, env=env, capture_output=True).returncode
    finally:
        target.write_text(original)


def main() -> int:
    check_entries()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        for path, old, new, test in MUTANTS:
            code = run(copy, path, old, new, test)
            # pytest exits 1 when a test failed; 0 means the mutant survived,
            # anything else that the test could not run
            verdict = "caught" if code == 1 else "SURVIVED" if code == 0 else f"NOT RUN (pytest exit {code})"
            print(f"{verdict:10s} {path}: {old!r} -> {new!r}  [{test}]", flush=True)
            if code != 1:
                survivors.append(f"{path}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants caught")
    for s in survivors:
        print(f"surviving: {s}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
