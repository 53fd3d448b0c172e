"""Each command imports only the modules it runs, and the lazy ``cyclozeta``
namespace still offers every public name."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cyclozeta
import cyclozeta.cli
import cyclozeta.dirichlet
import cyclozeta.verify

SRC = Path(cyclozeta.__file__).resolve().parents[1]
EVERY_MODULE = {"cyclozeta"} | {
    f"cyclozeta.{p.stem}" for p in (SRC / "cyclozeta").glob("*.py") if p.stem != "__init__"}
# what ``import cyclozeta, cyclozeta.cli`` loads: the CLI and what its
# analyze and dual commands run
CLI_CORE = {"cyclozeta", "cyclozeta.arith", "cyclozeta.exactpoly", "cyclozeta.report", "cyclozeta.zetaprod",
            "cyclozeta.cli"}


def run_fresh(script: str) -> str:
    """The stdout of ``script`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(*argvs: list[str], watch: tuple[str, ...] = ("cyclozeta",)) -> set[str]:
    """The modules under the top-level names ``watch`` that a fresh
    interpreter has loaded after ``import cyclozeta, cyclozeta.cli`` and the
    CLI commands ``argvs``; none of them may be loaded before the import."""
    return set(run_fresh(
        "import sys\n"
        f"watch = {watch!r}\n"
        "assert not [m for m in sys.modules if m.partition('.')[0] in watch], 'loaded before the import'\n"
        "import contextlib, io\n"
        "import cyclozeta, cyclozeta.cli\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cyclozeta.cli.main(argv) == 0, argv\n"
        "print(' '.join(m for m in sys.modules if m.partition('.')[0] in watch))\n"
    ).split())


class TestImportFootprint:
    def test_the_package_and_the_cli_load_only_the_core(self):
        assert loaded_after() == CLI_CORE

    def test_analyze_and_dual_load_nothing_more(self):
        product = "n=12; e={1:1,2:-1,3:0,4:2,6:-1,12:1}"
        assert loaded_after(["analyze", product], ["dual", product]) == CLI_CORE

    def test_the_cli_core_loads_neither_dataclasses_nor_inspect(self):
        """Neither is loaded by ``site`` (asserted before the import), so the
        CLI core, analyze and dual would be the ones to load them."""
        product = "n=12; e={1:1,2:-1,3:0,4:2,6:-1,12:1}"
        argvs = (["analyze", product], ["--format", "json", "analyze", product], ["dual", product])
        assert loaded_after(*argvs, watch=("dataclasses", "inspect")) == set()

    def test_a_power_series_adds_only_dirichlet(self):
        argv = ["series", "n=6; e={1:-1,2:1,3:1,6:-1}", "--kind", "power", "--order", "20"]
        assert loaded_after(argv) == CLI_CORE | {"cyclozeta.dirichlet"}

    def test_series_loads_neither_dataclasses_nor_what_they_pull_in(self):
        """``dirichlet``'s one record type is a NamedTuple, so neither kind of
        series compiles ``dataclasses`` and the modules it imports."""
        product = "n=6; e={1:-1,2:1,3:1,6:-1}"
        argvs = (["series", product, "--order", "20"], ["series", product, "--kind", "power", "--order", "20"])
        watch = ("dataclasses", "inspect", "ast", "dis", "tokenize")
        assert loaded_after(*argvs, watch=watch) == set()

    def test_catalog_verify_adds_only_catalog(self):
        assert loaded_after(["catalog", "verify"]) == CLI_CORE | {"cyclozeta.catalog"}

    def test_verify_all_loads_every_module(self):
        argv = ["verify", "all", "--nmax", "6", "--order", "20", "--trials", "1", "--n", "6"]
        assert loaded_after(argv) == EVERY_MODULE


class TestLazyNamespace:
    @pytest.mark.parametrize("name", cyclozeta.__all__)
    def test_each_name_comes_from_the_module_that_defines_it(self, name):
        value = getattr(cyclozeta, name)
        if name == "catalog":
            assert value is sys.modules["cyclozeta.catalog"] and cyclozeta._EXPORTS[name] == "catalog"
        else:
            assert value.__module__ == f"cyclozeta.{cyclozeta._EXPORTS[name]}"
            assert getattr(sys.modules[value.__module__], name) is value

    def test_a_fresh_interpreter_lists_and_resolves_every_name(self):
        listed = run_fresh(
            "import cyclozeta\n"
            "print(' '.join(dir(cyclozeta)))\n"
            "for name in cyclozeta.__all__:\n"
            "    getattr(cyclozeta, name)\n"
        ).split()
        assert set(cyclozeta.__all__) | {"__version__"} <= set(listed)

    def test_an_unknown_name_is_refused_by_name(self):
        with pytest.raises(AttributeError, match="'no_such_name'"):
            cyclozeta.no_such_name  # noqa: B018

    def test_star_import_binds_every_public_name(self):
        namespace: dict = {}
        exec("from cyclozeta import *", namespace)
        assert {name: namespace[name] for name in cyclozeta.__all__} == {
            name: getattr(cyclozeta, name) for name in cyclozeta.__all__}

    def test_the_cli_choices_are_the_ones_the_modules_define(self):
        assert cyclozeta.cli.SCOPES == tuple(sorted(cyclozeta.verify.SCOPE_SUITES))
        assert cyclozeta.cli.SERIES_G == tuple(sorted(cyclozeta.dirichlet.SERIES_MAKERS))
        parser = cyclozeta.cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        choices = {a.dest: a.choices for a in commands["verify"]._actions + commands["series"]._actions}
        assert choices["scope"] == cyclozeta.cli.SCOPES and choices["G"] == cyclozeta.cli.SERIES_G
