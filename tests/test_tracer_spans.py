"""The per-layer tracer in perfbench/ names functions of this package by
attribute path; every such path must still resolve, so that deleting or
renaming a traced kernel fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(tracer, name):
    return importlib.import_module(f"{tracer.PACKAGE}.{name}")


def test_every_span_path_resolves_to_a_function_defined_on_its_owner(tracer):
    for span, (mod, paths) in tracer.SPANS.items():
        for path in paths:
            owner, attr = tracer._resolve(package_module(tracer, mod), path)
            # install() rebinds vars(owner)[attr], so the name must live on the owner itself
            assert callable(vars(owner).get(attr)), (span, path)


def test_every_cached_path_is_an_lru_cache(tracer):
    for key, (mod, attr) in tracer.CACHED.items():
        assert callable(getattr(getattr(package_module(tracer, mod), attr, None), "cache_info", None)), key


def test_whole_modules_and_suites_exist(tracer):
    for mod in tracer.WHOLE_MODULES:
        package_module(tracer, mod)
    assert package_module(tracer, "verify").SUITES
