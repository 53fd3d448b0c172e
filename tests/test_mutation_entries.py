"""The committed mutation run's entries still point at the code and the tests
they name, and list each (file, old, new) fault once, so an entry whose text
moved or repeats another fails here and not only in a manual
``python tests/mutants.py`` run."""

import importlib.util
from pathlib import Path


def test_every_mutant_entry_applies_once_and_names_an_existing_test():
    spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.check_entries() == []
