"""The mutant table of ``tools/mutants.py`` stays re-runnable: each
anchor occurs exactly once in its file under ``src/``, and each test it
names lives in a test file of the suite."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_anchor_occurs_once_under_src(mutant):
    assert mutant.file.startswith("src/")
    assert mutants.anchor_count(mutant) == 1
    assert mutant.tests
    for test in mutant.tests:
        assert (ROOT / test.split("::")[0]).is_file(), test
