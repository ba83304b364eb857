"""The named mutants of ``mutants.py`` still name the code they mutate.

Running them takes a copy of the repository and a pytest run each, so
that is left to ``python3 tests/mutants.py``; these checks only read the
files."""
import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_each_mutant_line_occurs_once(mutant):
    assert occurrences(mutant) == 1, f"{mutant.path} no longer holds {mutant.line!r} once"
    assert mutant.replacement != mutant.line
    assert mutant.tests and all((ROOT / path).is_file() for path in mutant.tests)


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)
