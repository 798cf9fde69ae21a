"""The mutant table of tests/mutants.py stays applicable: each mutant's
text occurs exactly once in its file, and each test it names exists."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_exactly_once(mutant):
    text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.old != mutant.new


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_names_existing_tests(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), node
