"""The mutation table stays current: every snippet of tests/mutants.py still
occurs exactly once in its file.  The kill run itself, which needs a copy of
the tree and a child pytest per mutant, is ``python tests/mutants.py``."""

from tests.mutants import MUTANTS, unmatched


def test_every_mutant_snippet_matches_once():
    assert unmatched() == []


def test_mutant_names_are_unique():
    names = [row[0] for row in MUTANTS]
    assert len(set(names)) == len(names)
