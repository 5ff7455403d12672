"""The table of ``tests/mutants.py`` stays applicable: every anchor occurs
exactly once in its file, every mutant changes it, and every node ID
names a test function of an existing test file.  No mutant is run here;
``python3 tests/mutants.py`` runs them."""

import ast

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names)) >= 8


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_anchor_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.anchor) == 1
    assert mutant.replacement != mutant.anchor
    mutated = text.replace(mutant.anchor, mutant.replacement)
    ast.parse(mutated)  # a mutant is a fault, not a syntax error


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_node_id_names_a_test(mutant):
    assert mutant.node_ids
    for node_id in mutant.node_ids:
        path, name = node_id.split("::")
        tree = ast.parse((ROOT / path).read_text())
        assert name in {node.name for node in tree.body
                        if isinstance(node, ast.FunctionDef)}, node_id
