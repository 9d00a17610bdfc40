"""Rules on the package source itself."""

import ast
from pathlib import Path

import dirac_su11

SRC = Path(dirac_su11.__file__).parent


def test_no_assert_statements():
    # python -O strips assert statements, and with them the check; a
    # failed internal check must raise AssertionError explicitly
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_all_names_resolve():
    # a star import fails on the first stale name in __all__
    missing = [name for name in dirac_su11.__all__ if not hasattr(dirac_su11, name)]
    assert missing == []
    assert len(set(dirac_su11.__all__)) == len(dirac_su11.__all__)
