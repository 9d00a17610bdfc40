"""Rules on the package source itself."""

import ast
import re
from collections import defaultdict
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


STATE_TYPES = {"LadderState", "RadialPair", "SpectralPoint"}


def test_precision_comes_from_the_state():
    # a state, pair or spectral point carries the precision it was built
    # at; a function handed one reads it there, so no second value can
    # disagree with it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if not params:
                continue
            first = params[0].annotation
            kind = getattr(first, "id", getattr(first, "value", None))
            if kind in STATE_TYPES and any(p.arg == "precision" for p in params):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


ROOT = Path(__file__).resolve().parent.parent


def test_no_uncalled_helpers():
    # every module- or class-level def/class of the package (dunders
    # aside) is named somewhere besides its own definition line
    where = defaultdict(set)
    for top in ("src", "tests", "benchmark"):
        for path in (ROOT / top).rglob("*.py"):
            for lineno, text in enumerate(path.read_text().splitlines(), 1):
                for word in re.findall(r"\w+", text):
                    where[word].add((path, lineno))
    uncalled = []
    for path in sorted((ROOT / "src" / "dirac_su11").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if not where[name] - {(path, node.lineno)}:
                    uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert uncalled == []
