"""Rules on the package source itself."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import dirac_su11
from dirac_su11.qsfield import Quadratic

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


def test_quadratic_representation_is_private():
    # an element of Q(s) is an integer triple that only qsfield reads;
    # everything else goes through the parts a, b and d and builds elements
    # through the named constructors (of, from_ints, zero, one, root)
    private = {name for name in Quadratic.__slots__ if name.startswith("_")}
    found = []
    for top in ("src", "tests", "benchmark"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == SRC / "qsfield.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr in private:
                    found.append(f"{path.name}:{node.lineno} .{node.attr}")
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "Quadratic"):
                    found.append(f"{path.name}:{node.lineno} Quadratic(...)")
    assert private and found == []
