"""Rules on the package source itself."""

import ast
import json
import re
import subprocess
import sys
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


def test_bare_import_loads_no_module():
    # every export resolves on first use, so importing the package loads
    # none of its modules and no mpmath; dir() lists the exports all the same
    code = ("import json, sys, dirac_su11; print(json.dumps(["
            "sorted(m for m in sys.modules if m.startswith('dirac_su11.') or m == 'mpmath'),"
            " sorted(set(dirac_su11.__all__) - set(dir(dirac_su11)))]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]


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


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _names_used(path):
    """The identifiers a file uses: its names, attributes and import
    aliases, and the parts of its dotted string constants (the tracer names
    what it wraps as ("qsfield", "QsPolynomial.eval_mp")). A word in a
    comment or a docstring is no use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            used.update(node.value.split("."))
    return used


def test_no_uncalled_helpers():
    # every module- or class-level def/class of the package (dunders
    # aside) is used by name somewhere: in the package, a script or the
    # benchmark. The package's export lists do not count, and neither do
    # tests: a helper only a test calls is dead
    used = set()
    for top in ("src", "scripts", "benchmark"):
        for path in (ROOT / top).rglob("*.py"):
            if path != SRC / "__init__.py":
                used |= _names_used(path)
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
                if name not in used:
                    uncalled.append(f"{path.name}:{node.lineno} {name}")
    assert uncalled == []


def _imported_modules(path):
    """Absolute names of the modules a package file imports, anywhere in
    it, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("dirac_su11", base)))
                if not node.module:  # from . import x
                    found.update(f"{base}.{alias.name}" for alias in node.names)
                    continue
            found.add(base)
    return found


def test_the_oracle_never_looks_at_the_algebra():
    # the oracle checks the exact spectrum from outside: it reads a
    # channel's numbers from params and nothing from the algebra
    algebra = {f"dirac_su11.{name}" for name in
               ("qsfield", "ladder", "algebra", "wavefunctions", "verify")}
    assert _imported_modules(SRC / "oracle.py") & algebra == set()


def test_only_the_oracle_imports_numpy_and_scipy():
    found = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
             if path.name != "oracle.py"
             for name in sorted(_imported_modules(path))
             if name.split(".")[0] in ("numpy", "scipy")]
    assert found == []


def test_one_door_out_of_the_field():
    # the ladder and the residual suite hold only field data, and a printed
    # magnitude is embedded by one helper in params, next to mp_str
    found = [f"{name}: {mod}" for name in ("ladder.py", "verify.py")
             for mod in sorted(_imported_modules(SRC / name))
             if mod.split(".")[0] == "mpmath"]
    assert found == []
    maxima = [path.name for path in sorted(SRC.glob("*.py"))
              for line in path.read_text().splitlines()
              if re.search(r"max\(abs\(.*\.embed\(", line)]
    assert maxima == ["params.py"]


def test_one_detuning():
    # every off-shell control reads DETUNE through params.off_shell_w2, so
    # one patch of params.DETUNE reaches them all
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "params.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if "DETUNE" in (getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "name", None))]
    assert found == []


def test_quadratic_representation_is_private():
    # an element of Q(s) is an integer triple that only qsfield reads;
    # everything else goes through the parts a, b and d and builds elements
    # through the named constructors (of, from_ints, zero, root)
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
