"""The oracle's boundary: loaded only when it runs, reached by its old names."""

import json
import subprocess
import sys

import dirac_su11
from dirac_su11 import oracle, verify

REEXPORTED = ("BracketingError", "OracleResult", "shooting_oracle",
              "shooting_oracle_batch", "oracle_sweep", "oracle_binding_residual",
              "ORACLE_N_CAP", "ORACLE_REL_TOL")


def test_old_names_are_the_oracle_objects():
    for name in REEXPORTED:
        assert getattr(dirac_su11, name) is getattr(verify, name) is getattr(oracle, name)
    # once read, a name is bound in verify as an import would have bound
    # it, so a patch by identity across module namespaces reaches it
    assert all(vars(verify)[name] is getattr(oracle, name) for name in REEXPORTED)


def test_private_and_unknown_names_do_not_resolve():
    # a test still patching verify._shoot fails here instead of spying on
    # nothing
    for name in ("_shoot", "_ROUND_CAP", "no_such_name"):
        assert not hasattr(verify, name)
        assert not hasattr(dirac_su11, name)


def test_star_import():
    namespace = {}
    exec("from dirac_su11 import *", namespace)
    assert set(dirac_su11.__all__) <= set(namespace)
    assert namespace["shooting_oracle"] is oracle.shooting_oracle


CHILD = r"""
import contextlib, io, json, sys
from dirac_su11 import cli

def heavy():
    return sorted(m for m in ("numpy", "scipy", "dirac_su11.oracle") if m in sys.modules)

report = {"after_import": heavy(), "codes": []}
quick = ["--Z", "1", "--j-max", "1/2", "--n-max", "1"]
for argv in (["spectrum"], ["state", "--Z", "1", "--j", "1/2", "--eps", "-1", "--n", "3"],
             ["jl"], ["limit"], ["verify", *quick, "--skip-oracle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(cli.main(argv))
report["after_exact_commands"] = heavy()
with contextlib.redirect_stdout(io.StringIO()):
    report["oracle_code"] = cli.main(["verify", *quick])
report["after_oracle"] = heavy()
print(json.dumps(report))
"""


def test_numpy_and_scipy_load_only_with_the_oracle():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["codes"] == [0] * 5
    assert report["after_exact_commands"] == []
    assert report["oracle_code"] == 0
    assert report["after_oracle"] == ["dirac_su11.oracle", "numpy", "scipy"]
