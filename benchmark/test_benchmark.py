"""Tests of the benchmark itself: its checker must reject corrupted output.

    python3 -m pytest benchmark -q

Real outputs come from ``dirac_su11.cli.main`` on small inputs; each test
then corrupts one value and expects ``CheckFailed``.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dirac_su11 import cli  # noqa: E402

import checks  # noqa: E402
import gauge  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

C = workloads.C_DEFAULT
PREC = workloads.PRECISION


def cli_stdout(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    assert code == 0
    return buf.getvalue()


def alter_digit(text: str, position: int) -> str:
    """Change the digit at the given index of a decimal string."""
    digit = text[position]
    assert digit.isdigit()
    return text[:position] + str((int(digit) + 1) % 10) + text[position + 1:]


@pytest.fixture(scope="module")
def spectrum():
    return cli_stdout("spectrum", "--Z", "37", "--N-max", "2")


@pytest.fixture(scope="module")
def verify_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify") / "v.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--Z", "7", "--j-max", "1/2", "--n-max", "2",
                         "--skip-oracle", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def state():
    return cli_stdout("state", "--Z", "80", "--j", "3/2", "--eps", "1", "--n", "3",
                      "--samples", "60", "--format", "json")


SPECTRUM_P = {"Z": 37, "N_max": 2, "j_max": Fraction(3, 2)}
VERIFY_P = {"Z": 7, "j_max": Fraction(1, 2), "n_max": 2, "oracle": False, "inject": False}
STATE_P = {"Z": 80, "j": Fraction(3, 2), "eps": 1, "n": 3}


def test_spectrum_accepted(spectrum):
    assert checks.check_spectrum(spectrum, SPECTRUM_P, C, PREC) == 4


@pytest.mark.parametrize("key", ["E", "binding"])
def test_spectrum_altered_digit_rejected(spectrum, key):
    doc = json.loads(spectrum)
    row = doc["rows"][1]
    row[key] = alter_digit(row[key], 12)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectrum(json.dumps(doc), SPECTRUM_P, C, PREC)


def test_verify_accepted(verify_doc):
    assert checks.check_verify(verify_doc, VERIFY_P, PREC) > 0


@pytest.mark.parametrize("flip", ["all_exact", "commutators_exact", "gram", "residual",
                                  "detuned"])
def test_verify_flipped_verdict_rejected(verify_doc, flip):
    doc = json.loads(json.dumps(verify_doc))
    run_ = doc["runs"][0]
    block = run_["channels"][0]
    if flip == "gram":
        block["gram_identity_ok"] = False
    elif flip == "residual":
        block["rows"][1]["residuals"]["radial-row-f"]["exact_zero"] = False
    elif flip == "detuned":
        block["rows"][2]["detuned_nonzero"] = False
    else:
        run_[flip] = False
    with pytest.raises(checks.CheckFailed):
        checks.check_verify(doc, VERIFY_P, PREC)


def test_state_accepted_and_flipped_check_rejected(state):
    assert checks.check_state(state, STATE_P, C, PREC, 60) == 5
    doc = json.loads(state)
    doc["checks"]["normalization_ok"] = False
    with pytest.raises(checks.CheckFailed):
        checks.check_state(json.dumps(doc), STATE_P, C, PREC, 60)
    doc = json.loads(state)
    doc["E"] = alter_digit(doc["E"], 20)
    with pytest.raises(checks.CheckFailed):
        checks.check_state(json.dumps(doc), STATE_P, C, PREC, 60)


def test_jl_and_limit_accepted_and_corruption_rejected():
    p = {"Z": 92, "j_max": Fraction(5, 2), "n_max": 3}
    out = cli_stdout("jl", "--Z", "92")
    assert checks.check_jl(out, p, C, PREC) == 24
    with pytest.raises(checks.CheckFailed):
        checks.check_jl(out.replace('"is_diagonal": true', '"is_diagonal": false', 1),
                        p, C, PREC)
    p = {"Z": 99, "j": Fraction(1, 2), "eps": -1, "n": 0,
         "c_schedule": workloads.LIMIT_C_SCHEDULE}
    out = cli_stdout("limit", "--Z", "99")
    assert checks.check_limit(out, p, C, PREC) == 1
    doc = json.loads(out)
    doc["fitted_exponent"] = alter_digit(doc["fitted_exponent"], 4)
    with pytest.raises(checks.CheckFailed):
        checks.check_limit(json.dumps(doc), p, C, PREC)


def test_streams_repeat_per_seed_and_refuse_collapsed_limit():
    for name in workloads.WORKLOADS:
        a, b = workloads.pass_stream(name, 7), workloads.pass_stream(name, 7)
        assert [next(a) for _ in range(5)] == [next(b) for _ in range(5)]
    rng = random.Random(0)
    passes = [workloads.exact_mix_pass(rng) for _ in range(100)]
    limits = [cmd for cmds in passes for cmd in cmds if cmd.kind == "limit"]
    assert {cmd.expect_exit for cmd in limits if cmd.params["Z"] >= 100} == {2}
    assert {cmd.expect_exit for cmd in limits if cmd.params["Z"] < 100} == {0}
    assert {cmds[1].params["inject"] and cmds[1].expect_exit for cmds in passes} == {3}


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    value, percentile, n = run.tail([float(i) for i in range(100)])
    assert (value, percentile, n) == (89.0, 90.0, 100)


def test_gauge_uses_slices_near_a_command():
    g = gauge.Gauge()
    g.at = [0.0, 1.0, 2.0, 2.2, 2.4, 2.6, 2.8, 10.0]
    g.wall = [5.0, 5.0, 2.0, 2.0, 3.0, 2.0, 2.0, 9.0]
    g.cpu = [x / 2 for x in g.wall]
    assert g.near(2.3, 2.5) == (2.0, 1.0)   # the five slices within 0.5 s
    # one slice within 0.5 s: the five nearest decide, not the outlier alone
    assert g.near(10.0, 10.1) == (2.0, 1.0)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_patches_every_binding_and_restores_them():
    from dirac_su11 import ladder, params, verify

    original = ladder.build_state
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.build_state is verify.build_state is ladder.build_state
        assert ladder.build_state is not original
        ch = params.make_channel(params.make_params("137.035999084", 1), "1/2", -1)
        verify.build_state(ch, 2, 64)
    finally:
        t.uninstall()
    assert cli.build_state is verify.build_state is ladder.build_state is original
    layers = t.end_pass()
    assert layers["calls"]["ladder.build_state"] == 1
    assert layers["calls"]["ladder.raise_state"] == 2
    assert layers["counts"]["ladder.rungs_reached"] == 2
    inclusive = sum(end - start for name, start, end, parent, _ in t.spans if parent == -1)
    assert abs(sum(layers["self_s"].values()) - inclusive) < 1e-9
