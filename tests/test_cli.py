"""End-to-end runs of the command line entry point."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from dirac_su11 import cli, qsfield
from dirac_su11.qsfield import QsPolynomial
from dirac_su11.cli import main

FAST = ["--precision", "128"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSpectrum:
    def test_json_payload(self, capsys):
        code, out = run(capsys, ["spectrum", "--j-max", "3/2", "--n-max", "2"] + FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "dirac-su11/1"
        assert doc["kind"] == "spectrum"
        rows = doc["rows"]
        # no tau > 0 bottom rungs in the bound table
        assert not any(r["eps"] == 1 and r["n"] == 0 for r in rows)
        # rows come out sorted by principal quantum number first
        assert [r["N"] for r in rows] == sorted(r["N"] for r in rows)
        ground = rows[0]
        assert ground["label"] == "1s"
        assert abs(float(ground["binding"]) + 0.5000066565965526) < 1e-12

    def test_fine_structure_degeneracy_to_all_digits(self, capsys):
        # same (j, N): the eps = -1, n and eps = +1, n levels coincide,
        # and the decimal strings must agree exactly
        _, out = run(capsys, ["spectrum", "--j-max", "1/2", "--n-max", "3"] + FAST)
        rows = json.loads(out)["rows"]
        by_key = {(r["eps"], r["n"]): r["E"] for r in rows if r["j"] == "1/2"}
        for n in (1, 2, 3):
            assert by_key[(-1, n)] == by_key[(1, n)]

    def test_deterministic(self, capsys):
        args = ["spectrum", "--j-max", "3/2", "--n-max", "2"] + FAST
        _, first = run(capsys, args)
        _, second = run(capsys, args)
        assert first == second

    def test_csv_matches_json(self, capsys):
        _, jout = run(capsys, ["spectrum", "--j-max", "3/2", "--n-max", "1"] + FAST)
        _, cout = run(capsys, ["spectrum", "--j-max", "3/2", "--n-max", "1",
                               "--format", "csv"] + FAST)
        jrows = json.loads(jout)["rows"]
        crows = list(csv.DictReader(io.StringIO(cout)))
        assert len(crows) == len(jrows)
        assert crows[0]["E"] == jrows[0]["E"]
        assert list(crows[0].keys()) == [
            "N", "j", "eps", "n", "label", "E", "binding", "quantum_defect"]

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "spec.json"
        code, out = run(capsys, ["spectrum", "--n-max", "0", "--j-max", "1/2",
                                 "--out", str(dest)] + FAST)
        assert code == 0
        assert f"wrote {dest}" in out
        assert json.loads(dest.read_text())["kind"] == "spectrum"

    def test_shell_enumeration(self, capsys):
        code, out = run(capsys, ["spectrum", "--N-max", "1"] + FAST)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 and rows[0]["label"] == "1s"
        _, out = run(capsys, ["spectrum", "--N-max", "3"] + FAST)
        rows = json.loads(out)["rows"]
        assert [r["N"] for r in rows] == [1, 2, 2, 2, 3, 3, 3, 3, 3]
        shell2 = [r for r in rows if r["N"] == 2]
        assert sorted((r["j"], r["eps"]) for r in shell2) == [
            ("1/2", -1), ("1/2", 1), ("3/2", -1)]

    def test_recompute_reproduces_decimal_strings(self, capsys):
        from fractions import Fraction
        from dirac_su11.params import make_params, make_channel, spectral_point, mp_str

        _, out = run(capsys, ["spectrum", "--j-max", "3/2", "--n-max", "1"] + FAST)
        doc = json.loads(out)
        params = make_params(doc["c"], doc["Z"])
        for r in doc["rows"]:
            ch = make_channel(params, Fraction(r["j"]), r["eps"])
            pt = spectral_point(ch, r["n"], doc["precision"])
            assert mp_str(pt.E, doc["precision"]) == r["E"]
            assert mp_str(pt.binding, doc["precision"]) == r["binding"]

    def test_z_out_of_range(self, capsys):
        assert main(["spectrum", "--Z", "119"] + FAST) == 2
        capsys.readouterr()


class TestState:
    def test_csv_stream(self, capsys):
        code, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "0",
                                 "--samples", "12"] + FAST)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rho,F,G"
        assert len(lines) == 13
        # ground state: F > 0 and G < 0 everywhere on the grid
        for line in lines[1:]:
            _, fv, gv = line.split(",")
            assert float(fv) > 0 and float(gv) < 0

    def test_json_payload(self, capsys):
        code, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "2",
                                 "--samples", "5", "--format", "json"] + FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "state"
        assert doc["physical"] is True
        assert doc["f_nodes"] == 2
        assert len(doc["samples"]) == 5
        assert float(doc["norm_constant"]) > 0
        assert doc["checks"] == {"first_order_exact": True,
                                 "normalization_ok": True,
                                 "laguerre_scalars_exact": True,
                                 "off_shell_det_nonzero": True}
        lag = doc["laguerre_report"]
        assert lag["rows_exact_zero"] is True
        assert lag["scalar_ratio_plus"] == "2"  # 2! for n = 2

    def test_f_nodes_do_not_depend_on_the_sample_grid(self, capsys):
        argv = ["state", "--Z", "80", "--j", "5/2", "--eps", "1", "--n", "20",
                "--format", "json"]
        for count in ("2", "400"):
            code, out = run(capsys, argv + ["--samples", count])
            assert code == 0
            assert json.loads(out)["f_nodes"] == 19

    def test_deep_state_nodes_are_certified(self, capsys, monkeypatch):
        # twice the depth of the n = 20 state; the Sturm chain alone takes
        # about 5 s here
        fallbacks = []
        monkeypatch.setattr(qsfield, "sturm_positive_roots", fallbacks.append)
        code, out = run(capsys, ["state", "--Z", "80", "--j", "5/2", "--eps", "1",
                                 "--n", "40", "--samples", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["f_nodes"] == 39
        assert fallbacks == []

    def test_ground_state_has_no_laguerre_report(self, capsys):
        _, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "0",
                              "--samples", "3", "--format", "json"] + FAST)
        doc = json.loads(out)
        assert doc["laguerre_report"] is None
        assert doc["checks"]["first_order_exact"] is True

    def test_no_polynomial_squared_for_a_float_moment(self, capsys, monkeypatch):
        # normalization is one Gamma factor times an exact element, and its
        # check and the Gram diagonal are field moments: neither state nor
        # verify embeds the moment of a squared polynomial
        from dirac_su11 import algebra
        squared = []
        moment_sum = algebra.moment_sum

        def counting(poly, *args, **kwargs):
            squared.append(poly)
            return moment_sum(poly, *args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "dirac_su11"
                    and vars(module).get("moment_sum") is moment_sum):
                monkeypatch.setattr(module, "moment_sum", counting)
        code, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "3",
                                 "--samples", "3", "--format", "json"] + FAST)
        assert code == 0
        assert json.loads(out)["checks"]["normalization_ok"] is True
        assert main(["verify", "--Z", "1", "--j-max", "3/2", "--n-max", "3",
                     "--skip-oracle"] + FAST) == 0
        capsys.readouterr()
        assert squared == []

    def test_perturbed_window_fails_the_normalization_check(self, capsys, monkeypatch):
        # one coefficient of pi_n off by 1: its square moment is off by
        # M[1] = s, so the exact decision fails and state exits 3
        build_state = cli.build_state

        def perturbed(*args):
            state = build_state(*args)
            plus = state.psi_plus
            return replace(state, psi_plus=QsPolynomial(
                (plus.coeffs[0] + 1,) + plus.coeffs[1:], plus.zero))

        monkeypatch.setattr(cli, "build_state", perturbed)
        code, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "3",
                                 "--samples", "3", "--format", "json"] + FAST)
        assert code == 3
        assert json.loads(out)["checks"]["normalization_ok"] is False

    def test_unphysical_slot_is_an_error(self, capsys):
        code = main(["state", "--j", "1/2", "--eps", "1", "--n", "0"] + FAST)
        captured = capsys.readouterr()
        assert code == 2
        assert "not a bound state" in captured.err

    def test_unphysical_override(self, capsys):
        code, out = run(capsys, ["state", "--j", "1/2", "--eps", "1", "--n", "0",
                                 "--samples", "4", "--allow-unphysical"] + FAST)
        assert code == 0
        assert out.splitlines()[0] == "rho,F,G"

    def test_csv_file(self, capsys, tmp_path):
        dest = tmp_path / "state.csv"
        code, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "1",
                                 "--samples", "6", "--out", str(dest)] + FAST)
        assert code == 0
        assert "identity checks: pass" in out
        assert "laguerre scalars:" in out
        rows = list(csv.reader(dest.open()))
        assert rows[0] == ["rho", "F", "G"]
        assert len(rows) == 7


class TestVerify:
    def test_quick_pass(self, capsys, tmp_path):
        dest = tmp_path / "verify.json"
        code, out = run(capsys, ["verify", "--Z", "1", "--j-max", "1/2",
                                 "--n-max", "1", "--out", str(dest)] + FAST)
        assert code == 0
        assert "Z=1: residuals all exact" in out
        assert "oracle worst rel err" in out
        doc = json.loads(dest.read_text())
        assert doc["kind"] == "verify"
        assert doc["runs"][0]["all_exact"] is True
        assert doc["runs"][0]["commutators_exact"] is True
        assert doc["runs"][0]["casimir_routes_agree"] is True
        assert all(b["gram_identity_ok"] for b in doc["runs"][0]["channels"])
        assert len(doc["runs"][0]["oracle"]) == 3  # (eps,n): (-1,0) (-1,1) (+1,1)
        assert float(doc["runs"][0]["oracle_worst_rel_error"]) < 1e-10

    def test_default_z_pair(self, capsys):
        code, out = run(capsys, ["verify", "--j-max", "1/2", "--n-max", "0",
                                 "--skip-oracle"] + FAST)
        assert code == 0
        assert "Z=1:" in out and "Z=80:" in out
        # a given --Z replaces the default pair rather than adding to it
        code, out = run(capsys, ["verify", "--Z", "7", "--Z", "3", "--j-max", "1/2",
                                 "--n-max", "0", "--skip-oracle"] + FAST)
        assert code == 0
        assert [line.split(":")[0] for line in out.splitlines()] == ["Z=7", "Z=3"]

    def test_skip_oracle_omits_the_block(self, capsys, tmp_path):
        dest = tmp_path / "verify.json"
        code, _ = run(capsys, ["verify", "--Z", "1", "--j-max", "1/2",
                               "--n-max", "0", "--skip-oracle",
                               "--out", str(dest)] + FAST)
        assert code == 0
        assert "oracle" not in json.loads(dest.read_text())["runs"][0]

    def test_unbracketed_slot_fails_the_run(self, capsys, tmp_path, monkeypatch):
        from fractions import Fraction
        from dirac_su11 import oracle
        from dirac_su11.params import make_channel, make_params
        from dirac_su11.oracle import BracketingError

        ch = make_channel(make_params(Z=1), Fraction(1, 2), -1)

        def no_sign_change(params, j_max, n_max):
            raise BracketingError("no eigenvalue", slots=[(ch, 1)])

        monkeypatch.setattr(oracle, "oracle_sweep", no_sign_change)
        dest = tmp_path / "verify.json"
        code = main(["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "1",
                     "--out", str(dest)] + FAST)
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.err
        assert "Z=1: residuals all exact, oracle FAILED to bracket" in captured.out
        assert "j=1/2 eps=-1 n=1: oracle mismatch has no sign change" in captured.out
        run_doc = json.loads(dest.read_text())["runs"][0]
        assert run_doc["oracle_unbracketed"] == [{"j": "1/2", "eps": -1, "n": 1}]
        assert "oracle" not in run_doc

    def test_zero_witness_is_named(self, capsys, monkeypatch):
        # a tau > 0 bottom rung whose raise witness is decided zero fails
        # the run, and a line names the slot, as for a failed row
        from dirac_su11 import verify
        second_order_residual = verify.second_order_residual

        def zero_witness(state, radial):
            *rows, witness = second_order_residual(state, radial)
            zero = QsPolynomial.zero_poly(witness.residual_poly.zero)
            return (*rows, replace(witness, residual_poly=zero))

        monkeypatch.setattr(verify, "second_order_residual", zero_witness)
        code, out = run(capsys, ["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "1",
                                 "--skip-oracle"] + FAST)
        assert code == 3
        assert out.splitlines() == [
            "Z=1: residuals FAILED",
            "  j=1/2 eps=+1 n=0: bottom-rung witness unexpectedly zero"]

    @pytest.mark.parametrize("n_max, oracle, caps", [
        (12, True, {"gram_n_max": 5, "oracle_n_max": 10}),
        (12, False, {"gram_n_max": 5}),
        (5, True, {})])
    def test_caps_that_cut_the_grid_are_named(self, capsys, tmp_path, n_max, oracle, caps):
        # the Gram block stops at n = 5 and the oracle at ORACLE_N_CAP; a
        # deeper grid names each cap in the JSON and on the stdout line
        dest = tmp_path / "v.json"
        code, out = run(capsys, ["verify", "--Z", "1", "--j-max", "1/2", "--n-max", str(n_max),
                                 "--out", str(dest)] + ([] if oracle else ["--skip-oracle"])
                        + FAST)
        assert code == 0
        run_doc = json.loads(dest.read_text())["runs"][0]
        assert {key: run_doc[key] for key in ("gram_n_max", "oracle_n_max")
                if key in run_doc} == caps
        line = out.splitlines()[0]
        note = ", ".join(f"{key}={value}" for key, value in caps.items())
        assert line.endswith(f" (cut at {note})") if caps else "cut at" not in line
        assert max(row["n"] for row in run_doc["channels"][0]["rows"]) == n_max
        if oracle:
            assert max(row["n"] for row in run_doc["oracle"]) == min(n_max, 10)

    def test_injected_failure_is_reported(self, capsys):
        code, out = run(capsys, ["verify", "--Z", "1", "--j-max", "1/2",
                                 "--n-max", "1", "--skip-oracle",
                                 "--inject-off-shell"] + FAST)
        assert code == 3
        assert "Z=1: residuals FAILED" in out
        assert "radial-row" in out


@pytest.mark.parametrize("detune", [None, 0], ids=["detuned", "zero"])
def test_zero_detuning_fails_both_off_shell_controls(capsys, monkeypatch, tmp_path,
                                                      detune):
    # the control of the controls: at params.DETUNE both off-shell checks
    # hold; with no detuning "off shell" is on shell, so state's determinant
    # and verify's detuned rows vanish, and both commands exit 3 saying so
    from dirac_su11 import params
    if detune is not None:
        monkeypatch.setattr(params, "DETUNE", detune)
    detuned = detune is None
    code, out = run(capsys, ["state", "--j", "1/2", "--eps", "-1", "--n", "2",
                             "--samples", "3", "--format", "json"] + FAST)
    doc = json.loads(out)
    assert code == (0 if detuned else 3)
    assert doc["checks"]["off_shell_det_nonzero"] is detuned
    assert doc["laguerre_report"]["off_shell_det_nonzero"] is detuned
    dest = tmp_path / "v.json"
    code, out = run(capsys, ["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "2",
                             "--skip-oracle", "--out", str(dest)] + FAST)
    assert code == (0 if detuned else 3)
    assert ("detuned control unexpectedly zero" in out) is not detuned
    rows = [row for block in json.loads(dest.read_text())["runs"][0]["channels"]
            for row in block["rows"] if row["n"] >= 1]
    assert rows and all(row["detuned_nonzero"] is detuned for row in rows)


class TestJl:
    def test_scan_output(self, capsys):
        code, out = run(capsys, ["jl", "--j-max", "3/2", "--n-max", "1"] + FAST)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "diagonal bound states: 1s 2p"
        doc = json.loads("\n".join(lines[1:]))
        assert doc["kind"] == "diagonality-scan"
        assert len(doc["rows"]) == 8

    def test_default_grid(self, capsys):
        code, out = run(capsys, ["jl"] + FAST)
        assert code == 0
        assert out.splitlines()[0] == "diagonal bound states: 1s 2p 3d"


class TestLimit:
    def test_exponent_near_bohr(self, capsys):
        code, out = run(capsys, ["limit"] + FAST)
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "limit"
        assert len(doc["rows"]) == 3
        assert abs(float(doc["fitted_exponent"]) + 2) < 0.1

    def test_unphysical_slot_is_an_error(self, capsys):
        assert main(["limit", "--j", "1/2", "--eps", "1", "--n", "0"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bottom rung with tau > 0 is not a bound state\n"

    def test_csv_format(self, capsys):
        code, out = run(capsys, ["limit", "--format", "csv",
                                 "--c-schedule", "1e2,1e3"] + FAST)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,binding,bohr,difference"
        assert lines[-1].startswith("fitted_exponent=")


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_verify_help_names_the_oracle_cap(self, capsys):
        # the help names both caps, so a changed cap cannot leave it stale
        from dirac_su11 import oracle
        from dirac_su11.verify import GRAM_N_CAP
        assert main(["verify", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert f"the oracle at its validated cap, {oracle.ORACLE_N_CAP}" in out
        assert f"the Gram block stops at {GRAM_N_CAP} and" in out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_fraction(self, capsys):
        assert main(["state", "--j", "abc", "--eps", "-1", "--n", "0"]) == 2
        capsys.readouterr()

    def test_nonpositive_c(self, capsys):
        assert main(["limit", "--c-schedule", "0,1e3"]) == 2
        capsys.readouterr()

    def test_zero_denominator_c(self, capsys):
        for argv in (["spectrum", "--c", "1/0"], ["limit", "--c-schedule", "1e2,1/0"]):
            assert main(argv + FAST) == 2
            err = capsys.readouterr().err
            assert err == "error: zero denominator in '1/0'\n"

    def test_c_schedule_needs_two_values(self, capsys):
        for schedule in ("1e2", ",", "1e2,100"):
            assert main(["limit", "--c-schedule", schedule] + FAST) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: c schedule needs at least two")
            assert "Traceback" not in err

    def test_nonpositive_precision(self, capsys):
        for value in ("0", "-5"):
            assert main(["spectrum", "--precision", value]) == 2
            assert "must be positive" in capsys.readouterr().err

    def test_failed_internal_check(self, capsys, monkeypatch):
        # with w^2 = (s + n)^2 the exact energy window check must fail, on
        # the float levels of spectrum and on the rungs of verify alike
        from dirac_su11 import params
        monkeypatch.setattr(params, "tower_w2", lambda ch, n: (ch.s + n) * (ch.s + n))
        for argv in (["spectrum", "--precision", "8"],
                     ["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "1",
                      "--skip-oracle"]):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err == "error: internal check failed: bound-state energy left (0, c^2)\n"

    def test_failed_generator_relation(self, capsys, monkeypatch):
        # a wrong sign in the generator table fails the universal decision,
        # and verify names the relation instead of printing a traceback
        from dirac_su11 import algebra, ladder
        monkeypatch.setattr(algebra, "_IMAGES", {})
        monkeypatch.setattr(ladder, "_TOWER", [])
        monkeypatch.setitem(algebra.GENERATORS, "-", (-1, 1, {0: (1, 0, 1, 0)}))
        assert main(["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "1",
                     "--skip-oracle"] + FAST) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: internal check failed: su(1,1) relation +- "
                                "fails on the generic family member\n")

    def test_low_precision(self, capsys):
        # the energy window is decided in Q(s), so 8 bits print a spectrum;
        # sqrt(c^2 - E) of a state needs E embedded below c^2
        assert main(["spectrum", "--precision", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["binding"] == "-0.5"
        assert main(["state", "--j", "1/2", "--eps", "-1", "--n", "0",
                     "--precision", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: E rounds to c^2 or above at 8 bits")
        assert len(err.strip().splitlines()) == 1
        # the exact residual suite forms no sqrt(c^2 -+ E): any precision decides it
        assert main(["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "2",
                     "--skip-oracle", "--precision", "8"]) == 0
        assert capsys.readouterr().out == "Z=1: residuals all exact\n"

    def test_gram_identity_decided_at_one_bit(self, capsys, tmp_path):
        # the Gram diagonal is a field decision, not a float within
        # check_tolerance: one bit decides it, and its error reads 0
        out = tmp_path / "v.json"
        assert main(["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "2",
                     "--skip-oracle", "--precision", "1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "Z=1: residuals all exact"
        blocks = json.loads(out.read_text())["runs"][0]["channels"]
        assert [(b["gram_identity_ok"], b["gram_diagonal_max_err"]) for b in blocks] == [
            (True, "0.0"), (True, "0.0")]

    def test_empty_verify_grid(self, capsys):
        # j-max below 1/2 leaves nothing to check; that is not a pass
        assert main(["verify", "--Z", "1", "--j-max", "0"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: j_max must be at least 1/2")

    def test_injection_needs_an_excited_rung(self, capsys):
        # with --n-max 0 there is no detuned control to swap in: a self-test
        # that injects nothing is a usage error, not a pass
        assert main(["verify", "--Z", "1", "--skip-oracle", "--n-max", "0",
                     "--inject-off-shell"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: inject_off_shell needs n_max >= 1: no rung "
                                "below 1 has a detuned control\n")
        assert main(["verify", "--Z", "1", "--skip-oracle", "--n-max", "0"] + FAST) == 0
        capsys.readouterr()

    def test_empty_spectrum_j_grid(self, capsys):
        assert main(["spectrum", "--j-max", "0"] + FAST) == 2
        assert capsys.readouterr().err.startswith("error: j_max must be at least 1/2")

    def test_empty_spectrum_n_grid(self, capsys):
        assert main(["spectrum", "--n-max", "-1"] + FAST) == 2
        assert capsys.readouterr().err.startswith("error: n_max must be nonnegative")

    def test_shells_exclude_the_grid_options(self, capsys):
        # --N-max replaces the (j, n) grid; naming both is a usage error,
        # also with a value equal to the grid default
        for extra in (["--j-max", "7/2"], ["--n-max", "9"],
                      ["--j-max", "5/2"], ["--n-max", "5"]):
            assert main(["spectrum", "--N-max", "1"] + extra + FAST) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "not allowed with --N-max" in captured.err
        assert main(["spectrum", "--j-max", "1/2", "--n-max", "0"] + FAST) == 0
        capsys.readouterr()

    def test_unwritable_out(self, capsys, tmp_path):
        dest = str(tmp_path / "missing" / "x")
        for argv in (["spectrum", "--N-max", "1"], ["limit"],
                     ["state", "--j", "1/2", "--eps", "-1", "--n", "1"]):
            assert main(argv + ["--out", dest] + FAST) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: cannot write {dest}: "
                                    "No such file or directory\n")

    def test_closed_stdout_is_success(self, monkeypatch):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with EPIPE whatever the timing
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "dirac_su11.cli", "spectrum",
                 "--precision", "64"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""

        # in process, stdout may have no file descriptor to redirect
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["spectrum", "--N-max", "1"] + FAST) == 0

    def test_empty_jl_grid(self, capsys):
        assert main(["jl", "--n-max", "-1"] + FAST) == 2
        assert capsys.readouterr().err.startswith("error: n_max must be nonnegative")
        assert main(["jl", "--j-max", "0"] + FAST) == 2
        assert capsys.readouterr().err.startswith("error: j_max must be at least 1/2")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dirac_su11.cli", "spectrum",
             "--j-max", "1/2", "--n-max", "0", "--precision", "64"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["kind"] == "spectrum"


class TestParserCache:
    # one parser per process: every parse starts from its defaults, and the
    # run_* functions look up module names when they run
    SEQUENCE = [
        (["--help"], 0),
        (["spectrum", "--frobnicate"], 2),
        (["spectrum", "--N-max", "2", "--j-max", "3/2"], 2),
        (["verify", "--Z", "1", "--skip-oracle"] + FAST, 0),
        (["verify", "--Z", "1", "--skip-oracle"] + FAST, 0),
        (["limit", "--c-schedule", "1e3,1e5"] + FAST, 0),
        (["limit"] + FAST, 0),
        (["spectrum", "--N-max", "2"] + FAST, 0),
        (["spectrum"] + FAST, 0),
    ]

    def runs(self, capsys, fresh):
        out = []
        for argv, _ in self.SEQUENCE:
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_cached_parser_parses_like_a_fresh_one(self, capsys):
        cached = self.runs(capsys, fresh=False)
        assert cached == self.runs(capsys, fresh=True)
        assert [code for code, _, _ in cached] == [code for _, code in self.SEQUENCE]
        # the appended --Z list starts empty on every parse
        assert cached[3][1] == cached[4][1] == "Z=1: residuals all exact\n"
        assert len(json.loads(cached[5][1])["rows"]) == 2
        assert len(json.loads(cached[6][1])["rows"]) == 3
        assert cached[7][1] != cached[8][1]

    def test_patched_name_takes_effect_on_the_cached_parser(self, capsys, monkeypatch):
        # as in test_perturbed_window_fails_the_normalization_check: a
        # run_* function reads cli's names when it runs
        assert run(capsys, ["jl"] + FAST)[1].startswith("diagonal bound states: 1s 2p 3d\n")
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "diagonality_scan", lambda *args: [])
        code, out = run(capsys, ["jl"] + FAST)
        assert cli.build_parser() is parser
        assert (code, out.splitlines()[0]) == (0, "diagonal bound states: ")


def count_levels(monkeypatch, capsys, argv):
    """(exit code, stdout, calls of params.spectral_point) of one command,
    with the function spied on in every package module that bound it."""
    from dirac_su11 import params
    original = params.spectral_point
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[:2])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "dirac_su11"
                and vars(module).get("spectral_point") is original):
            monkeypatch.setattr(module, "spectral_point", spy)
    code = main(argv)
    return code, capsys.readouterr().out, len(calls)


def test_float_levels_only_where_read(capsys, monkeypatch):
    # a rung is exact data: verify reads no float level, state reads its
    # own once (for E and binding), and spectrum
    # computes only the levels it prints
    code, _, calls = count_levels(monkeypatch, capsys, [
        "verify", "--Z", "57", "--j-max", "5/2", "--n-max", "5", "--skip-oracle"] + FAST)
    assert (code, calls) == (0, 0)
    code, _, calls = count_levels(monkeypatch, capsys, [
        "state", "--Z", "80", "--j", "5/2", "--eps", "1", "--n", "20",
        "--samples", "2", "--format", "json"] + FAST)
    assert code == 0 and calls == 1
    code, out, calls = count_levels(monkeypatch, capsys, ["spectrum", "--N-max", "4"] + FAST)
    assert code == 0 and calls == len(json.loads(out)["rows"]) == 16


# sha256 of (stdout, --out file or None) and the exit code of cheap
# commands at the default precision; any change to a printed byte shows
GOLDEN = [
    (["spectrum", "--N-max", "2"],
     "0d9e3dcfafb7aced30f796020f986c421bd25514f971f613a010e2ea653e19f1", None, 0),
    (["spectrum", "--N-max", "2", "--format", "csv"],
     "090518b55a0ac0b0de282d9ff8c8e87dcc3e1f18524febcf65c8b431e3bf2b03", None, 0),
    (["state", "--j", "1/2", "--eps", "-1", "--n", "3", "--samples", "20",
      "--format", "json"],
     "4eee09d277740a2bbd220164dd6aadeb4800b31899063f05b841a757a1b42549", None, 0),
    (["state", "--j", "1/2", "--eps", "-1", "--n", "3", "--samples", "20",
      "--format", "csv"],
     "6dae23a5938769d22aa4485f80ae637a1c2a7720075f2533f2aaf0543e597b81", None, 0),
    (["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "2", "--skip-oracle",
      "--out", "v.json"],
     "e08bfe5aebc4f5a3a7012616403ea0c9f4c8c23595e1aaef400565bd6db9d8d9",
     "5c4eabbfcdaf5255aed47329fdc72e0aace17445189073bb9c3702e76759478a", 0),
    (["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "2", "--skip-oracle",
      "--inject-off-shell", "--out", "v.json"],
     "6700f1d4290141ede71be2050714fba75465a188ba98858cd509fe10657e91c7",
     "2c27dca58ff01c32b8716268e17bc78f5ff7a91d667cc416dc283aeca666acd8", 3),
    (["verify", "--Z", "118", "--skip-oracle", "--out", "v.json"],
     "a1b2765f1764ab876f81c85cdd2293251ddb053c342abc3191c1b17a0f74e23d",
     "ada9abf8b9323a1a8dabd3db53f4c9739058392755f3852fa192f9fec9a5f6c0", 0),
    (["verify", "--Z", "80", "--skip-oracle", "--inject-off-shell", "--out", "v.json"],
     "5f1fbc0dcdf5f88feb0c7a6f5ee1b18fdb483f53552be41a687fded5d62b4264",
     "ec21708f42e1402ae9355b4737fcb710dc5eb6546a18c9976ec8adbc389aa328", 3),
    (["verify", "--Z", "57", "--skip-oracle", "--j-max", "1/2", "--n-max", "12",
      "--out", "v.json"],
     "4bf7a4458561154679d4477ad29fb8a9cce67d27823fe00e753998cdbb2d3a40",
     "c33b5590f245023a336f72d3e216bf1d212d7ff9aa8377dfe472b0778cdfe67c", 0),
    (["jl", "--j-max", "3/2", "--n-max", "1"],
     "7ac0ddd1a33f2b61e368138463c746ead53c304b2e2f1a23ec5dd9a5a4be9952", None, 0),
    (["limit"],
     "310ddd8f7880e592ac8daf07eeb344dc6c9e2b7787050cd5e9167d3f8f4c5644", None, 0),
    (["limit", "--format", "csv"],
     "05c3b492423c7e5007fa875c1bd1efec2285f7aff3841a16550c5dda61aa69c8", None, 0),
]


@pytest.mark.parametrize("argv, stdout_sha, out_sha, code", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, tmp_path, monkeypatch, argv, stdout_sha, out_sha, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha
    if out_sha is not None:
        written = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
        assert hashlib.sha256(written).hexdigest() == out_sha
