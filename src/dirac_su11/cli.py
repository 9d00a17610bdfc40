"""Command-line interface.

Subcommands:
    spectrum   closed-form bound spectrum over a channel grid
    state      one radial state: exact assembly, normalization, sampling
    verify     exact residual suite (optionally the numeric oracle too)
    jl         diagonality scan of the grading operator
    limit      nonrelativistic limit study of one level

Exit codes: 0 on success (also when the reader of stdout closes it
early), 2 on usage or domain errors (an unwritable --out among them), 3
when a verification run reports a failure or an internal check fails.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

from .params import (
    DEFAULT_PRECISION,
    SCHEMA_TAG,
    DomainError,
    channel_slots,
    make_channel,
    make_params,
    mp_str,
    nonrelativistic_limit_table,
    spectral_point,
)
from .ladder import build_state
from .wavefunctions import (
    assemble,
    count_f_nodes,
    laguerre_cross_check,
    normalize,
    orthogonality_exact,
    report_to_dict,
    sample,
)
from .verify import (GRAM_N_CAP, first_order_residual, holds_universal_window, row_failures,
                     verification_report)
from .jloperator import diagonality_scan, scan_to_dict, spectroscopic_label


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {text!r}")
    return value


def _c_schedule(text: str) -> tuple:
    return tuple(t.strip() for t in text.split(",") if t.strip())


@cache  # one parser per process: the run_* defaults are fixed, options parse afresh
def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dirac-su11",
        description="Exact algebraic bound states of the Coulomb-Dirac problem.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, run, with_z=True):
        p.set_defaults(run=run)
        p.add_argument("--c", default="137.035999084",
                       help="speed of light in atomic units, decimal string")
        if with_z:
            p.add_argument("--Z", type=int, default=1, help="nuclear charge")
        p.add_argument("--precision", type=_positive_int, default=DEFAULT_PRECISION,
                       help="working precision in bits")
        p.add_argument("--out", help="write the payload to this file")

    p = sub.add_parser("spectrum", help="bound levels over a channel grid")
    common(p, run_spectrum)
    p.add_argument("--N-max", dest="N_max", type=int, default=None,
                   help="enumerate whole shells N <= N-max instead of the (j, n) "
                        "grid (--j-max, --n-max); N = j + 1/2 + n")
    p.add_argument("--j-max", type=_fraction, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("state", help="assemble and sample one radial state")
    common(p, run_state)
    p.add_argument("--j", type=_fraction, required=True, help="total angular momentum, e.g. 3/2")
    p.add_argument("--eps", type=int, choices=(-1, 1), required=True)
    p.add_argument("--n", type=int, required=True, help="tower index, 0 is the bottom rung")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--allow-unphysical", action="store_true",
                   help="assemble a tau > 0 bottom rung anyway")

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p, run_verify, with_z=False)
    p.add_argument("--Z", type=int, action="append", dest="z_list", default=None,
                   help="repeatable; default 1 and 80")
    p.add_argument("--j-max", type=_fraction, default=Fraction(5, 2))
    p.add_argument("--n-max", type=int, default=5,
                   help=f"highest rung; the Gram block stops at {GRAM_N_CAP} and "
                        "the oracle at its validated cap, 10")
    p.add_argument("--skip-oracle", action="store_true",
                   help="exact residuals only, skip the float64 shooting oracle")
    p.add_argument("--inject-off-shell", action="store_true",
                   help="negative control: corrupt one state's residuals on "
                        "purpose; the run must then report FAIL")

    p = sub.add_parser("jl", help="diagonality scan of the grading operator")
    common(p, run_jl)
    p.add_argument("--j-max", type=_fraction, default=Fraction(5, 2))
    p.add_argument("--n-max", type=int, default=3)

    p = sub.add_parser("limit", help="nonrelativistic limit of one level")
    common(p, run_limit)
    p.add_argument("--j", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--eps", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--c-schedule", type=_c_schedule, default="1e2,1e3,1e4",
                   help="comma-separated c values, decimal strings")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return top


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise DomainError(f"cannot write {out}: {exc.strerror}") from exc
        print(f"wrote {out}")
    else:
        print(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True), out)


def _csv_text(header, rows) -> str:
    """CSV with a header line; the last line break is left to _emit."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


_SPECTRUM_FIELDS = ("N", "j", "eps", "n", "label", "E", "binding", "quantum_defect")


def _spectrum_rows(ns):
    # the grid defaults are None, so a grid option is given iff it is set
    if ns.N_max is not None and (ns.j_max is not None or ns.n_max is not None):
        raise DomainError("--j-max and --n-max are not allowed with --N-max")
    params = make_params(ns.c, ns.Z)
    if ns.N_max is not None:
        if ns.N_max < 1:
            raise DomainError("N-max must be at least 1")
        j_max = Fraction(2 * ns.N_max - 1, 2)
        n_max = ns.N_max - 1
    else:
        j_max = Fraction(5, 2) if ns.j_max is None else ns.j_max
        n_max = 5 if ns.n_max is None else ns.n_max
    # N = (2j + 1)/2 + n <= N_max cuts the slots to n <= N_max - (2j + 1)/2
    levels = [(ch, n) for ch, slots in channel_slots(params, j_max, n_max)
              for n in (slots if ns.N_max is None
                        else slots[:ns.N_max - (ch.j.numerator + 1) // 2 + 1])
              if ch.is_bound(n)]
    rows = []
    for ch, n in levels:
        pt = spectral_point(ch, n, ns.precision)
        rows.append({
            "N": pt.N,
            "j": str(ch.j),
            "eps": ch.eps,
            "n": n,
            "label": spectroscopic_label(ch, n),
            "E": mp_str(pt.E, ns.precision),
            "binding": mp_str(pt.binding, ns.precision),
            "quantum_defect": mp_str(pt.eps_j, ns.precision),
        })
    rows.sort(key=lambda r: (r["N"], Fraction(r["j"]), r["eps"], r["n"]))
    return rows


def run_spectrum(ns) -> int:
    rows = _spectrum_rows(ns)
    if ns.fmt == "csv":
        _emit(_csv_text(_SPECTRUM_FIELDS,
                        ([r[k] for k in _SPECTRUM_FIELDS] for r in rows)), ns.out)
    else:
        payload = {"schema": SCHEMA_TAG, "kind": "spectrum",
                   "Z": ns.Z, "c": ns.c, "precision": ns.precision,
                   "rows": rows}
        _emit_json(payload, ns.out)
    return 0


def _state_checks(pair):
    """Identity cross-checks on an assembled bound state; bool-valued."""
    lag = None
    # the rows refuse a window that is not the universal one: not exact
    checks = {"first_order_exact": holds_universal_window(pair.state) and all(
                  r.is_exact_zero for r in first_order_residual(pair.state)),
              "normalization_ok": orthogonality_exact(pair.state)}
    if pair.n >= 1:
        lag = laguerre_cross_check(pair.state)
        checks["laguerre_scalars_exact"] = (lag.rows_exact_zero
                                            and lag.det_on_shell_exact_zero)
        checks["off_shell_det_nonzero"] = lag.off_shell_det_nonzero
    return checks, lag


def run_state(ns) -> int:
    params = make_params(ns.c, ns.Z)
    ch = make_channel(params, ns.j, ns.eps)
    state = build_state(ch, ns.n, ns.precision)
    pair = normalize(assemble(state, allow_unphysical=ns.allow_unphysical))
    pair = sample(pair, count=ns.samples)
    checks, lag = _state_checks(pair) if pair.state.is_physical else (None, None)
    checks_ok = checks is None or all(checks.values())
    if ns.fmt == "csv":
        _emit(_csv_text(("rho", "F", "G"),
                        ([mp_str(v, ns.precision) for v in row] for row in pair.samples)),
              ns.out)
        if ns.out and checks is not None:
            print(f"identity checks: {'pass' if checks_ok else 'FAIL'}")
        if ns.out and lag is not None:
            print(f"laguerre scalars: a={lag.a} b={lag.b}")
        return 0 if checks_ok else 3
    payload = {
        "schema": SCHEMA_TAG,
        "kind": "state",
        "Z": ns.Z, "c": ns.c, "precision": ns.precision,
        "j": str(ns.j), "eps": ns.eps, "n": ns.n,
        "physical": pair.state.is_physical,
        "E": mp_str(pair.level.E, ns.precision),
        "binding": mp_str(pair.level.binding, ns.precision),
        "norm_constant": mp_str(pair.norm_constant, ns.precision),
        "f_nodes": count_f_nodes(pair),
        "checks": checks,
        "laguerre_report": report_to_dict(lag, ns.precision) if lag else None,
        "samples": [[mp_str(v, ns.precision) for v in row] for row in pair.samples],
    }
    _emit_json(payload, ns.out)
    return 0 if checks_ok else 3


def run_verify(ns) -> int:
    if not ns.skip_oracle:
        # the oracle brings numpy; only this path loads it
        from . import oracle
    runs = []
    ok = True
    for z in ns.z_list or (1, 80):
        params = make_params(ns.c, z)
        rep = verification_report(params, ns.j_max, ns.n_max, ns.precision,
                                  inject_off_shell=ns.inject_off_shell)
        line = f"Z={z}: residuals {'all exact' if rep['all_exact'] else 'FAILED'}"
        unbracketed = []
        if not ns.skip_oracle:
            if ns.n_max > oracle.ORACLE_N_CAP:
                rep["oracle_n_max"] = oracle.ORACLE_N_CAP
            try:
                rep["oracle"], worst = oracle.oracle_sweep(params, ns.j_max, ns.n_max)
            except oracle.BracketingError as exc:
                # every swept slot is bound in closed form: a failed check
                unbracketed = [{"j": str(ch.j), "eps": ch.eps, "n": n}
                               for ch, n in exc.slots]
                rep["oracle_unbracketed"] = unbracketed
                line += ", oracle FAILED to bracket"
                ok = False
            else:
                rep["oracle_worst_rel_error"] = f"{worst:.3e}"
                line += f", oracle worst rel err {worst:.1e}"
                if worst > oracle.ORACLE_REL_TOL:
                    line += " FAILED"
                    ok = False
        if not rep["all_exact"]:
            ok = False
        runs.append(rep)
        cut = [f"{key}={rep[key]}" for key in ("gram_n_max", "oracle_n_max") if key in rep]
        print(line + (f" (cut at {', '.join(cut)})" if cut else ""))
        for slot in unbracketed:
            print(f"  j={slot['j']} eps={slot['eps']:+d} n={slot['n']}: "
                  "oracle mismatch has no sign change over the bracket")
        for block in rep["channels"]:
            for row in block["rows"]:
                failed = row_failures(row)
                if failed:
                    print(f"  j={block['j']} eps={block['eps']:+d} n={row['n']}: "
                          + ", ".join(failed))
            if not block["gram_identity_ok"]:
                print(f"  j={block['j']} eps={block['eps']:+d}: Gram matrix "
                      f"not the identity (max diagonal err "
                      f"{block['gram_diagonal_max_err']})")
    payload = {"schema": SCHEMA_TAG, "kind": "verify", "runs": runs}
    if ns.out:
        _emit_json(payload, ns.out)
    return 0 if ok else 3


def run_jl(ns) -> int:
    params = make_params(ns.c, ns.Z)
    records = diagonality_scan(params, ns.j_max, ns.n_max, ns.precision)
    payload = scan_to_dict(records, ns.precision)
    print("diagonal bound states:", " ".join(payload["diagonal_labels"]))
    _emit_json(payload, ns.out)
    return 0


def run_limit(ns) -> int:
    table = nonrelativistic_limit_table(ns.j, ns.eps, ns.n,
                                        c_schedule=ns.c_schedule,
                                        Z=ns.Z, precision=ns.precision)
    rows = [(str(row.c), mp_str(row.binding, ns.precision),
             mp_str(row.bohr, ns.precision), mp_str(row.difference, ns.precision))
            for row in table.rows]
    names = ("c", "binding", "bohr", "difference")
    if ns.fmt == "csv":
        _emit(_csv_text(names, rows), ns.out)
        print(f"fitted_exponent={float(table.fitted_exponent):.6f}")
    else:
        payload = {"schema": SCHEMA_TAG, "kind": "limit",
                   "Z": ns.Z, "j": str(ns.j), "eps": ns.eps, "n": ns.n,
                   "fitted_exponent": f"{float(table.fitted_exponent):.12f}",
                   "rows": [dict(zip(names, row)) for row in rows]}
        _emit_json(payload, ns.out)
    return 0


def _run(argv) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return ns.run(ns)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (spectrum | head -1); send the rest
        # to devnull so that the flush at interpreter exit cannot fail again
        try:
            fd = sys.stdout.fileno()
        except OSError:  # in process, stdout may be a StringIO
            return 0
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0


if __name__ == "__main__":
    sys.exit(main())
