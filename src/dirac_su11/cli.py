"""Command-line interface.

Subcommands:
    spectrum   closed-form bound spectrum over a channel grid
    state      one radial state: exact assembly, normalization, sampling
    verify     exact residual suite (optionally the numeric oracle too)
    jl         diagonality scan of the grading operator
    limit      nonrelativistic limit study of one level

Exit codes: 0 on success, 2 on usage or domain errors, 3 when a
verification run reports a failure or an internal check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .params import (
    DEFAULT_PRECISION,
    SCHEMA_TAG,
    DomainError,
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
    norm_integral,
    normalize,
    report_to_dict,
    sample,
    write_csv,
)
from .verify import (
    ORACLE_REL_TOL,
    BracketingError,
    first_order_residual,
    oracle_sweep,
    verification_report,
)
from .jloperator import diagonality_scan, scan_to_dict


@dataclass(frozen=True, slots=True)
class RunConfig:
    command: str
    c: str
    Z: int
    precision: int
    j: Optional[Fraction] = None
    eps: Optional[int] = None
    n: Optional[int] = None
    j_max: Optional[Fraction] = None
    n_max: Optional[int] = None
    N_max: Optional[int] = None
    fmt: str = "json"
    out: Optional[str] = None
    samples: int = 400
    with_oracle: bool = True
    inject_off_shell: bool = False
    z_list: tuple = ()
    c_schedule: tuple = ()
    allow_unphysical: bool = False


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


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dirac-su11",
        description="Exact algebraic bound states of the Coulomb-Dirac problem.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_z=True):
        p.add_argument("--c", default="137.035999084",
                       help="speed of light in atomic units, decimal string")
        if with_z:
            p.add_argument("--Z", type=int, default=1, help="nuclear charge")
        p.add_argument("--precision", type=_positive_int, default=DEFAULT_PRECISION,
                       help="working precision in bits")
        p.add_argument("--out", help="write the payload to this file")

    p = sub.add_parser("spectrum", help="bound levels over a channel grid")
    common(p)
    p.add_argument("--j-max", type=_fraction, default=Fraction(5, 2))
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--N-max", dest="N_max", type=int, default=None,
                   help="enumerate whole shells N <= N-max instead of the "
                        "(j, n) grid; N = j + 1/2 + n")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    p = sub.add_parser("state", help="assemble and sample one radial state")
    common(p)
    p.add_argument("--j", type=_fraction, required=True, help="total angular momentum, e.g. 3/2")
    p.add_argument("--eps", type=int, choices=(-1, 1), required=True)
    p.add_argument("--n", type=int, required=True, help="tower index, 0 is the bottom rung")
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--allow-unphysical", action="store_true",
                   help="assemble a tau > 0 bottom rung anyway")

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p, with_z=False)
    p.add_argument("--Z", type=int, action="append", dest="z_list",
                   help="repeatable; default 1 and 80")
    p.add_argument("--j-max", type=_fraction, default=Fraction(5, 2))
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--skip-oracle", action="store_true",
                   help="exact residuals only, skip the float64 shooting oracle")
    p.add_argument("--inject-off-shell", action="store_true",
                   help="negative control: corrupt one state's residuals on "
                        "purpose; the run must then report FAIL")

    p = sub.add_parser("jl", help="diagonality scan of the grading operator")
    common(p)
    p.add_argument("--j-max", type=_fraction, default=Fraction(5, 2))
    p.add_argument("--n-max", type=int, default=3)

    p = sub.add_parser("limit", help="nonrelativistic limit of one level")
    common(p)
    p.add_argument("--j", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--eps", type=int, choices=(-1, 1), default=-1)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--c-schedule", default="1e2,1e3,1e4",
                   help="comma-separated c values, decimal strings")
    p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return top


def config_from_args(argv) -> RunConfig:
    ns = build_parser().parse_args(argv)
    kw = dict(
        command=ns.command,
        c=ns.c,
        Z=getattr(ns, "Z", 1) if ns.command != "verify" else 1,
        precision=ns.precision,
        out=ns.out,
    )
    if ns.command == "spectrum":
        kw.update(j_max=ns.j_max, n_max=ns.n_max, N_max=ns.N_max, fmt=ns.fmt)
    elif ns.command == "state":
        kw.update(j=ns.j, eps=ns.eps, n=ns.n, samples=ns.samples, fmt=ns.fmt,
                  allow_unphysical=ns.allow_unphysical)
    elif ns.command == "verify":
        kw.update(j_max=ns.j_max, n_max=ns.n_max,
                  with_oracle=not ns.skip_oracle,
                  inject_off_shell=ns.inject_off_shell,
                  z_list=tuple(ns.z_list) if ns.z_list else (1, 80))
    elif ns.command == "jl":
        kw.update(j_max=ns.j_max, n_max=ns.n_max)
    elif ns.command == "limit":
        kw.update(j=ns.j, eps=ns.eps, n=ns.n, fmt=ns.fmt,
                  c_schedule=tuple(t.strip() for t in ns.c_schedule.split(",") if t.strip()))
    return RunConfig(**kw)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {out}")
    else:
        print(text)


def _spectrum_rows(cfg: RunConfig):
    from .jloperator import spectroscopic_label

    params = make_params(cfg.c, cfg.Z)
    if cfg.N_max is not None:
        if cfg.N_max < 1:
            raise DomainError("N-max must be at least 1")
        j_max = Fraction(2 * cfg.N_max - 1, 2)
        n_max = cfg.N_max - 1
    else:
        j_max, n_max = cfg.j_max, cfg.n_max
    rows = []
    j = Fraction(1, 2)
    while j <= j_max:
        for eps in (-1, 1):
            ch = make_channel(params, j, eps)
            for n in range(n_max + 1):
                pt = spectral_point(ch, n, cfg.precision)
                if not pt.is_physical:
                    continue
                if cfg.N_max is not None and pt.N > cfg.N_max:
                    continue
                rows.append({
                    "N": pt.N,
                    "j": str(j),
                    "eps": eps,
                    "n": n,
                    "label": spectroscopic_label(ch, n),
                    "E": mp_str(pt.E, cfg.precision),
                    "binding": mp_str(pt.binding, cfg.precision),
                    "quantum_defect": mp_str(pt.eps_j, cfg.precision),
                })
        j += 1
    rows.sort(key=lambda r: (r["N"], Fraction(r["j"]), r["eps"], r["n"]))
    return rows


def run_spectrum(cfg: RunConfig) -> int:
    rows = _spectrum_rows(cfg)
    if cfg.fmt == "csv":
        import io
        import csv as _csv

        buf = io.StringIO()
        names = ["N", "j", "eps", "n", "label", "E", "binding", "quantum_defect"]
        w = _csv.DictWriter(buf, fieldnames=names)
        w.writeheader()
        w.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), cfg.out)
    else:
        payload = {"schema": SCHEMA_TAG, "kind": "spectrum",
                   "Z": cfg.Z, "c": cfg.c, "precision": cfg.precision,
                   "rows": rows}
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0


def _state_checks(pair, precision: int):
    """Identity cross-checks on an assembled bound state; bool-valued."""
    checks = {}
    lag = None
    reps = first_order_residual(pair, precision)
    checks["first_order_exact"] = all(r.is_exact_zero for r in reps)
    with mp.workprec(precision):
        norm_err = abs(norm_integral(pair, precision) - 1)
        checks["normalization_ok"] = bool(norm_err < mp.mpf(2) ** -(precision - 16))
    if pair.n >= 1:
        lag = laguerre_cross_check(pair.state, precision)
        checks["laguerre_scalars_exact"] = (lag.rows_exact_zero
                                            and lag.det_on_shell_exact_zero)
        checks["elimination_ok"] = bool(
            lag.eliminated_energy_residual < mp.mpf(2) ** -(precision // 2))
    return checks, lag


def run_state(cfg: RunConfig) -> int:
    params = make_params(cfg.c, cfg.Z)
    ch = make_channel(params, cfg.j, cfg.eps)
    state = build_state(ch, cfg.n, cfg.precision)
    pair = normalize(assemble(state, allow_unphysical=cfg.allow_unphysical))
    pair = sample(pair, count=cfg.samples)
    checks, lag = None, None
    if pair.state.is_physical:
        try:
            checks, lag = _state_checks(pair, cfg.precision)
        except AssertionError as exc:
            checks = {"identity_failure": str(exc)}
    checks_ok = checks is None or ("identity_failure" not in checks
                                   and all(v for v in checks.values()))
    if cfg.fmt == "csv":
        if not cfg.out:
            import io
            import csv as _csv

            buf = io.StringIO()
            w = _csv.writer(buf)
            w.writerow(["rho", "F", "G"])
            for rho, fv, gv in pair.samples:
                w.writerow([mp_str(rho, cfg.precision), mp_str(fv, cfg.precision),
                            mp_str(gv, cfg.precision)])
            print(buf.getvalue().rstrip("\n"))
        else:
            write_csv(pair, cfg.out, cfg.precision)
            print(f"wrote {cfg.out}")
            if checks is not None:
                print(f"identity checks: {'pass' if checks_ok else 'FAIL'}")
            if lag is not None:
                print(f"laguerre scalars: a={lag.a} b={lag.b}")
        return 0 if checks_ok else 3
    payload = {
        "schema": SCHEMA_TAG,
        "kind": "state",
        "Z": cfg.Z, "c": cfg.c, "precision": cfg.precision,
        "j": str(cfg.j), "eps": cfg.eps, "n": cfg.n,
        "physical": pair.state.is_physical,
        "E": mp_str(pair.state.spectral.E, cfg.precision),
        "binding": mp_str(pair.state.spectral.binding, cfg.precision),
        "norm_constant": mp_str(pair.state.norm_constant, cfg.precision),
        "f_nodes": count_f_nodes(pair),
        "checks": checks,
        "laguerre_report": report_to_dict(lag, cfg.precision) if lag else None,
        "samples": [[mp_str(v, cfg.precision) for v in row] for row in pair.samples],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0 if checks_ok else 3


def run_verify(cfg: RunConfig) -> int:
    runs = []
    ok = True
    for z in cfg.z_list:
        params = make_params(cfg.c, z)
        rep = verification_report(params, cfg.j_max, cfg.n_max, cfg.precision,
                                  inject_off_shell=cfg.inject_off_shell)
        line = f"Z={z}: residuals {'all exact' if rep['all_exact'] else 'FAILED'}"
        unbracketed = []
        if cfg.with_oracle:
            try:
                rep["oracle"], worst = oracle_sweep(params, cfg.j_max, cfg.n_max)
            except BracketingError as exc:
                # every swept slot is bound in closed form: a failed check
                unbracketed = [{"j": str(ch.j), "eps": ch.eps, "n": n}
                               for ch, n in exc.slots]
                rep["oracle_unbracketed"] = unbracketed
                line += ", oracle FAILED to bracket"
                ok = False
            else:
                rep["oracle_worst_rel_error"] = f"{worst:.3e}"
                line += f", oracle worst rel err {worst:.1e}"
                if worst > ORACLE_REL_TOL:
                    line += " FAILED"
                    ok = False
        if not rep["all_exact"]:
            ok = False
        runs.append(rep)
        print(line)
        for slot in unbracketed:
            print(f"  j={slot['j']} eps={slot['eps']:+d} n={slot['n']}: "
                  "oracle mismatch has no sign change over the bracket")
        for block in rep["channels"]:
            for row in block["rows"]:
                failed = row.get("failed", [])
                if row.get("detuned_nonzero") is False:
                    failed = failed + ["detuned control unexpectedly zero"]
                if failed:
                    print(f"  j={block['j']} eps={block['eps']:+d} n={row['n']}: "
                          + ", ".join(failed))
            if not block["gram_identity_ok"]:
                print(f"  j={block['j']} eps={block['eps']:+d}: Gram matrix "
                      f"not the identity (max diagonal err "
                      f"{block['gram_diagonal_max_err']})")
    payload = {"schema": SCHEMA_TAG, "kind": "verify", "runs": runs}
    if cfg.out:
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0 if ok else 3


def run_jl(cfg: RunConfig) -> int:
    params = make_params(cfg.c, cfg.Z)
    records = diagonality_scan(params, cfg.j_max, cfg.n_max, cfg.precision)
    payload = scan_to_dict(records, cfg.precision)
    print("diagonal bound states:", " ".join(payload["diagonal_labels"]))
    if cfg.out:
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def run_limit(cfg: RunConfig) -> int:
    table = nonrelativistic_limit_table(cfg.j, cfg.eps, cfg.n,
                                        c_schedule=cfg.c_schedule,
                                        Z=cfg.Z, precision=cfg.precision)
    rows = [{
        "c": str(row.c),
        "binding": mp_str(row.binding, cfg.precision),
        "bohr": mp_str(row.bohr, cfg.precision),
        "difference": mp_str(row.difference, cfg.precision),
    } for row in table.rows]
    if cfg.fmt == "csv":
        import io
        import csv as _csv

        buf = io.StringIO()
        w = _csv.DictWriter(buf, fieldnames=["c", "binding", "bohr", "difference"])
        w.writeheader()
        w.writerows(rows)
        _emit(buf.getvalue().rstrip("\n"), cfg.out)
        print(f"fitted_exponent={float(table.fitted_exponent):.6f}")
    else:
        payload = {"schema": SCHEMA_TAG, "kind": "limit",
                   "Z": cfg.Z, "j": str(cfg.j), "eps": cfg.eps, "n": cfg.n,
                   "fitted_exponent": f"{float(table.fitted_exponent):.12f}",
                   "rows": rows}
        _emit(json.dumps(payload, indent=2, sort_keys=True), cfg.out)
    return 0


_RUNNERS = {
    "spectrum": run_spectrum,
    "state": run_state,
    "verify": run_verify,
    "jl": run_jl,
    "limit": run_limit,
}


def main(argv=None) -> int:
    try:
        cfg = config_from_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _RUNNERS[cfg.command](cfg)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
