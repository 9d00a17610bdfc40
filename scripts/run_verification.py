#!/usr/bin/env python3
"""Full verification sweep over a grid of nuclear charges.

For each Z this runs the exact residual suite (every identity reduced to a
zero polynomial in the extended coefficient system) and, optionally, the
float64 shooting oracle on every bound slot of the grid. Reports land as
JSON next to this script unless --out-dir says otherwise.

Typical runs:
    python3 scripts/run_verification.py
    python3 scripts/run_verification.py --Z 1 --Z 40 --Z 80 --with-oracle
"""

import argparse
import json
import pathlib
import sys
import time
from fractions import Fraction

from dirac_su11.params import make_params
from dirac_su11.verify import ORACLE_REL_TOL, oracle_sweep, verification_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--Z", type=int, action="append", dest="z_list",
                    help="repeatable, default 1 40 80")
    ap.add_argument("--j-max", type=Fraction, default=Fraction(5, 2))
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--precision", type=int, default=256)
    ap.add_argument("--with-oracle", action="store_true")
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    z_list = args.z_list or [1, 40, 80]
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else pathlib.Path(__file__).parent
    failures = 0
    for z in z_list:
        t0 = time.perf_counter()
        params = make_params(Z=z)
        rep = verification_report(params, args.j_max, args.n_max, args.precision)
        if args.with_oracle:
            rep["oracle"], worst = oracle_sweep(params, args.j_max, args.n_max)
            rep["oracle_worst_rel_error"] = f"{worst:.3e}"
            if worst > ORACLE_REL_TOL:
                rep["all_exact"] = False
        dest = out_dir / f"verification_Z{z}.json"
        dest.write_text(json.dumps(rep, indent=2, sort_keys=True) + "\n")
        status = "ok" if rep["all_exact"] else "FAILED"
        extra = f", oracle worst {rep['oracle_worst_rel_error']}" if args.with_oracle else ""
        print(f"Z={z}: {status} in {time.perf_counter() - t0:.1f}s{extra} -> {dest}")
        if not rep["all_exact"]:
            failures += 1
    return 3 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
