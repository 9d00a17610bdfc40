"""Warm layer timings of the exact core, written to BENCH_layers.json.

    python scripts/bench.py [--tree NAME=SRC ...] [--repeat K] [--out PATH]

Each tree is a source directory that holds the dirac_su11 package; the
default is this checkout's src, named "change". Give an older checkout's
src as a second tree to time both in one session, one fresh interpreter
per tree, one tree after the other. A row is the median of K timed calls
after one untimed call, so process-wide caches (the universal tower, the
Gamma factor) are warm, as they are in a long-running process.

Rows, on (Z, j, eps) = (80, 5/2, +1) at 256 bits unless named:
  - every stage of `state` at n = 20, 40 and 64: climb, assemble,
    normalize, the normalization check, sample (400 points), the node
    count, the Laguerre report, and the whole command in process;
  - the Gram block of `verify --Z 57 --j-max 5/2 --n-max 5`: the Gram
    matrices of its six channels, and the whole report.

The host is recorded (cores, Python, mpmath and its backend), with the
median of benchmark/gauge.py's reference slice timed before and after the
rows; every row is also given in refs, seconds over that median.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE_NS = (20, 40, 64)
GAUGE_SLICES = 7


def timed(fn, repeat: int) -> float:
    """Median seconds of `repeat` calls of fn, after one untimed call."""
    fn()
    runs = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def reference_slices(count: int) -> list:
    sys.path.insert(0, str(ROOT / "benchmark"))
    from gauge import reference_slice
    runs = []
    for _ in range(count):
        start = time.perf_counter()
        reference_slice()
        runs.append(time.perf_counter() - start)
    return runs


def state_rows(n: int, repeat: int) -> dict:
    from dirac_su11 import cli, ladder, wavefunctions as wf
    from dirac_su11.params import make_channel, make_params
    ch = make_channel(make_params(Z=80), Fraction(5, 2), 1)
    prec = 256
    state = ladder.build_state(ch, n, prec)
    raw = wf.assemble(state)
    pair = wf.normalize(raw)
    if hasattr(wf, "orthogonality_exact"):
        check = lambda: wf.orthogonality_exact(state)          # noqa: E731
    else:   # a tree whose check re-sums the moments normalize stored
        check = lambda: wf.norm_integral(pair)                 # noqa: E731
    if len(inspect.signature(wf.laguerre_cross_check).parameters) > 1:
        laguerre = lambda: wf.laguerre_cross_check(state, pair.level)   # noqa: E731
    else:
        laguerre = lambda: wf.laguerre_cross_check(state)               # noqa: E731
    argv = ["state", "--Z", "80", "--j", "5/2", "--eps", "1", "--n", str(n),
            "--format", "json"]

    def command():
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    stages = {
        "climb": lambda: ladder.build_state(ch, n, prec),
        "assemble": lambda: wf.assemble(state),
        "normalize": lambda: wf.normalize(raw),
        "normalization_check": check,
        "sample": lambda: wf.sample(pair, 400),
        "count_f_nodes": lambda: wf.count_f_nodes(pair),
        "laguerre_cross_check": laguerre,
        "command": command,
    }
    return {f"state_n{n}.{name}": timed(fn, repeat) for name, fn in stages.items()}


def verify_rows(repeat: int) -> dict:
    from dirac_su11 import verify
    from dirac_su11.ladder import climb
    from dirac_su11.params import channel_grid, make_params
    params = make_params(Z=57)
    prec, n_max = 256, 5
    climbs = [climb(ch, n_max, prec) for ch in channel_grid(params, Fraction(5, 2))]
    takes_precision = len(inspect.signature(verify._gram_matrix).parameters) > 2

    def gram_block():
        for rungs in climbs:
            if takes_precision:
                verify._gram_matrix(rungs, range(n_max + 1), prec)
            else:
                verify._gram_matrix(rungs, range(n_max + 1))

    return {
        "verify_Z57.gram_block": timed(gram_block, repeat),
        "verify_Z57.report": timed(lambda: verify.verification_report(
            params, Fraction(5, 2), n_max, prec), repeat),
    }


def worker(repeat: int) -> dict:
    """The rows of the tree on sys.path, with the gauge around them."""
    import mpmath
    before = reference_slices(GAUGE_SLICES)
    rows = {}
    for n in STATE_NS:
        rows.update(state_rows(n, repeat if n < 64 else max(1, repeat // 2)))
    rows.update(verify_rows(repeat))
    ref = statistics.median(before + reference_slices(GAUGE_SLICES))
    return {
        "mpmath": f"{mpmath.__version__} ({mpmath.libmp.BACKEND} backend)",
        "reference_slice_s": ref,
        "seconds": rows,
        "refs": {name: secs / ref for name, secs in rows.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=None, metavar="NAME=SRC",
                    help="a source directory to time, named; repeatable")
    ap.add_argument("--repeat", type=int, default=5, help="timed calls per row")
    ap.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.worker:
        sys.path.insert(0, ns.worker)
        print(json.dumps(worker(ns.repeat)))
        return 0
    trees = {}
    for spec in ns.tree or [f"change={ROOT / 'src'}"]:
        name, _, src = spec.partition("=")
        trees[name] = str(Path(src).resolve())
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    results = {}
    for name, src in trees.items():
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", src, "--repeat", str(ns.repeat)],
            capture_output=True, text=True, env=env, check=True)
        results[name] = json.loads(proc.stdout)
    payload = {
        "kind": "bench-layers",
        "started": started,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.machine()},
        "repeat": ns.repeat,
        "trees": results,
    }
    with open(ns.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
