"""Warm layer timings of the exact core, written to BENCH_layers.json.

    python scripts/bench.py [--tree NAME=SRC ...] [--repeat K] [--out PATH]

Each tree is a source directory that holds the dirac_su11 package; the
default is this checkout's src, named "change". Give an older checkout's
src as a second tree to time both in one run. The run is K rounds;
each round starts one fresh interpreter per tree, one after the other,
and reverses the order of the trees every other round, so load on the
host lands on every tree alike. A worker times each row once, after one
untimed call, so process-wide caches (the universal tower, the Gamma
factor) are warm, as they are in a long-running process. A row is the
median over the rounds, with its quartiles as the spread.

Rows, on (Z, j, eps) = (80, 5/2, +1) at 256 bits unless named:
  - every stage of `state` at n = 20, 40 and 64: climb, assemble,
    normalize, the normalization check, sample (400 points), the node
    count, the Laguerre report, and the whole command in process;
  - the Gram block of `verify --Z 57 --j-max 5/2 --n-max 5`: the Gram
    matrices of its six channels, and the whole report.

The host is recorded (cores, Python, mpmath and its backend). Each worker
times the median of benchmark/gauge.py's reference slice before and after
its rows; every row is also given in refs, the median over the rounds of
seconds over that round's reference.
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


def timed(fn) -> float:
    """Seconds of one call of fn, after one untimed call."""
    fn()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def reference_slices(count: int) -> list:
    sys.path.insert(0, str(ROOT / "benchmark"))
    from gauge import reference_slice
    runs = []
    for _ in range(count):
        start = time.perf_counter()
        reference_slice()
        runs.append(time.perf_counter() - start)
    return runs


def state_rows(n: int) -> dict:
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
    return {f"state_n{n}.{name}": timed(fn) for name, fn in stages.items()}


def verify_rows() -> dict:
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
        "verify_Z57.gram_block": timed(gram_block),
        "verify_Z57.report": timed(lambda: verify.verification_report(
            params, Fraction(5, 2), n_max, prec)),
    }


def worker() -> dict:
    """One round of the rows of the tree on sys.path, with the gauge
    around them."""
    import mpmath
    before = reference_slices(GAUGE_SLICES)
    rows = {}
    for n in STATE_NS:
        rows.update(state_rows(n))
    rows.update(verify_rows())
    return {
        "mpmath": f"{mpmath.__version__} ({mpmath.libmp.BACKEND} backend)",
        "reference_slice_s": statistics.median(before + reference_slices(GAUGE_SLICES)),
        "seconds": rows,
    }


def quartiles(values: list) -> list:
    """[first, third] quartile; a single value is its own spread."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summary(rounds: list) -> dict:
    """A tree's rows over its rounds: median seconds, their quartiles, and
    the median of each round's seconds over that round's reference."""
    names = rounds[0]["seconds"]
    secs = {name: [r["seconds"][name] for r in rounds] for name in names}
    return {
        "mpmath": rounds[0]["mpmath"],
        "reference_slice_s": statistics.median(r["reference_slice_s"] for r in rounds),
        "seconds": {name: statistics.median(v) for name, v in secs.items()},
        "quartiles": {name: quartiles(v) for name, v in secs.items()},
        "refs": {name: statistics.median(r["seconds"][name] / r["reference_slice_s"]
                                         for r in rounds) for name in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=None, metavar="NAME=SRC",
                    help="a source directory to time, named; repeatable")
    ap.add_argument("--repeat", type=int, default=5,
                    help="rounds: one worker per tree each, one timed call per row")
    ap.add_argument("--out", default=str(ROOT / "BENCH_layers.json"))
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if ns.repeat < 1:
        ap.error("--repeat must be at least 1")
    if ns.worker:
        sys.path.insert(0, ns.worker)
        print(json.dumps(worker()))
        return 0
    trees = {}
    for spec in ns.tree or [f"change={ROOT / 'src'}"]:
        name, _, src = spec.partition("=")
        trees[name] = str(Path(src).resolve())
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    rounds = {name: [] for name in trees}
    for k in range(ns.repeat):
        for name in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            src = trees[name]
            env = {**os.environ, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, __file__, "--worker", src],
                                  capture_output=True, text=True, env=env, check=True)
            rounds[name].append(json.loads(proc.stdout))
    payload = {
        "kind": "bench-layers",
        "started": started,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.machine()},
        "repeat": ns.repeat,
        "trees": {name: summary(runs) for name, runs in rounds.items()},
    }
    with open(ns.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
