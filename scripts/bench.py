"""Layer timings of the exact core and the oracle, warm in process, and whole
commands in fresh processes, written to BENCH_layers.json.

    python scripts/bench.py [--tree NAME=SRC ...] [--repeat K] [--out PATH]

Each tree is a source directory that holds the dirac_su11 package; the
default is this checkout's src, named "change". Give an older checkout's
src as a second tree to time both in one run. The run is K rounds;
each round starts one fresh interpreter per tree, one after the other,
and reverses the order of the trees every other round, so load on the
host lands on every tree alike. A worker times a row after one untimed
call, so process-wide caches (the universal tower, the Gamma factor, the
argument parser) are warm, as they are in a long-running process, and
takes the median of up to 25 calls: a row that has taken a second stops
after three. A row is the median over the rounds, with its quartiles as
the spread.

Rows, on (Z, j, eps) = (80, 5/2, +1) at 256 bits unless named:
  - every stage of `state` at n = 20, 40 and 64: climb, the last rung's
    `raise_state` alone, assemble, normalize, the normalization check,
    sample (400 points), the node count, the Laguerre report with its
    printed dict, and the whole command in process;
  - on the grid of `verify --Z 57 --j-max 5/2 --n-max 5`: the radial
    rows of every rung on shell (`first_order_residual`) and of every
    physical rung n >= 1 detuned (`detuned_first_order`), the Gram
    matrices of its six channels (`orthonormality_matrix`), and the whole
    report, which decides through these same functions;
  - the detuned control of one deep rung, n = 64 (`detuned_n64`), with the
    universal rows of that rung warm;
  - the first-order rows of one rung at n = 5, 20 and 64: decided once on
    the universal window, uncached (`universal`), read off them for the
    channel by `first_order_residual`, warm (`route`), and on the
    channel's lifted window (`direct`), the route the universal rows
    replaced; a tree without that decision or that lifted route has no
    such row;
  - the cheap commands in process, at Z = 57: `spectrum --N-max 1..4`,
    `jl` and `limit`;
  - the embedding edge: `embed_fraction(c^2)`, `s.embed(256)` and
    `exact_w(channel, 3).embed(256)`; `spectral_point(channel, 3)` on one
    channel, warm (a tree that keeps a channel's embedded constants times
    the level alone); and `diagonality_scan` at Z = 57, whose channels are
    new on every call;
  - the shooting oracle: `oracle_sweep` at Z = 40 and Z = 79 (j <= 3/2,
    n <= 3), one level alone (Z = 80, 5/2, -1, n = 3), the empty-slot
    control (Z = 1, 1/2, +1, n = 0) and the validated domain (the
    168-level batch of Z = 1 and 118, j <= 7/2, n <= 10). For each, the
    solves it takes and the vectorized recurrence terms per solve go under
    counts, from one further call that counts the calls to the Taylor
    stepper. That call's worst relative binding error on the domain goes
    there too.

The host is recorded (cores, Python, mpmath and its backend). Each worker
times the median of benchmark/gauge.py's reference slice before and after
its rows; every row is also given in refs, the median over the rounds of
seconds over that round's reference.

After the rounds, each tree runs FRESH_RUNS fresh processes of each
command in FRESH_COMMANDS, the trees interleaved as above; these rows are
wall seconds of the whole process, import included, given as their median
and [min, max] under fresh.
"""

from __future__ import annotations

import argparse
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
UNIVERSAL_NS = (5, 20, 64)
FRESH_RUNS = 3
FRESH_COMMANDS = {
    "state_n64": ["state", "--Z", "80", "--j", "5/2", "--eps", "1", "--n", "64",
                  "--format", "json"],
    "verify_Z80": ["verify", "--Z", "80", "--skip-oracle"],
    "spectrum_N4": ["spectrum", "--N-max", "4"],
    "jl": ["jl"],
    "limit": ["limit"],
}
GAUGE_SLICES = 7
CALLS, ROW_SECONDS, MIN_CALLS = 25, 1.0, 3


def timed(fn) -> float:
    """Median seconds of the calls of fn after one untimed call: CALLS of
    them, or MIN_CALLS and then none once they add up to ROW_SECONDS."""
    fn()
    runs = []
    while len(runs) < CALLS and (len(runs) < MIN_CALLS or sum(runs) < ROW_SECONDS):
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


def quiet_command(argv) -> None:
    """One CLI command in process, its output dropped; it must succeed."""
    from dirac_su11 import cli
    with redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def state_rows(n: int) -> dict:
    from dirac_su11 import ladder, wavefunctions as wf
    from dirac_su11.params import make_channel, make_params
    ch = make_channel(make_params(Z=80), Fraction(5, 2), 1)
    prec = 256
    below = ladder.build_state(ch, n - 1, prec)
    state = ladder.raise_state(below)
    raw = wf.assemble(state)
    pair = wf.normalize(raw)
    argv = ["state", "--Z", "80", "--j", "5/2", "--eps", "1", "--n", str(n),
            "--format", "json"]
    stages = {
        "climb": lambda: ladder.build_state(ch, n, prec),
        "raise_state": lambda: ladder.raise_state(below),
        "assemble": lambda: wf.assemble(state),
        "normalize": lambda: wf.normalize(raw),
        "normalization_check": lambda: wf.orthogonality_exact(state),
        "sample": lambda: wf.sample(pair, 400),
        "count_f_nodes": lambda: wf.count_f_nodes(pair),
        # the report embeds nothing; the dict that prints it does
        "laguerre_cross_check": lambda: wf.report_to_dict(wf.laguerre_cross_check(state), prec),
        "command": lambda: quiet_command(argv),
    }
    return {f"state_n{n}.{name}": timed(fn) for name, fn in stages.items()}


def verify_rows() -> dict:
    from dirac_su11 import verify
    from dirac_su11.ladder import climb
    from dirac_su11.params import channel_slots, make_channel, make_params
    params = make_params(Z=57)
    prec, n_max = 256, 5
    climbs = [climb(ch, n_max, prec) for ch, _ in channel_slots(params, Fraction(5, 2), n_max)]
    rungs = [state for states in climbs for state in states]
    deep = climb(make_channel(make_params(Z=80), Fraction(5, 2), 1), 64, prec)[-1]

    def window_rows():
        for state in rungs:
            verify.first_order_residual(state)

    def detuned():
        for state in rungs:
            if state.is_physical and state.n >= 1:
                verify.detuned_first_order(state)

    def gram_block():
        for states in climbs:
            verify.orthonormality_matrix(states, range(n_max + 1))

    return {
        "verify_Z57.window_rows": timed(window_rows),
        "verify_Z57.detuned": timed(detuned),
        "detuned_n64": timed(lambda: verify.detuned_first_order(deep)),
        "verify_Z57.gram_block": timed(gram_block),
        "verify_Z57.report": timed(lambda: verify.verification_report(
            params, Fraction(5, 2), n_max, prec)),
    }


def universal_rows() -> dict:
    from dirac_su11 import ladder, verify
    from dirac_su11.params import exact_w, make_channel, make_params
    ch = make_channel(make_params(Z=80), Fraction(5, 2), 1)
    rows = {}
    for n in UNIVERSAL_NS:
        state, w = ladder.build_state(ch, n), exact_w(ch, n)
        if hasattr(verify, "_decide_universal_rows"):
            rows[f"rows_n{n}.universal"] = timed(lambda: verify._decide_universal_rows(n))
        rows[f"rows_n{n}.route"] = timed(lambda: verify.first_order_residual(state))
        if hasattr(verify, "_window_rows"):
            rows[f"rows_n{n}.direct"] = timed(lambda: verify._window_rows(state, w))
    return rows


def cli_rows() -> dict:
    commands = {f"spectrum_N{k}": ["spectrum", "--N-max", str(k)] for k in range(1, 5)}
    commands.update(jl=["jl"], limit=["limit"])
    return {f"cli_Z57.{name}": timed(lambda: quiet_command(argv + ["--Z", "57"]))
            for name, argv in commands.items()}


def embed_rows() -> dict:
    from dirac_su11.jloperator import diagonality_scan
    from dirac_su11.params import exact_w, make_channel, make_params, spectral_point
    from dirac_su11.qsfield import embed_fraction
    ch = make_channel(make_params(Z=80), Fraction(5, 2), 1)
    w = exact_w(ch, 3)
    return {
        "embed.fraction_c2": timed(lambda: embed_fraction(ch.params.c2, 256)),
        "embed.s": timed(lambda: ch.s.embed(256)),
        "embed.exact_w3": timed(lambda: w.embed(256)),
        "embed.spectral_point3": timed(lambda: spectral_point(ch, 3, 256)),
        "embed.jl_scan_Z57": timed(lambda: diagonality_scan(make_params(Z=57))),
    }


def oracle_rows() -> tuple:
    from dirac_su11 import oracle
    from dirac_su11.params import channel_slots, make_channel, make_params
    level = make_channel(make_params(Z=80), Fraction(5, 2), -1)
    empty = make_channel(make_params(Z=1), Fraction(1, 2), 1)
    domain = [(ch, n) for Z in (1, 118)
              for ch, rungs in channel_slots(make_params(Z=Z), Fraction(7, 2), oracle.ORACLE_N_CAP)
              for n in rungs if ch.is_bound(n)]

    def empty_slot():
        try:
            oracle.shooting_oracle(empty, 0)
        except oracle.BracketingError:
            return
        raise AssertionError("the empty slot converged")

    runs = {
        "sweep_Z40": lambda: oracle.oracle_sweep(make_params(Z=40), Fraction(3, 2), 3),
        "sweep_Z79": lambda: oracle.oracle_sweep(make_params(Z=79), Fraction(3, 2), 3),
        "level_Z80": lambda: oracle.shooting_oracle(level, 3),
        "empty_slot": empty_slot,
        "domain": lambda: oracle.shooting_oracle_batch(domain),
    }
    seconds = {f"oracle.{name}": timed(fn) for name, fn in runs.items()}
    counts, results, shoot, work = {}, {}, oracle._shoot, []

    def counted(*lanes):
        mismatch, done = shoot(*lanes)
        work.append(done)
        return mismatch, done

    oracle._shoot = counted
    try:
        for name, fn in runs.items():
            work.clear()
            results[name] = fn()
            counts[f"oracle.{name}.solves"] = len(work)
            counts[f"oracle.{name}.terms_per_solve"] = sum(work) / len(work)
    finally:
        oracle._shoot = shoot
    counts["oracle.domain.worst_rel_error"] = max(
        oracle.oracle_binding_residual(ch, n, res)
        for (ch, n), res in zip(domain, results["domain"]))
    return seconds, counts


def worker() -> dict:
    """One round of the rows of the tree on sys.path, with the gauge
    around them."""
    import mpmath
    before = reference_slices(GAUGE_SLICES)
    rows = {}
    for n in STATE_NS:
        rows.update(state_rows(n))
    rows.update(verify_rows())
    rows.update(universal_rows())
    rows.update(cli_rows())
    rows.update(embed_rows())
    oracle_seconds, counts = oracle_rows()
    rows.update(oracle_seconds)
    return {
        "mpmath": f"{mpmath.__version__} ({mpmath.libmp.BACKEND} backend)",
        "reference_slice_s": statistics.median(before + reference_slices(GAUGE_SLICES)),
        "seconds": rows,
        "counts": counts,
    }


def quartiles(values: list) -> list:
    """[first, third] quartile; a single value is its own spread."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summary(rounds: list) -> dict:
    """A tree's rows over its rounds: median seconds, their quartiles, and
    the median of each round's seconds over that round's reference; and
    the median of each count."""
    names = rounds[0]["seconds"]
    secs = {name: [r["seconds"][name] for r in rounds] for name in names}
    return {
        "counts": {name: statistics.median(r["counts"][name] for r in rounds)
                   for name in rounds[0]["counts"]},
        "mpmath": rounds[0]["mpmath"],
        "reference_slice_s": statistics.median(r["reference_slice_s"] for r in rounds),
        "seconds": {name: statistics.median(v) for name, v in secs.items()},
        "quartiles": {name: quartiles(v) for name, v in secs.items()},
        "refs": {name: statistics.median(r["seconds"][name] / r["reference_slice_s"]
                                         for r in rounds) for name in names},
    }


def interleaved(trees: dict, rounds: int):
    """(name, src) of each tree in each round, the order of the trees
    reversed every other round."""
    for k in range(rounds):
        for name in (list(trees) if k % 2 == 0 else list(trees)[::-1]):
            yield name, trees[name]


def fresh_rows(trees: dict) -> dict:
    """Wall seconds of each FRESH_COMMANDS process, per tree:
    {name: {row: [seconds, ...]}}; every command must exit 0."""
    out = {name: {row: [] for row in FRESH_COMMANDS} for name in trees}
    for name, src in interleaved(trees, FRESH_RUNS):
        env = {**os.environ, "PYTHONPATH": src}
        for row, argv in FRESH_COMMANDS.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "dirac_su11.cli", *argv], env=env,
                           stdout=subprocess.DEVNULL, check=True)
            out[name][row].append(time.perf_counter() - start)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=None, metavar="NAME=SRC",
                    help="a source directory to time, named; repeatable")
    ap.add_argument("--repeat", type=int, default=5,
                    help="rounds: one worker per tree each")
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
    for name, src in interleaved(trees, ns.repeat):
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, __file__, "--worker", src],
                              capture_output=True, text=True, env=env, check=True)
        rounds[name].append(json.loads(proc.stdout))
    fresh = fresh_rows(trees)
    payload = {
        "kind": "bench-layers",
        "started": started,
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(), "processor": platform.machine()},
        "repeat": ns.repeat,
        "trees": {name: {**summary(runs), "fresh": {
            row: {"median": statistics.median(v), "range": [min(v), max(v)]}
            for row, v in fresh[name].items()}} for name, runs in rounds.items()},
    }
    with open(ns.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ns.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
