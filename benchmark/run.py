"""Benchmark of the dirac-su11 CLI: one seeded workload, one run.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``. Each run starts one fresh interpreter (benchmark/worker.py) that
imports the package cold and drives ``dirac_su11.cli.main(argv)`` in
process, as a user's shell would drive the installed ``dirac-su11``
command. With --trace 0 the last stdout line carries the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
Lines before it record the environment and details (tail percentile and
sample count, layer-share claims, failures). Raw results and spans go to
``.bench_tmp/`` under the checkout.

Counts that depend only on the code and the seed (checks decided, rungs
climbed, oracle rhs evaluations, coefficient bits) are kept in
``.bench_tmp/counts-*.json``; a later run of the same code and seed must
reproduce them exactly, or the run is reported incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_units
from workloads import C_DEFAULT, PRECISION, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
SETUP_PROBES = 3          # fresh interpreters timed besides the worker itself
WORKER_GRACE_S = 120      # a run is killed this long after its --seconds
PROBE_TIMEOUT_S = 10
PROBE = "import dirac_su11.cli; print('READY', flush=True)"

# Command times are in refs: multiples of the reference slice timed near
# each command (gauge.py), which cancels most of the host's slow and fast
# phases. The same medians in seconds are in `details`.
END_TO_END = {  # name -> unit
    "wall_ref": "ref", "cpu_ref": "ref", "cmd_p50_ref": "ref", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_ratio": "ratio", "checks_decided": "count",
}


def tail(latencies):
    """(value, percentile, samples): the latency at the highest percentile
    with at least ten samples above it; with ten samples or fewer, the
    maximum (percentile 100)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def source_digest() -> str:
    """Hash of the package and benchmark sources, which fix the exact counts."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "dirac_su11").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_hash() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def start_child(argv) -> tuple:
    """Start a fresh interpreter and wait for its READY line.

    Returns (process, seconds from spawn to READY); raises RuntimeError
    if the interpreter exits before importing the package.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise RuntimeError("dirac_su11.cli could not be imported from "
                           f"{SRC} (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout: float) -> str:
    """Rest of a child's stdout once it exits; kills it if it overruns."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("benchmark child overran its time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return out


def probe_setup() -> float:
    proc, ready = start_child(["-c", PROBE])
    finish(proc, PROBE_TIMEOUT_S)
    return ready


def run_worker(args) -> tuple:
    proc, ready = start_child([
        str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--tmp", str(TMP)])
    lines = finish(proc, args.seconds + WORKER_GRACE_S).strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1]), ready


def share_claims(workload: str, raw: dict) -> dict:
    """Whether a traced run confirms the shares the workloads were chosen
    for: the oracle about 90% of oracle-sweep and absent from exact-mix,
    Sturm counting plus sampling most of the deep state command."""
    oracle = raw["per_layer"]["verify.shooting_oracle.self_share"]
    if workload == "oracle-sweep":
        return {"oracle_about_90pct": {"share": oracle, "confirmed": oracle >= 0.8}}
    claims = {"oracle_absent": {"share": oracle, "confirmed": oracle == 0}}
    share = raw["state_sturm_sampling_share"]
    if share is not None:
        claims["sturm_plus_sampling_most_of_state"] = {"share": share,
                                                       "confirmed": share > 0.5}
    return claims


def check_counts(workload: str, seed: int, digest: str, counts: dict) -> list:
    """Compare exact counts with an earlier run of the same code and seed,
    then record them. Returns the names that differ."""
    path = TMP / f"counts-{workload}-{seed}-{digest[:16]}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    differ = [k for k, v in counts.items() if k in known and known[k] != v]
    path.write_text(json.dumps({**known, **counts}, indent=1, sort_keys=True))
    return differ


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "dirac_su11" / "cli.py").is_file():
        print(f"error: no dirac_su11 sources under {SRC}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    try:
        raw, ready = run_worker(args)
        setup = [ready] + ([] if args.trace else
                           [probe_setup() for _ in range(SETUP_PROBES)])
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digest = source_digest()
    differ = check_counts(args.workload, args.seed, digest, raw["exact_counts"])
    for name in differ:
        print(f"FAIL exact count {name} differs from an earlier run of this "
              f"code and seed", file=sys.stderr)
    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0 and not differ and raw.get("twin_checks_agree", True)

    env = {"cores": os.cpu_count(), "python": platform.python_version(),
           **raw["env"], "commit": commit_hash(), "source_sha256": digest,
           "c": str(C_DEFAULT), "precision": PRECISION}
    value, percentile, samples = tail(raw["cli_latencies"])
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": len(raw["pass_wall"]), "cli_commands": samples,
               "cmd_tail_s": value, "cmd_tail_percentile": percentile,
               "setup_samples_s": setup,
               "oracle_max_rel_err": raw["oracle_max_rel_err"],
               "exact_counts": raw["exact_counts"],
               "wall_s": statistics.median(raw["pass_wall"]),
               "cpu_s": statistics.median(raw["pass_cpu"]),
               "cmd_p50_s": statistics.median(raw["cli_latencies"]),
               "ref_slice_s": raw.get("ref_slice_s"),
               "ref_slices": raw["ref_slices"]}
    if args.trace:
        details["share_claims"] = share_claims(args.workload, raw)
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
    else:
        values = {
            "wall_ref": statistics.median(raw["pass_wall_refs"]),
            "cpu_ref": statistics.median(raw["pass_cpu_refs"]),
            "cmd_p50_ref": statistics.median(raw["cli_refs"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": raw["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            "checks_decided": statistics.median(raw["pass_checks"]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    (TMP / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "details": details, "raw": raw}, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
