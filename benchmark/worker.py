"""One benchmark run in a fresh interpreter; started by run.py.

    python3 benchmark/worker.py --workload W --seed N --seconds S --trace 0|1 --tmp DIR

Prints ``READY`` as soon as ``dirac_su11.cli`` is imported (run.py times
that as set-up), then runs passes of the workload back to back, one
command after the other (a closed loop with one client), while another
pass would end less than half a pass past --seconds; at least one pass
always runs.
Every command's output is checked before the next one starts; the checks
are outside the timed region. In an untraced run a timer also runs
reference slices all through the loop (gauge.py); their time is taken out
of each command's, and each command's time is also given in refs, that is
in slices timed near it. The last stdout line is one JSON object of raw
results for run.py.

With --trace 1 each pass runs twice on the same inputs, once plain and
once traced, alternating which goes first, so the difference of the two
is the tracing overhead.
"""

import sys

# imported first and alone: the time to this READY line is the set-up metric
from dirac_su11 import cli, params, verify

print("READY", flush=True)

import argparse
import contextlib
import io
import json
import resource
import statistics
import traceback
from pathlib import Path
from time import perf_counter, process_time

import mpmath
import numpy
import scipy

import checks
from gauge import Gauge
from tracer import CALLS, TRACED, Tracer
from workloads import C_DEFAULT, PRECISION, STATE_SAMPLES, pass_stream

STURM_AND_SAMPLING = ("qsfield.sturm_positive_roots", "wavefunctions.sample",
                      "qsfield.QsPolynomial.eval_mp")


class Runner:
    """Issues commands through cli.main and checks each output."""

    def __init__(self, tmp: Path, tracer: Tracer):
        self.tmp = tmp
        self.tracer = tracer
        self.gauge = Gauge()
        self.issued = 0
        self.oracle_worst = 0.0

    def command(self, cmd) -> dict:
        self.issued += 1
        self.tracer.command_id = self.issued
        if cmd.kind == "empty-slot":
            return self._empty_slot(cmd)
        argv = list(cmd.argv)
        out = None
        if cmd.kind == "verify":  # its report goes to a file, the rest to stdout
            out = self.tmp / f"out-{self.issued}.json"
            argv += ["--out", str(out)]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        clock = self._clock()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            code, error = None, "".join(traceback.format_exception_only(exc)).strip()
        record = {"id": self.issued, "argv": argv, "kind": cmd.kind,
                  **self._elapsed(clock), "exit": code}
        try:
            checks.require(error is None, f"raised {error}")
            checks.require(code == cmd.expect_exit,
                           f"exit {code}, expected {cmd.expect_exit}; "
                           f"stderr {stderr.getvalue().strip()!r}")
            record["checks"] = self._check(cmd, code, stdout.getvalue(), out)
            record["ok"] = True
        except Exception as exc:  # any mismatch or malformed output fails it
            record.update(ok=False, checks=0, reason=f"{type(exc).__name__}: {exc}")
        finally:
            if out is not None:
                out.unlink(missing_ok=True)
        return record

    def _check(self, cmd, code, stdout, out) -> int:
        p = cmd.params
        if code == 2:
            return 1  # the refusal itself is the decided check
        if cmd.kind == "verify":
            doc = json.loads(out.read_text())
            self.oracle_worst = max(self.oracle_worst, checks.oracle_worst(doc))
            return checks.check_verify(doc, p, PRECISION)
        if cmd.kind == "state":
            return checks.check_state(stdout, p, C_DEFAULT, PRECISION, STATE_SAMPLES)
        if cmd.kind == "spectrum":
            return checks.check_spectrum(stdout, p, C_DEFAULT, PRECISION)
        if cmd.kind == "jl":
            return checks.check_jl(stdout, p, C_DEFAULT, PRECISION)
        if cmd.kind == "limit":
            return checks.check_limit(stdout, p, C_DEFAULT, PRECISION)
        raise checks.CheckFailed(f"unknown command kind {cmd.kind}")

    def _clock(self) -> tuple:
        g = self.gauge
        return perf_counter(), process_time(), g.spent_wall, g.spent_cpu

    def _elapsed(self, clock) -> dict:
        """start, end, and wall and CPU seconds since `clock`, less the
        time the gauge's slices took meanwhile."""
        t0, c0, w0, k0 = clock
        t1, c1, g = perf_counter(), process_time(), self.gauge
        return {"start": t0, "end": t1, "latency": t1 - t0 - (g.spent_wall - w0),
                "cpu": c1 - c0 - (g.spent_cpu - k0)}

    def _empty_slot(self, cmd) -> dict:
        p = cmd.params
        outcome = "returned a level"
        clock = self._clock()
        try:
            ch = params.make_channel(params.make_params(str(C_DEFAULT), p["Z"]),
                                     p["j"], p["eps"])
            verify.shooting_oracle(ch, p["n"])
        except verify.BracketingError:
            outcome = None
        except Exception as exc:
            outcome = f"raised {type(exc).__name__}: {exc}"
        record = {"id": self.issued,
                  "argv": ["shooting_oracle", f"Z={p['Z']}", f"j={p['j']}",
                           f"eps={p['eps']}", f"n={p['n']}"],
                  "kind": cmd.kind, **self._elapsed(clock), "exit": None,
                  "ok": outcome is None, "checks": int(outcome is None)}
        if outcome is not None:
            record["reason"] = f"expected BracketingError, {outcome}"
        return record

    def run_pass(self, cmds, traced: bool) -> dict:
        if traced:
            self.tracer.begin_pass()
            self.tracer.install()
        try:
            records = [self.command(cmd) for cmd in cmds]
        finally:
            if traced:
                self.tracer.uninstall()
        for r in records:
            if not r["ok"]:
                print(f"FAIL {' '.join(r['argv'])}: {r['reason']}", file=sys.stderr)
        return {"wall": sum(r["latency"] for r in records),
                "cpu": sum(r["cpu"] for r in records),
                "checks": sum(r["checks"] for r in records),
                "records": records,
                "layers": self.tracer.end_pass() if traced else None}


def layer_metrics(pairs) -> dict:
    """Per-layer metrics of the traced passes.

    Calls and counts come from the first traced pass, whose inputs depend
    only on the seed. Self time is given as a share of the traced pass wall
    time, summed over all traced passes; times trace.traced_wall_s (a mean
    per pass) it is the mean self time per pass in seconds.
    """
    traced = [p[True] for p in pairs]
    first = traced[0]["layers"]
    calls, counts = first["calls"], first["counts"]
    wall = sum(p["wall"] for p in traced)
    out = {f"{name}.calls": calls.get(name, 0) for name in CALLS}
    for name in (f"{m}.{p}" for m, p in TRACED):
        out[f"{name}.self_share"] = sum(
            p["layers"]["self_s"].get(name, 0.0) for p in traced) / wall
    raises = calls.get("ladder.raise_state", 0)
    levels = counts.get("verify.shooting_oracle.levels", 0)
    nfev = counts.get("verify.shooting_oracle.nfev", 0)
    out["ladder.rungs_useful_ratio"] = (counts["ladder.rungs_reached"] / raises
                                        if raises else 0.0)
    out["qsfield.coeff_bits_max"] = counts.get("qsfield.coeff_bits_max", 0)
    out["verify.shooting_oracle.nfev"] = nfev
    out["verify.shooting_oracle.nfev_per_level"] = nfev / levels if levels else 0.0
    out["trace.traced_wall_s"] = statistics.fmean(p[True]["wall"] for p in pairs)
    out["trace.untraced_wall_s"] = statistics.fmean(p[False]["wall"] for p in pairs)
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def state_sturm_sampling_share(pairs):
    """Share of the traced state commands' time spent in Sturm counting and
    sampling, or None when the workload issues no state command."""
    own, wall = 0.0, 0.0
    for p in pairs:
        by_command = p[True]["layers"]["self_s_by_command"]
        for r in p[True]["records"]:
            if r["kind"] == "state":
                spans = by_command.get(r["id"], {})
                own += sum(spans.get(name, 0.0) for name in STURM_AND_SAMPLING)
                wall += r["latency"]
    return own / wall if wall else None


def in_refs(passes, gauge) -> dict:
    """Each pass's wall and CPU time, and each CLI command's latency, in
    refs: every command's time divided by the median slice near it."""
    wall, cpu, cli_refs = [], [], []
    for p in passes:
        wall.append(0.0)
        cpu.append(0.0)
        for r in p["records"]:
            ref_wall, ref_cpu = gauge.near(r["start"], r["end"])
            wall[-1] += r["latency"] / ref_wall
            cpu[-1] += r["cpu"] / ref_cpu
            if r["kind"] != "empty-slot":
                cli_refs.append(r["latency"] / ref_wall)
    return {"pass_wall_refs": wall, "pass_cpu_refs": cpu, "cli_refs": cli_refs,
            "ref_slice_s": statistics.median(gauge.wall)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tmp", type=Path, required=True)
    args = ap.parse_args()

    tracer = Tracer()
    runner = Runner(args.tmp, tracer)
    stream = pass_stream(args.workload, args.seed)
    passes, pairs, costs = [], [], []
    if not args.trace:  # slices inside traced spans would count as their self time
        runner.gauge.start()
    start = perf_counter()
    while True:
        cmds = next(stream)
        t = perf_counter()
        if args.trace:
            order = (False, True) if len(pairs) % 2 == 0 else (True, False)
            pairs.append({traced: runner.run_pass(cmds, traced) for traced in order})
            passes.extend(pairs[-1][traced] for traced in order)
        else:
            passes.append(runner.run_pass(cmds, False))
        costs.append(perf_counter() - t)
        # stop where the run ends nearest to --seconds: a pass is 20-30 s,
        # and stopping before any overrun would leave up to half a run idle
        if perf_counter() - start + statistics.median(costs) / 2 > args.seconds:
            break
    runner.gauge.stop()

    records = [r for p in passes for r in p["records"]]
    result = {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "pass_wall": [p["wall"] for p in passes],
        "pass_cpu": [p["cpu"] for p in passes],
        "pass_checks": [p["checks"] for p in passes],
        "cli_latencies": [r["latency"] for r in records if r["kind"] != "empty-slot"],
        "ref_slices": len(runner.gauge.wall),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "oracle_max_rel_err": runner.oracle_worst,
        "exact_counts": {"checks_decided": passes[0]["checks"]},
        "env": {"mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND,
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if runner.gauge.wall:
        result.update(in_refs(passes, runner.gauge))
    if args.trace:
        layers = layer_metrics(pairs)
        result["per_layer"] = layers
        result["state_sturm_sampling_share"] = state_sturm_sampling_share(pairs)
        result["exact_counts"].update(
            {k: layers[k] for k in ("ladder.raise_state.calls", "ladder.rungs_useful_ratio",
                                    "verify.shooting_oracle.nfev", "qsfield.coeff_bits_max")})
        # both halves of a pair ran the same inputs: their verdicts must agree
        result["twin_checks_agree"] = all(p[True]["checks"] == p[False]["checks"]
                                          for p in pairs)
        tracer.write(args.tmp / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
