"""Span tracer that wraps the package's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``dirac_su11`` module namespace that bound it (``cli.build_state``,
``verify.build_state`` and ``ladder.build_state`` are one function under
three names), and on the class for methods. ``uninstall`` puts the
originals back. A span holds its name, start, end, parent span and the id
of the CLI command it ran under; spans stay in memory until written out.

Counts are taken at the same boundaries, from the values the wrapped
functions return: rungs climbed and distinct rungs reached, oracle
right-hand-side evaluations, and coefficient sizes of the top rung.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every traced function, grouped by layer
TRACED = (
    ("cli", "main"),
    ("params", "spectral_point"),
    ("params", "nonrelativistic_limit_table"),
    ("jloperator", "diagonality_scan"),
    ("ladder", "build_state"),
    ("ladder", "raise_state"),
    ("algebra", "apply_casimir"),
    ("algebra", "inner_product"),
    ("qsfield", "QsPolynomial.eval_mp"),
    ("qsfield", "sturm_positive_roots"),
    ("wavefunctions", "assemble"),
    ("wavefunctions", "normalize"),
    ("wavefunctions", "sample"),
    ("wavefunctions", "laguerre_cross_check"),
    ("verify", "first_order_residual"),
    ("verify", "second_order_residual"),
    ("verify", "detuned_first_order"),
    ("verify", "orthonormality_matrix"),
    ("verify", "verification_report"),
    ("verify", "shooting_oracle"),
)

PACKAGE = "dirac_su11"

# per-layer metrics: self-time share of every traced function, calls of these
CALLS = (
    "cli.main", "params.spectral_point", "jloperator.diagonality_scan",
    "ladder.build_state", "ladder.raise_state", "algebra.apply_casimir",
    "algebra.inner_product", "qsfield.QsPolynomial.eval_mp",
    "qsfield.sturm_positive_roots", "verify.shooting_oracle",
)
DERIVED = {
    "ladder.rungs_useful_ratio": "ratio",
    "qsfield.coeff_bits_max": "bits",
    "verify.shooting_oracle.nfev": "count",
    "verify.shooting_oracle.nfev_per_level": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {f"{name}.calls": "count" for name in CALLS}
    units.update({f"{m}.{p}.self_share": "ratio" for m, p in TRACED})
    units.update(DERIVED)
    return units


def coeff_bits(state) -> int:
    """Largest numerator or denominator size, in bits, of a rung's psi_plus."""
    bits = 0
    for c in state.psi_plus.coeffs:
        for x in (c.a, c.b):
            bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, command id)
        self._stack = []
        self.command_id = None
        self._patches = []
        self.begin_pass()

    # -- counts read from returned values ---------------------------------

    def _on_result(self, name, result):
        if name in ("ladder.raise_state", "ladder.build_state"):
            self._reached.add((self.command_id, result.channel.key(), result.n))
        if name == "ladder.build_state":
            self.counts["qsfield.coeff_bits_max"] = max(
                self.counts["qsfield.coeff_bits_max"], coeff_bits(result))
        elif name == "verify.shooting_oracle":
            self.counts["verify.shooting_oracle.nfev"] += result.steps
            self.counts["verify.shooting_oracle.levels"] += 1

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.command_id)
            self._on_result(name, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, path in TRACED:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original)
            targets = [owner] if cls_path else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._patches.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- reports ----------------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counts = defaultdict(int)
        self._reached = set()

    def end_pass(self) -> dict:
        """calls, self time (also split by command id) and counts of the
        spans recorded since begin_pass.

        Self time is a span's duration minus the durations of its direct
        children, which the stack discipline keeps inside the parent.
        """
        first = self._pass_start
        chunk = self.spans[first:]
        child_time = defaultdict(float)
        for name, start, end, parent, _ in chunk:
            if parent >= first:
                child_time[parent] += end - start
        calls, self_s = defaultdict(int), defaultdict(float)
        by_command = defaultdict(lambda: defaultdict(float))
        for offset, (name, start, end, _, command) in enumerate(chunk):
            own = (end - start) - child_time[first + offset]
            calls[name] += 1
            self_s[name] += own
            by_command[command][name] += own
        counts = dict(self.counts)
        counts["ladder.rungs_reached"] = len(self._reached)
        return {"calls": dict(calls), "self_s": dict(self_s), "counts": counts,
                "self_s_by_command": {k: dict(v) for k, v in by_command.items()}}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, command in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "command": command}) + "\n")
