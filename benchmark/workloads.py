"""Seeded command streams for the two benchmark workloads.

A workload is an endless stream of *passes*. A pass is a short batch of
commands with a fixed shape; the seed only picks the inputs inside that
shape (the nuclear charge Z, and for the state command also j and eps).
So every pass of a workload does the same amount of work, and per-pass
medians compare across seeds.

``oracle-sweep`` runs the float64 shooting oracle. ``exact-mix`` never
does: one pass is the exact residual suite, one deep state and eight
batches of cheap spectrum, jl and limit commands, in that order.

Every command is an argv list for ``dirac_su11.cli.main``, except the
oracle's empty-slot control, which calls the library directly because the
CLI has no way to ask for a level that does not exist.

The expected exit code is derived here, from the inputs alone:
3 for ``--inject-off-shell``, 2 when some channel the command touches
collapses (tau^2 <= (Z/c)^2), otherwise 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

C_DEFAULT = Fraction("137.035999084")
PRECISION = 256
Z_MIN, Z_MAX = 1, 118
LIMIT_C_SCHEDULE = (Fraction(100), Fraction(1000), Fraction(10000))
LIMIT_Z_STRATA = ((Z_MIN, 99), (100, Z_MAX))
ORACLE_J_MAX = Fraction(3, 2)
ORACLE_N_MAX = 3
STATE_N = 20
STATE_SAMPLES = 400
STATE_JS = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))
SPECTRUM_SHELLS = (1, 2, 3, 4)
CHEAP_BATCHES = 8


@dataclass(frozen=True)
class Command:
    """One request of a pass.

    kind selects the output check; params holds the inputs the check needs
    (Z, j, eps, n, c values, grid bounds) so that it never has to parse argv.
    """

    kind: str
    argv: tuple
    expect_exit: int
    params: dict


def collapses(Z: int, c: Fraction, j: Fraction) -> bool:
    """True when channel (j, c, Z) has no real s: (j + 1/2)^2 <= (Z/c)^2."""
    return (j + Fraction(1, 2)) ** 2 <= (Fraction(Z) / c) ** 2


def _z(rng: random.Random) -> int:
    return rng.randint(Z_MIN, Z_MAX)


def _verify(Z: int, j_max: Fraction, n_max: int, oracle: bool,
            inject: bool = False) -> Command:
    argv = ["verify", "--Z", str(Z), "--j-max", str(j_max), "--n-max", str(n_max)]
    if not oracle:
        argv.append("--skip-oracle")
    if inject:
        argv.append("--inject-off-shell")
    expect = 2 if collapses(Z, C_DEFAULT, Fraction(1, 2)) else (3 if inject else 0)
    return Command("verify", tuple(argv), expect,
                   {"Z": Z, "j_max": j_max, "n_max": n_max, "oracle": oracle,
                    "inject": inject})


def oracle_sweep_pass(rng: random.Random) -> list:
    # the oracle's cost falls by about 15% from Z = 1 to Z = 118, nearly
    # linearly; a pass of Z and its mirror 119 - Z costs the same for
    # every Z, so the seed does not move the time of a pass
    Z = _z(rng)
    return [
        _verify(Z, ORACLE_J_MAX, ORACLE_N_MAX, oracle=True),
        _verify(Z_MIN + Z_MAX - Z, ORACLE_J_MAX, ORACLE_N_MAX, oracle=True),
        # no bound state sits at n = 0 of a tau > 0 channel: the oracle must
        # fail to bracket it rather than converge to a phantom level
        Command("empty-slot", (), 0,
                {"Z": 1, "j": Fraction(1, 2), "eps": 1, "n": 0}),
    ]


def _verify_exact(rng: random.Random) -> list:
    return [
        _verify(_z(rng), Fraction(5, 2), 5, oracle=False),
        _verify(_z(rng), Fraction(5, 2), 5, oracle=False, inject=True),
    ]


def _state_deep(rng: random.Random) -> list:
    Z, j, eps = _z(rng), rng.choice(STATE_JS), rng.choice((-1, 1))
    argv = ("state", "--Z", str(Z), "--j", str(j), "--eps", str(eps),
            "--n", str(STATE_N), "--samples", str(STATE_SAMPLES), "--format", "json")
    expect = 2 if collapses(Z, C_DEFAULT, j) else 0
    return [Command("state", argv, expect,
                    {"Z": Z, "j": j, "eps": eps, "n": STATE_N})]


def _cli_light(rng: random.Random) -> list:
    cmds = []
    for shells in SPECTRUM_SHELLS:
        Z = _z(rng)
        j_top = Fraction(2 * shells - 1, 2)
        cmds.append(Command(
            "spectrum", ("spectrum", "--Z", str(Z), "--N-max", str(shells)),
            2 if collapses(Z, C_DEFAULT, Fraction(1, 2)) else 0,
            {"Z": Z, "N_max": shells, "j_max": j_top}))
    Z = _z(rng)
    cmds.append(Command(
        "jl", ("jl", "--Z", str(Z)),
        2 if collapses(Z, C_DEFAULT, Fraction(1, 2)) else 0,
        {"Z": Z, "j_max": Fraction(5, 2), "n_max": 3}))
    for lo, hi in LIMIT_Z_STRATA:
        # one Z on each side of 100: for Z >= 100 the first schedule point
        # c = 100 has Z/c >= 1 and the CLI must refuse (exit 2), so every
        # pass has one fitted and one refused limit
        Z = rng.randint(lo, hi)
        refused = any(collapses(Z, c, Fraction(1, 2)) for c in LIMIT_C_SCHEDULE)
        cmds.append(Command(
            "limit", ("limit", "--Z", str(Z)), 2 if refused else 0,
            {"Z": Z, "j": Fraction(1, 2), "eps": -1, "n": 0,
             "c_schedule": LIMIT_C_SCHEDULE}))
    return cmds


def exact_mix_pass(rng: random.Random) -> list:
    # many cheap batches, so that the median command is always a cheap one
    # and every cheap kind has enough samples to keep that median steady
    cheap = [cmd for _ in range(CHEAP_BATCHES) for cmd in _cli_light(rng)]
    return [*_verify_exact(rng), *_state_deep(rng), *cheap]


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS = {
    "oracle-sweep": oracle_sweep_pass,
    "exact-mix": exact_mix_pass,
}


def pass_stream(workload: str, seed: int):
    """Endless, reproducible sequence of passes for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = WORKLOADS[workload]
    while True:
        yield make(rng)
