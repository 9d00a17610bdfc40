"""Host-speed gauge: a fixed reference slice timed all through a run.

The benchmark shares a few cores of a host whose speed changes by up to 2x
within seconds to minutes, so one command's seconds differ by that much
between runs of the same code. A reference slice is fixed work that the
same host phases slow down: a pure-Python integer loop, a scipy DOP853
integration with a Python right-hand side, and Fraction arithmetic on
800-bit integers, the three kinds of work the package does. An interval
timer runs one slice every INTERVAL_S seconds, inside whatever the worker
is doing, commands included; the time spent in slices is taken out of
each command's time. A command's time in *refs* is its seconds divided by
the median slice near it, so a slow phase that lengthens the command
lengthens its slices too.

Nothing here touches the package: a change to the package moves a time in
refs by the same factor as its time in seconds.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter, process_time

from scipy.integrate import solve_ivp

INTERVAL_S = 0.15     # one slice per interval: about a fifth of the run
# the three parts take about 8 ms each: in trial runs each part alone
# tracked some workloads well and others badly, and equal parts did well
# on all of them
INT_LOOPS = 90_000
ODE_SPAN = 10.0
BIG_ROUNDS = 220
BIG_P, BIG_Q = 3**500 + 1, 7**280 + 3   # 793 and 787 bits, coprime
NEAR_S = 0.5          # slices this close to a command count as its own
MIN_SLICES = 5        # else the nearest this many do


def _rhs(t, y):
    return [y[1], -y[0] * (1.0 + 0.1 * t)]


def reference_slice() -> float:
    total = 0
    for i in range(INT_LOOPS):
        total += i * i % 7
    sol = solve_ivp(_rhs, (0.0, ODE_SPAN), [1.0, 0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    for k in range(BIG_ROUNDS):
        x = Fraction(BIG_P + k, BIG_Q) * Fraction(BIG_Q - k, BIG_P) + Fraction(k, BIG_Q)
        total ^= x.denominator & 0xFFFF
    return total + sol.y[0][-1]


class Gauge:
    """Slices of one run: when each ran, and its wall and CPU time.

    ``spent_wall`` and ``spent_cpu`` only grow; a caller reads them before
    and after a command and subtracts the difference from its timings.
    """

    def __init__(self):
        self.at, self.wall, self.cpu = [], [], []
        self.spent_wall = self.spent_cpu = 0.0
        self._busy = False

    def _on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0, c0 = perf_counter(), process_time()
        reference_slice()
        t1, c1 = perf_counter(), process_time()
        self.at.append((t0 + t1) / 2)
        self.wall.append(t1 - t0)
        self.cpu.append(c1 - c0)
        self.spent_wall += t1 - t0
        self.spent_cpu += c1 - c0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def near(self, start: float, end: float) -> tuple:
        """Median (wall, cpu) of the slices that ran within NEAR_S of
        [start, end], or of the MIN_SLICES nearest when fewer did."""
        lo = bisect_left(self.at, start - NEAR_S)
        hi = bisect_right(self.at, end + NEAR_S)
        if hi - lo < MIN_SLICES:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))
            picked = nearest[:MIN_SLICES]
        else:
            picked = range(lo, hi)
        return (median(self.wall[i] for i in picked),
                median(self.cpu[i] for i in picked))
