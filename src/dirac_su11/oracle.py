"""Numeric shooting oracle: the closed-form spectrum checked in float64.

The oracle knows nothing of ladders or Laguerre polynomials: it reads a
channel's s, zeta and tau as floats, integrates the first-order radial
system from both ends and finds the scaled momentum nu at which the two
halves match. The outward half starts at rho = 1e-2 from the regular
Frobenius series of the system at the trial nu, and the inward half 28
units beyond 2(n + s), near the outer classical turning point, so
neither half integrates a stretch the match does not need. It runs any
number of levels, and many trial values of nu per level, in lock-step:
every (level, nu) lane's outward and inward half is one block of a single
stacked DOP853 system (Hairer, Norsett & Wanner, Solving ODEs I). Since
scipy's per-step overhead dominates, a solve of 224 lanes costs less than
twice one of 14, so each round samples every live bracket at many points
at once: evenly at first, then geometrically about an inverse cubic
estimate of the root. The 14 levels of j <= 3/2, n <= 3 take four or five
solves. Its eigenvalues confirm the closed-form spectrum to near machine
accuracy (the binding energy is compared, since the total energy is
dominated by the rest term c^2).

This is the only module of the package that imports numpy and scipy, and
nothing imports it until an oracle runs: `verify` without --skip-oracle,
or a first use of one of its names through `verify` or the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import DOP853

from .params import Channel, DomainError, PhysicalParams, channel_slots, spectral_point

ORACLE_N_CAP = 10
ORACLE_REL_TOL = 1e-10   # pass mark on the relative binding error

_RHO0 = 1e-2             # where the outward series seed is summed
_SERIES_TERMS = 20       # terms of that series, with room to spare: on the validated
                         # domain the ninth is already below float64 rounding
_INWARD_DECAY = 28.0     # the inward halves start this far beyond 2(n + s)
_XTOL, _RTOL = 1e-300, 8.9e-16   # converged bracket width, as brentq's
_ROUND_CAP = 100         # root-finding rounds after the first solve; levels need 2-4
_SAMPLES = 16            # trial nu per live level in each solve
# the innermost points sit this many tolerances either side of the root
# estimate; _RTOL is at least 4 float64 ulps, so 2 x 3/8 of it plus one ulp
# of rounding stays within a tolerance
_HALF_TOL = 0.375


class BracketingError(DomainError):
    """No sign change in the shooting mismatch over the scanned bracket.

    ``slots`` holds every (channel, n) level whose bracket was empty.
    """

    def __init__(self, message: str, slots=()):
        super().__init__(message)
        self.slots = tuple(slots)


@dataclass(frozen=True, slots=True)
class OracleResult:
    E_oracle: float
    binding_oracle: float
    nu_oracle: float
    bracket: tuple
    steps: int
    mismatch: float


def _nu_of_index(s, zeta, x):
    return zeta / (s + x + np.hypot(s + x, zeta))


def _shoot(s, zeta, tau, n, nu):
    """Wronskian mismatch of m (level, nu) pairs from one DOP853 solve.

    Every argument is a float array of length m. Each pair integrates
    (F, G) in x = ln rho to rho_match = n + s + 1, outward from
    rho0 = _RHO0 and inward from rho_inf = 2 (n + s) + _INWARD_DECAY.

    The outward seed is the regular Frobenius solution
    rho^s sum_k (a_k, b_k) rho^k of the same system at the trial nu,
    summed to _SERIES_TERMS terms at rho0 (the positive factor rho0^s is
    dropped: the mismatch is normalized). With zn = zeta nu and
    zi = zeta / nu, a_0 = 1, b_0 = (s + tau) / zn and

        a_k = ((s + k - tau) b_{k-1} + zn a_{k-1}) / (k (2s + k)),
        b_k = ((s + k + tau) a_{k-1} - zi b_{k-1}) / (k (2s + k)).

    The inward seed (1, -1) is the solution that decays as e^-rho plus
    some of the one that grows as e^rho; that part shrinks only where the
    motion is classically forbidden. At large rho the system gives
    F'' = (1 - zeta (1/nu - nu) / rho) F up to O(rho^-2) terms, and
    zeta (1/nu - nu) = 2 (n + s) at the closed-form nu, so the outer
    turning point lies near 2 (n + s) and rho_inf a fixed distance beyond.

    Only s, zeta, tau and nu enter. Each half's x-interval is mapped onto t
    in [0, 1] with dx/dt = L, its signed length, so all halves end at
    t = 1. The state is [f_out, f_in, g_out, g_in], m components each; the
    inward halves get atol 1e-300, that is pure relative error control.
    Returns the mismatches and the solve's RHS count.
    """
    m = len(nu)
    x_start = np.concatenate((np.full(m, math.log(_RHO0)),
                              np.log(2.0 * (n + s) + _INWARD_DECAY)))
    L = np.tile(np.log(n + s + 1.0), 2) - x_start
    zn, zi = zeta * nu, zeta / nu
    # rows f and g of the state, each [outward, inward]
    diag = L * np.stack((np.tile(-tau, 2), np.tile(tau, 2)))
    coupling = L * np.stack((np.tile(zn, 2), np.tile(-zi, 2)))

    def rhs(t, y):
        # dF/dx = -tau F + (rho + zeta nu) G,  dG/dx = tau G + (rho - zeta/nu) F;
        # f and g share rho, and reversing the rows swaps f and g
        y = y.reshape(2, -1)
        return (diag * y + (L * np.exp(x_start + L * t) + coupling) * y[::-1]).ravel()

    # the series seed keeps the outward solution on the regular branch
    a, b = np.ones(m), (s + tau) / zn
    f, g, power = a, b, 1.0
    for k in range(1, _SERIES_TERMS):
        a, b = (((s + k - tau) * b + zn * a) / (k * (2 * s + k)),
                ((s + k + tau) * a - zi * b) / (k * (2 * s + k)))
        power *= _RHO0
        f, g = f + a * power, g + b * power
    ones = np.ones(m)
    y0 = np.concatenate((f, ones, g, -ones))
    atol = np.tile(np.concatenate((np.full(m, 1e-14), np.full(m, 1e-300))), 2)
    # the stepper solve_ivp drives, driven here without keeping the history
    # of every step: a wide solve would hold megabytes of it
    solver = DOP853(rhs, 0.0, y0, 1.0, rtol=1e-13, atol=atol)
    message = None
    while solver.status == "running":
        message = solver.step()
    if solver.status != "finished":
        raise AssertionError(f"oracle integration failed: {message}")
    fo, fi, go, gi = solver.y.reshape(4, m)
    return (fo * gi - fi * go) / (np.hypot(fo, go) * np.hypot(fi, gi)), solver.nfev


def _root_estimate(x, m, i, a, b, fa, fb):
    """Where each row's mismatch m(x) vanishes inside its pair (a, b) =
    (x[i], x[i+1]): inverse cubic interpolation through the four samples
    around the pair, or the secant of the pair where the cubic is undefined
    or leaves it."""
    rows = np.arange(len(i))[:, None]
    cols = np.clip(i - 1, 0, x.shape[1] - 4)[:, None] + np.arange(4)
    X, M = x[rows, cols], m[rows, cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        cubic = np.zeros(len(i))
        for p in range(4):
            term = X[:, p]
            for q in range(4):
                if q != p:
                    term = term * M[:, q] / (M[:, q] - M[:, p])
            cubic = cubic + term
        secant = a - fa * (b - a) / (fb - fa)
    inside = np.isfinite(cubic) & (a < cubic) & (cubic < b)
    return np.where(inside, cubic, secant)


def shooting_oracle_batch(levels) -> list:
    """Two-sided float64 shooting for a list of (channel, n) levels at once.

    Every level is integrated in one stacked DOP853 system (see _shoot), so
    the levels share one step controller, and every trial nu of every live
    level goes into the same solve. The root of each level's normalized
    Wronskian mismatch in nu is bracketed by the closed-form values at the
    half-integer indices n -+ 1/2. The first solve samples each bracket at
    _SAMPLES evenly spaced points, ends included; a level with no sign
    change between its ends (no bound state at the slot) raises
    BracketingError naming every empty slot before any root finding.

    Then, for every live level, the narrowest adjacent pair of samples whose
    mismatch changes sign (zero counts as positive) is kept. A level is
    done when that pair is no wider than brentq's tolerance
    _XTOL + _RTOL |nu|; its nu is the end of the pair with the smaller
    mismatch. Otherwise inverse cubic interpolation through the four
    samples around the pair, or the pair's secant where the cubic leaves
    it, estimates the root, and the next solve takes _SAMPLES points spaced
    geometrically out from the estimate, from _HALF_TOL tolerances to the
    ends of the pair. A level's ``steps`` counts the RHS evaluations of the
    solves it took part in, and ``mismatch`` is that of its nu.
    """
    for _, index in levels:
        if not isinstance(index, int) or index < 0:
            raise DomainError("oracle index must be a nonnegative integer")
        if index > ORACLE_N_CAP:
            raise DomainError(f"oracle validated for n <= {ORACLE_N_CAP}")
    if not levels:
        return []
    s = np.array([float(ch.s.embed(64)) for ch, _ in levels])
    zeta = np.array([float(ch.zeta) for ch, _ in levels])
    tau = np.array([float(ch.tau) for ch, _ in levels])
    n = np.array([index for _, index in levels], dtype=float)
    k = len(levels)
    steps = np.zeros(k, dtype=int)

    def shoot(lanes, nus):
        # one solve: level lanes[i] at trial value nus[i]
        mis, nfev = _shoot(s[lanes], zeta[lanes], tau[lanes], n[lanes], nus)
        steps[np.unique(lanes)] += nfev
        return mis

    nu_lo = _nu_of_index(s, zeta, n + 0.5)
    nu_hi = _nu_of_index(s, zeta, n - 0.5)
    live = np.arange(k)
    x = nu_lo[:, None] + (nu_hi - nu_lo)[:, None] * np.linspace(0.0, 1.0, _SAMPLES)
    x[:, -1] = nu_hi
    m = shoot(live.repeat(_SAMPLES), x.ravel()).reshape(x.shape)
    empty = np.flatnonzero((m[:, 0] < 0) == (m[:, -1] < 0))
    if empty.size:
        raise BracketingError("; ".join(
            f"no eigenvalue between nu={nu_lo[i]:.6g} and nu={nu_hi[i]:.6g} "
            f"for {levels[i][0]} at slot n={levels[i][1]}" for i in empty),
            slots=[levels[i] for i in empty])

    root, root_mis = np.empty(k), np.empty(k)
    rounds = 0
    while True:
        # the narrowest adjacent pair of samples whose mismatch changes sign
        # (a zero mismatch counts as positive); the ends always differ
        rows = np.arange(live.size)
        change = (m[:, :-1] < 0) != (m[:, 1:] < 0)
        i = np.argmin(np.where(change, np.diff(x, axis=1), np.inf), axis=1)
        a, b, fa, fb = x[rows, i], x[rows, i + 1], m[rows, i], m[rows, i + 1]
        done = b - a <= _XTOL + _RTOL * np.minimum(np.abs(a), np.abs(b))
        closer = np.abs(fa) <= np.abs(fb)
        root[live[done]] = np.where(closer, a, b)[done]
        root_mis[live[done]] = np.minimum(np.abs(fa), np.abs(fb))[done]
        keep = ~done
        if not keep.any():
            break
        if rounds == _ROUND_CAP:
            raise AssertionError(
                f"oracle root finding did not converge in {rounds} rounds for "
                + ", ".join(f"{levels[j][0]} n={levels[j][1]}" for j in live[keep]))
        rounds += 1
        live, x, m, i, a, b, fa, fb = (v[keep] for v in (live, x, m, i, a, b, fa, fb))
        c = _root_estimate(x, m, i, a, b, fa, fb)
        # as in Brent's method, keep the estimate inside the pair, so that
        # the two innermost points, under a tolerance apart, close the pair
        # on a root the estimate found (the pair is wider than a tolerance)
        h = _HALF_TOL * (_XTOL + _RTOL * np.abs(c))
        c = np.clip(c, a + h, b - h)
        # distances h, h q, h q^2, ... growing towards each end of the pair
        half = _SAMPLES // 2
        pw = np.arange(half) / half
        left = c[:, None] - h[:, None] * ((c - a) / h)[:, None] ** pw[::-1]
        right = c[:, None] + h[:, None] * ((b - c) / h)[:, None] ** pw
        # a point that rounds onto an end of the pair takes that end's
        # sample, so no point is integrated twice
        lo, hi = a[:, None], b[:, None]
        x = np.clip(np.column_stack((a, left, right, b)), lo, hi)
        m = np.where(x == lo, fa[:, None], fb[:, None])
        inner = np.nonzero((x != lo) & (x != hi))
        m[inner] = shoot(live[inner[0]], x[inner])

    out = []
    for (ch, _), nu, lo, hi, st, mis in zip(levels, root.tolist(), nu_lo.tolist(),
                                           nu_hi.tolist(), steps.tolist(),
                                           root_mis.tolist()):
        c2 = float(ch.params.c * ch.params.c)
        out.append(OracleResult(
            E_oracle=c2 * (1 - nu ** 2) / (1 + nu ** 2),
            binding_oracle=-2 * c2 * nu ** 2 / (1 + nu ** 2),
            nu_oracle=nu,
            bracket=(lo, hi),
            steps=st,
            mismatch=mis,
        ))
    return out


def shooting_oracle(channel: Channel, n_target: int) -> OracleResult:
    """The n-th eigenvalue of one channel: shooting_oracle_batch on one
    level, converged to brentq's tolerance. A channel with no bound state
    at the requested slot raises BracketingError instead of converging to
    a phantom."""
    return shooting_oracle_batch([(channel, n_target)])[0]


def oracle_binding_residual(channel: Channel, n: int,
                            result: OracleResult) -> float:
    """|binding_oracle - binding_exact| / |binding_exact| in float64."""
    exact = float(spectral_point(channel, n, 64).binding)
    return abs(result.binding_oracle - exact) / abs(exact)


def oracle_sweep(params: PhysicalParams, j_max: Fraction, n_max: int):
    """The oracle on every bound slot with j <= j_max and n <= min(n_max, 5),
    as one batch. Returns the JSON rows, in (j, eps, n) order, and the worst
    relative binding error."""
    levels = [(ch, n) for ch, n in channel_slots(params, j_max, min(n_max, 5))
              if ch.is_bound(n)]
    rows, worst = [], 0.0
    for (ch, n), res in zip(levels, shooting_oracle_batch(levels)):
        rel = oracle_binding_residual(ch, n, res)
        worst = max(worst, rel)
        rows.append({"j": str(ch.j), "eps": ch.eps, "n": n,
                     "rel_binding_error": f"{rel:.3e}"})
    return rows, worst
