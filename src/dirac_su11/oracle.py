"""Numeric shooting oracle: the closed-form spectrum checked in float64.

The oracle knows nothing of ladders or Laguerre polynomials: it reads a
channel's s, zeta and tau as floats, integrates the first-order radial
system from both ends and finds the scaled momentum nu at which the two
halves match. The outward half starts at rho = 0.6 from the regular
Frobenius series at the trial nu, the inward half 12 units beyond the
outer turning point 2(n + s) from the asymptotic series of the decaying
solution, each summed to float64 rounding, and both are carried to the
match by Taylor series in rho (Corliss & Chang, ACM TOMS 8 (1982) 114).
Any number of (level, nu) lanes run in lock-step, and a lane's result
does not depend on the other lanes. A solve costs mostly numpy's
per-call overhead, so each round samples every live bracket at many
points at once: evenly at first, then about an inverse cubic estimate of
the root. The 14 levels of j <= 3/2, n <= 3 take four or five solves.
Its eigenvalues confirm the closed-form spectrum to near machine accuracy
(the binding energy is compared, since the total energy is dominated by
the rest term c^2).

This is the only module of the package that imports numpy, and nothing
imports it until an oracle runs: `verify` without --skip-oracle, or a
first use of one of its names through `verify` or the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .params import Channel, DomainError, PhysicalParams, channel_slots, spectral_point

ORACLE_N_CAP = 10
ORACLE_REL_TOL = 1e-10   # pass mark on the relative binding error

_RHO0 = 0.6              # where the outward series seed is summed (see _shoot)
_SERIES_TERMS = 30       # terms of that series: on the validated domain 20 leave
                         # errors of 1e-11 at rho = 0.6, 25 reach float64 rounding
_INWARD_DECAY = 12.0     # the inward halves start this far beyond 2(n + s)
_ASYMPTOTIC_TERMS = 16   # terms of the series seed summed there: 8 leave
                         # mismatch errors of 4e-8, 12 reach float64 rounding
_STEP_FRACTION, _STEP_MAX = 0.25, 2.0   # Taylor steps: |h| <= rc/4, |h| <= 2
_TERM_TOL, _TERM_CAP = 2.0 ** -60, 60    # series end, term cap; the domain needs 34
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
    binding_oracle: float
    nu_oracle: float
    bracket: tuple
    steps: int           # vectorized recurrence terms of its solves
    mismatch: float


def _nu_of_index(s, zeta, x):
    return zeta / (s + x + np.hypot(s + x, zeta))


def _regular_seed(s, zeta, tau, nu, rho):
    """The sums sum_k (a_k, b_k) rho^k, k < _SERIES_TERMS, of the regular
    Frobenius solution rho^s sum_k (a_k, b_k) rho^k of the system at nu.
    With zn = zeta nu and zi = zeta / nu, a_0 = 1 and

        a_k = ((s + k - tau) b_{k-1} + zn a_{k-1}) / (k (2s + k)),
        b_k = ((s + k + tau) a_{k-1} - zi b_{k-1}) / (k (2s + k)).

    The order rho^s of the two equations gives two forms of b_0,
    (s + tau) / zn and -zi / (s - tau), equal since s^2 = tau^2 - zeta^2.
    Each is taken where its sum does not cancel: when tau < 0,
    s + tau = -zeta^2 / (s - tau) is about -zeta^2 / (2 |tau|), and the
    first form loses up to 1.3e-11 relative at Z = 1."""
    zn, zi = zeta * nu, zeta / nu
    a = np.ones_like(nu)
    b = np.where(tau > 0, (s + tau) / zn, -zi / (s - tau))
    f, g, power = a, b, 1.0
    for k in range(1, _SERIES_TERMS):
        a, b = (((s + k - tau) * b + zn * a) / (k * (2 * s + k)),
                ((s + k + tau) * a - zi * b) / (k * (2 * s + k)))
        power = power * rho
        f, g = f + a * power, g + b * power
    return f, g


def _asymptotic_seed(zeta, tau, nu, rho):
    """The sums sum_k (a_k, b_k) rho^-k, k < _ASYMPTOTIC_TERMS, of the
    solution e^-rho rho^sigma sum_k (a_k, b_k) rho^-k of the system at nu
    that decays at large rho. With zn = zeta nu and zi = zeta / nu,
    sigma = (zi - zn) / 2, u = (zi + zn) / 2 - tau, a_0 = 1, b_0 = -1 and

        s_k = (sigma - k + 1 + tau) a_{k-1} - zn b_{k-1},
        a_k = -s_k (u - k) / (2k),   b_k = s_k (u + k) / (2k).

    The order rho^(1-k) of either equation gives a_k + b_k = s_k, and
    the next order's condition that both give the same sum splits s_k;
    the two leading orders fix b_0 = -a_0 and sigma. Only zeta, tau and
    nu enter. The truncated pair leaves the residual s_K rho^(1-K),
    K = _ASYMPTOTIC_TERMS, in both equations: rho times the first
    omitted terms."""
    zn, zi = zeta * nu, zeta / nu
    sigma, u = (zi - zn) / 2, (zi + zn) / 2 - tau
    a, b = np.ones_like(nu), -np.ones_like(nu)
    f, g, power = a, b, 1.0
    for k in range(1, _ASYMPTOTIC_TERMS):
        sk = (sigma - k + 1 + tau) * a - zn * b
        a, b = -sk * (u - k) / (2 * k), sk * (u + k) / (2 * k)
        power = power / rho
        f, g = f + a * power, g + b * power
    return f, g


def _taylor_steps(f, g, rho0, rho1, zn, zi, tau):
    """(F, G) at rho1 of the solution of rho F' = -tau F + (rho + zn) G,
    rho G' = tau G + (rho - zi) F with (F, G) = (f, g) at rho0, and the
    number of terms summed; every argument has one entry per lane.

    Each lane steps geometrically from rho0 to rho1, in as few steps as
    keep every step h from its centre rc within |h| <= rc/4, so that the
    one singular point rho = 0 lies four steps away and the parts
    rho^(+-s) converge at least as 4^-k, and within |h| <= 2, which bounds
    the entire part's terms, |h|^k / k!, and their cancellation. With
    u = h / rc, (p_0, q_0) = (F, G)(rc) and p_{-1} = q_{-1} = 0,

        p_{k+1} = u ((-tau - k) p_k + (rc + zn) q_k + h q_{k-1}) / (k + 1),
        q_{k+1} = u ((tau - k) q_k + (rc - zi) p_k + h p_{k-1}) / (k + 1)

    are the Taylor coefficients in t = (rho - rc) / h, and (F, G)(rc + h) =
    sum_k (p_k, q_k). Checked every other term, a lane's series ends once
    its last two terms are below _TERM_TOL of its sums, and its later terms
    are zeroed; a lane with fewer steps takes steps of length 0 at rho1,
    which add exact zeros. So no lane's result depends on the others. A
    series that is not done in _TERM_CAP terms raises AssertionError."""
    span = np.log(rho1 / rho0)
    # |h| / rc <= 1 - exp(-|log step|) for the widest step (ending at rho1
    # outward, starting at rho0 inward), and |h| <= rc/4 if that is <= 1/5
    shrink = np.minimum(_STEP_FRACTION / (1 + _STEP_FRACTION),
                        _STEP_MAX / np.maximum(rho0, rho1))
    steps = np.ceil(np.abs(span) / -np.log1p(-shrink)).astype(int)
    i = np.minimum(np.arange(steps.max() + 1)[:, None], steps)
    rho = np.where(i == steps, rho1, rho0 * np.exp(span / steps * i))
    y, sign, terms = np.stack((f, g)), np.stack((-tau, tau)), 0
    for rc, h in zip(rho[:-1], np.diff(rho, axis=0)):
        # rows p and q; reversing the rows swaps them
        u = h / rc
        diag, coupling, uh = u * sign, u * np.stack((rc + zn, rc - zi)), u * h
        prev, term, total = np.zeros_like(y), y, y.copy()
        for k in range(_TERM_CAP):
            prev, term = term, ((diag - k * u) * term + coupling * term[::-1]
                                + uh * prev[::-1]) / (k + 1)
            total += term
            if k % 2:
                live = (np.abs(term) + np.abs(prev)).sum(0) > _TERM_TOL * np.abs(total).sum(0)
                if not live.any():
                    break
                term, prev = term * live, prev * live
        else:
            raise AssertionError(f"oracle Taylor series did not converge in {_TERM_CAP} terms")
        terms += k + 1
        y = total
    return y[0], y[1], terms


def _shoot(s, zeta, tau, n, nu):
    """Wronskian mismatch of m (level, nu) pairs from one solve, and the
    number of vectorized recurrence terms it summed.

    Every argument is a float array of length m. One _taylor_steps call
    carries both halves of every pair to rho_match = n + s + 1: outward
    from rho0 = _RHO0 and the regular Frobenius solution at the trial nu
    (_regular_seed), inward from rho_inf = 2 (n + s) + _INWARD_DECAY and
    the solution that decays as e^-rho (_asymptotic_seed), each without
    its positive factor (rho0^s, e^-rho rho^sigma): the mismatch is
    normalized.

    An error in the outward seed is an admixture of the irregular
    solution, which the outward run shrinks only by (rho0/rho_match)^2s,
    so the seed is summed to rounding at rho0. Past the outer turning
    point 2 (n + s), any part of the growing solution in the inward seed
    shrinks by e^-2d over d units: (1, -1) alone, wrong at O(1/rho),
    would need some 28 units; the summed seed is exact to rounding at
    rho_inf, and from 12 units on 12 and 16 terms give the same result.
    """
    m = len(nu)
    rho_inf = 2.0 * (n + s) + _INWARD_DECAY
    f, g = _regular_seed(s, zeta, tau, nu, _RHO0)
    fi, gi = _asymptotic_seed(zeta, tau, nu, rho_inf)
    F, G, terms = _taylor_steps(
        np.concatenate((f, fi)), np.concatenate((g, gi)),
        np.concatenate((np.full(m, _RHO0), rho_inf)), np.tile(n + s + 1.0, 2),
        np.tile(zeta * nu, 2), np.tile(zeta / nu, 2), np.tile(tau, 2))
    fo, fi, go, gi = F[:m], F[m:], G[:m], G[m:]
    return (fo * gi - fi * go) / (np.hypot(fo, go) * np.hypot(fi, gi)), terms


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

    Every trial nu of every live level goes into the same solve (see
    _shoot). The root of each level's normalized Wronskian mismatch in nu
    is bracketed by the closed-form values at the half-integer indices
    n -+ 1/2. The first solve samples each bracket at _SAMPLES evenly
    spaced points, ends included; a level with no sign change between its
    ends (no bound state at the slot) raises BracketingError naming every
    empty slot before any root finding.

    Then, for every live level, the narrowest adjacent pair of samples whose
    mismatch changes sign (zero counts as positive) is kept. A level is
    done when that pair is no wider than brentq's tolerance
    _XTOL + _RTOL |nu|; its nu is the end of the pair with the smaller
    mismatch. Otherwise inverse cubic interpolation through the four
    samples around the pair, or the pair's secant where the cubic leaves
    it, estimates the root, and the next solve takes _SAMPLES points about
    it: one at h = _HALF_TOL tolerances either side, and the rest spaced
    geometrically from 3h out to the ends of the pair. Each pair between
    -3h and 3h is 2h wide, under a tolerance, so a root within 3h (about
    a tolerance) of the estimate closes that round, however wide the pair.
    A lane's mismatch does not depend on the other lanes of its solve (alone
    and together at the 14 closed-form nu of Z = 40, it differs by 0.0), so
    a level's root is the same alone as in a batch. ``steps`` counts the
    vectorized recurrence terms of the solves a level took part in, and
    ``mismatch`` is that of its nu.
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
        # distances h, then 3h, 3h q, 3h q^2, ... growing towards each end
        # of the pair
        half = _SAMPLES // 2
        pw = np.arange(half - 1) / (half - 1)
        left = c[:, None] - 3 * h[:, None] * ((c - a) / (3 * h))[:, None] ** pw[::-1]
        right = c[:, None] + 3 * h[:, None] * ((b - c) / (3 * h))[:, None] ** pw
        # a point that rounds onto an end of the pair takes that end's
        # sample, so no point is integrated twice
        lo, hi = a[:, None], b[:, None]
        x = np.clip(np.column_stack((a, left, c - h, c + h, right, b)), lo, hi)
        m = np.where(x == lo, fa[:, None], fb[:, None])
        inner = np.nonzero((x != lo) & (x != hi))
        m[inner] = shoot(live[inner[0]], x[inner])

    out = []
    for (ch, _), nu, lo, hi, st, mis in zip(levels, root.tolist(), nu_lo.tolist(),
                                           nu_hi.tolist(), steps.tolist(),
                                           root_mis.tolist()):
        c2 = float(ch.params.c * ch.params.c)
        out.append(OracleResult(
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
    """The oracle on every bound slot with j <= j_max and n <= min(n_max,
    ORACLE_N_CAP), its validated depth, as one batch. Returns the JSON rows,
    in (j, eps, n) order, and the worst relative binding error."""
    levels = [(ch, n) for ch, slots in channel_slots(params, j_max, min(n_max, ORACLE_N_CAP))
              for n in slots if ch.is_bound(n)]
    rows, worst = [], 0.0
    for (ch, n), res in zip(levels, shooting_oracle_batch(levels)):
        rel = oracle_binding_residual(ch, n, res)
        worst = max(worst, rel)
        rows.append({"j": str(ch.j), "eps": ch.eps, "n": n,
                     "rel_binding_error": f"{rel:.3e}"})
    return rows, worst
