"""Independent checks: exact residuals, numeric shooting oracle, Gram matrix.

Residual checks substitute the assembled polynomial pairs into the radial
equations and reduce everything to tower arithmetic, so a passing check is
an exact algebraic zero, not a small number. The identities

    zeta / nu = w + s + n,      zeta nu = w - s - n,      w^2 = tau^2 + n(n+2s)

replace every energy-dependent coefficient by an element of Q(s)[w]; a
detuned w (off shell) must and does leave a nonzero residual.

The first-order system is transcribed once, in _system_rows, on the pair
(f, g) = (minus + plus, minus - plus) of the window halves. The ladder-split
relations are the same system in the (plus, minus) basis, so they are read
off its rows as polynomials: row_f = lower - raise and row_g = lower + raise,
that is lower = (row_f + row_g)/2 and raise = (row_g - row_f)/2.

The shooting oracle knows nothing of ladders or Laguerre polynomials: it
integrates the first-order radial system in float64 from both ends and
finds the scaled momentum nu at which the two halves match. It runs any
number of levels, and many trial values of nu per level, in lock-step:
every (level, nu) lane's outward and inward half is one block of a single
stacked DOP853 system (Hairer, Norsett & Wanner, Solving ODEs I). Since
scipy's per-step overhead dominates, a solve of 224 lanes costs less than
twice one of 14, so each round samples every live bracket at many points
at once: evenly at first, then geometrically about an inverse cubic
estimate of the root. The 14 levels of j <= 3/2, n <= 3 take five solves.
Its eigenvalues confirm the closed-form spectrum to near machine accuracy
(the binding energy is compared, since the total energy is dominated by
the rest term c^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import DOP853

from .params import (
    DEFAULT_PRECISION,
    _GUARD,
    SCHEMA_TAG,
    Channel,
    DomainError,
    PhysicalParams,
    channel_grid,
    mp_str,
    spectral_point,
    tower_w2,
)
from .qsfield import QsPolynomial, Quadratic
# build_state is unused here but stays importable as verify.build_state
from .ladder import LadderState, build_state, climb, tower_image  # noqa: F401
from .algebra import inner_product, universal_images
from .wavefunctions import RadialPair, assemble, exact_w, tower_window

ORACLE_N_CAP = 10
ORACLE_REL_TOL = 1e-10   # pass mark on the relative binding error

_RHO0 = 1e-6             # where the outward series seed starts
_XTOL, _RTOL = 1e-300, 8.9e-16   # converged bracket width, as brentq's
_ROUND_CAP = 100         # root-finding rounds after the first solve; levels need 2-4
_SAMPLES = 16            # trial nu per live level in each solve
# the innermost points sit this many tolerances either side of the root
# estimate; _RTOL is at least 4 float64 ulps, so 2 x 3/8 of it plus one ulp
# of rounding stays within a tolerance
_HALF_TOL = 0.375
_DETUNE = Fraction(1, 1000)   # relative shift of w^2 in the detuned control


class BracketingError(DomainError):
    """No sign change in the shooting mismatch over the scanned bracket.

    ``slots`` holds every (channel, n) level whose bracket was empty.
    """

    def __init__(self, message: str, slots=()):
        super().__init__(message)
        self.slots = tuple(slots)


@dataclass(frozen=True, slots=True)
class ResidualReport:
    which: str
    residual_poly: QsPolynomial
    is_exact_zero: bool
    max_abs_embedded: mp.mpf

    def __str__(self) -> str:
        tag = "exact 0" if self.is_exact_zero else f"nonzero ({mp.nstr(self.max_abs_embedded, 5)})"
        return f"[{self.which}] {tag}"


def _residual_report(which: str, poly: QsPolynomial, precision: int) -> ResidualReport:
    mx = mp.mpf(0)
    if not poly.is_zero:
        with mp.workprec(precision + _GUARD):
            mx = max(abs(c.embed(precision + _GUARD)) for c in poly.coeffs)
        with mp.workprec(precision):
            mx = +mx
    return ResidualReport(which, poly, poly.is_zero, mx)


def _system_rows(channel: Channel, n: int, f: QsPolynomial, g: QsPolynomial,
                 w: Quadratic):
    """Rows of the coupled first-order system on the polynomial parts.

    With F = sqrt(c^2+E) f rho^s e^{-rho} and G = sqrt(c^2-E) g rho^s e^{-rho},
    the radial equations reduce to

        row_f = (tau - s) g + rho (g - g') + rho f - (w + s + n) f
        row_g = (tau + s) f + rho (f' - f) - rho g - (w - s - n) g

    where w + s + n = zeta/nu and w - s - n = zeta nu carry the whole
    energy dependence.
    """
    ch = channel
    tau = ch.qs(ch.tau)
    s = ch.s
    zi = w + (s + n)       # zeta / nu
    zn = w - (s + n)       # zeta nu
    row_f = (g.scale(tau - s) + (g - g.derivative()).mul_rho()
             + f.mul_rho() - f.scale(zi))
    row_g = (f.scale(tau + s) + (f.derivative() - f).mul_rho()
             - g.mul_rho() - g.scale(zn))
    return row_f, row_g


def first_order_residual(pair: RadialPair):
    """Both rows of the coupled system on the assembled pair; exact zeros."""
    prec = pair.state.spectral.precision
    ch = pair.channel
    n = pair.n
    row_f, row_g = _system_rows(ch, n, pair.f_poly, pair.g_poly, exact_w(ch, n))
    return (_residual_report("radial-row-f", row_f, prec),
            _residual_report("radial-row-g", row_g, prec))


def detuned_first_order(state: LadderState):
    """Negative control: scale w^2 by 1 + _DETUNE = 1001/1000 and redo the
    first-order residuals. Off shell both rows must be exactly nonzero."""
    prec = state.spectral.precision
    ch = state.channel
    n = state.n
    if n < 1:
        raise DomainError("detuned control needs n >= 1")
    w2_off = tower_w2(ch, n) * (1 + _DETUNE)
    w_off = Quadratic.root(w2_off)
    plus, minus = tower_window(state, w2_off, w_off)
    row_f, row_g = _system_rows(ch, n, minus + plus, minus - plus, w_off)
    return (_residual_report("radial-row-f-detuned", row_f, prec),
            _residual_report("radial-row-g-detuned", row_g, prec))


def second_order_residual(state: LadderState):
    """Decoupled mode equations and the ladder-split relations, all exact.

    mode-equation-plus/minus: each window half satisfies its own
    second-order equation, i.e. the explicit Casimir action returns
    xi times the function. The window halves are the images of universal
    rungs n and n-1, whose Casimir eigenvalue s^2 - 1/4 is decided in
    Z[s][rho] (ladder.universal_rung), so each residual is
    (s^2 - 1/4 - xi) times its half.

    ladder-split-lower: rho psi_plus' - n psi_plus = (w - tau) psi_minus
    ladder-split-raise: rho psi_minus' + (n + 2s - 2 rho) psi_minus
                         = -(w + tau) psi_plus

    These are the first-order system in the (plus, minus) basis: their
    residuals are lower = (row_f + row_g)/2 and raise = (row_g - row_f)/2
    on the rows of first_order_residual. The raise relation is the
    unphysical-bottom detector: at n = 0 its residual is (w + tau) psi_plus,
    which vanishes exactly when tau < 0 (w = -tau) and equals 2 tau at a
    tau > 0 bottom rung.
    """
    radial = first_order_residual(assemble(state, allow_unphysical=True))
    return _second_order_rows(state, radial)


def _second_order_rows(state: LadderState, radial):
    """The four reports of second_order_residual, the split rows read off
    the radial rows (row_f, row_g) of the same state."""
    prec = state.spectral.precision
    ch = state.channel
    n = state.n
    link = ch.qs(ch.s2 - Fraction(1, 4) - ch.xi)
    reports = []
    for tag, half, k in (("mode-equation-plus", state.psi_plus, n),
                         ("mode-equation-minus", state.psi_minus, n - 1)):
        rung = tower_image(ch, k) if k >= 0 else QsPolynomial.zero_poly(half.zero)
        if half != rung:
            raise AssertionError(f"rung {n} window is not the image of the universal tower")
        reports.append(_residual_report(tag, half.scale(link), prec))
    row_f, row_g = (rep.residual_poly for rep in radial)
    reports.append(_residual_report(
        "ladder-split-lower", (row_f + row_g).scale(Fraction(1, 2)), prec))
    reports.append(_residual_report(
        "ladder-split-raise", (row_g - row_f).scale(Fraction(1, 2)), prec))
    return tuple(reports)


# -- shooting oracle -----------------------------------------------------------


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
    (F, G/nu) in x = ln rho outward from rho0 and inward from rho_inf to
    rho_match = n + s + 1. Each half's x-interval is mapped onto t in
    [0, 1] with dx/dt = L, its signed length, so all halves end at t = 1.
    The state is [f_out, f_in, g_out, g_in], m components each; the
    inward halves get atol 1e-300, that is pure relative error control.
    Returns the mismatches and the solve's RHS count.
    """
    m = len(nu)
    x_start = np.concatenate((np.full(m, math.log(_RHO0)), np.log(40.0 + 10.0 * n)))
    L = np.tile(np.log(n + s + 1.0), 2) - x_start
    start, L = np.tile(x_start, 2), np.tile(L, 2)    # per state component
    zn, zi = zeta * nu, zeta / nu
    diag = L * np.concatenate((-tau, -tau, tau, tau))
    coupling = L * np.concatenate((zn, zn, -zi, -zi))
    swap = np.roll(np.arange(4 * m), 2 * m)          # f <-> g

    def rhs(t, y):
        # dF/dx = -tau F + (rho + zeta nu) G,  dG/dx = tau G + (rho - zeta/nu) F
        return diag * y + (L * np.exp(start + L * t) + coupling) * y[swap]

    # two-term series seed (f0 = 1) keeps the outward solution on the
    # regular branch
    g0 = (s + tau) / zn
    f1 = ((s + 1 - tau) * g0 + zn) / (2 * s + 1)
    g1 = ((s + 1 + tau) - zi * g0) / (2 * s + 1)
    ones = np.ones(m)
    y0 = np.concatenate((1.0 + f1 * _RHO0, ones, g0 + g1 * _RHO0, -ones))
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
    levels = [(ch, n) for ch in channel_grid(params, j_max)
              for n in range(min(n_max, 5) + 1) if ch.is_bound(n)]
    rows, worst = [], 0.0
    for (ch, n), res in zip(levels, shooting_oracle_batch(levels)):
        rel = oracle_binding_residual(ch, n, res)
        worst = max(worst, rel)
        rows.append({"j": str(ch.j), "eps": ch.eps, "n": n,
                     "rel_binding_error": f"{rel:.3e}"})
    return rows, worst


# -- Gram matrix and report ------------------------------------------------------


def orthonormality_matrix(channel: Channel, n_list, precision: int = DEFAULT_PRECISION):
    """Gram matrix of unit tower kets under the phase-averaged inner product.

    Off-diagonal entries are exact integer zeros (distinct modes); diagonal
    entries are 1 to within the working precision.
    """
    n_list = list(n_list)
    if min(n_list, default=0) < 0:
        raise DomainError("rung index must be a nonnegative integer")
    rungs = climb(channel, max(n_list, default=0), precision)
    return _gram_matrix([rungs[n] for n in n_list], precision)


def _gram_matrix(states, precision: int):
    size = len(states)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            val = inner_product(states[i].plus_function(),
                                states[j].plus_function(), precision)
            if isinstance(val, int):
                out[i][j] = val
                continue
            with mp.workprec(precision + _GUARD):
                val = val * states[i].ladder_norm * states[j].ladder_norm
            with mp.workprec(precision):
                out[i][j] = +val
    return out


def negative_branch_divergence_note() -> str:
    return (
        "A second formal tower descends from mu = -lambda with radial factor "
        "rho^s e^{+rho}: every step satisfies the same algebra, but the "
        "squared-amplitude integral int_0^inf rho^(2s-1) e^(2 rho) d rho "
        "diverges at the upper limit, so no member of the descending tower "
        "is normalizable and the bound spectrum comes from the lowest-weight "
        "tower alone."
    )


def verification_report(params: PhysicalParams, j_max: Fraction = Fraction(5, 2),
                        n_max: int = 5, precision: int = DEFAULT_PRECISION,
                        inject_off_shell: bool = False) -> dict:
    """Run the exact residual suite over a channel grid; JSON-friendly.

    One climb per channel serves the residual rows and the Gram matrix.
    Each rung is assembled once, and its split rows are read off its radial
    rows. The su(1,1) structure relations and the two Casimir routes are
    not sampled here: they are decided once per process on a generic
    family member (`algebra.universal_images`), which covers every channel,
    mode and degree, so `commutators_exact` and `casimir_routes_agree`
    report that decision.

    inject_off_shell deliberately swaps one state's first-order residuals
    for their detuned counterparts, so a healthy reporting path must flag
    the run as failed.
    """
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    grid = channel_grid(params, j_max)
    channels = []
    all_exact = True
    injected = False
    for ch in grid:
        rungs = climb(ch, n_max, precision)
        rows = []
        for n, state in enumerate(rungs[:n_max + 1]):
            entry = {"n": n, "physical": state.is_physical}
            radial = first_order_residual(assemble(state, allow_unphysical=True))
            reports = list(_second_order_rows(state, radial))
            if state.is_physical:
                if n >= 1:
                    det = detuned_first_order(state)
                    entry["detuned_nonzero"] = all(
                        not r.is_exact_zero for r in det)
                    if not entry["detuned_nonzero"]:
                        all_exact = False
                    if inject_off_shell and not injected:
                        injected = True
                        entry["injected_off_shell"] = True
                        radial = [replace(rep, which=rep.which.replace("-detuned", ""))
                                  for rep in det]
                reports.extend(radial)
                expected_zero = reports
            else:
                # bottom rung of a tau > 0 channel: the raise-split
                # residual, the last row, is the witness that no bound
                # state sits here
                *expected_zero, witness = reports
                entry["bottom_rung_witness_nonzero"] = not witness.is_exact_zero
                if witness.is_exact_zero:
                    all_exact = False
            entry["residuals"] = {
                r.which: {"exact_zero": r.is_exact_zero,
                          "max_abs": mp_str(r.max_abs_embedded, 32)}
                for r in reports}
            bad = [r.which for r in expected_zero if not r.is_exact_zero]
            if bad:
                all_exact = False
                entry["failed"] = bad
            rows.append(entry)
        gram = _gram_matrix(rungs[:min(n_max, 5) + 1], precision)
        size = len(gram)
        off_ok = all(gram[a][b] == 0 for a in range(size)
                     for b in range(size) if a != b)
        with mp.workprec(precision):
            diag_err = max(abs(gram[a][a] - 1) for a in range(size))
            gram_ok = off_ok and diag_err < mp.mpf(2) ** -(precision - 16)
        if not gram_ok:
            all_exact = False
        channels.append({"j": str(ch.j), "eps": ch.eps, "rows": rows,
                         "gram_offdiagonal_exact_zero": off_ok,
                         "gram_diagonal_max_err": mp_str(diag_err, 32),
                         "gram_identity_ok": gram_ok})
    # the climbs above stand on the decided generator images: a structure
    # relation or Casimir route that fails raises AssertionError, naming it
    universal_images()
    return {
        "schema": SCHEMA_TAG,
        "kind": "verification-report",
        "Z": params.Z,
        "c": str(params.c),
        "precision": precision,
        "j_max": str(j_max),
        "n_max": n_max,
        "commutators_exact": True,
        "casimir_routes_agree": True,
        "channels": channels,
        "all_exact": all_exact,
        "descending_tower": negative_branch_divergence_note(),
    }
