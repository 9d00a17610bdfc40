"""Independent checks: exact residuals, numeric shooting oracle, Gram matrix.

Residual checks substitute the assembled polynomial pairs into the radial
equations and reduce everything to tower arithmetic, so a passing check is
an exact algebraic zero, not a small number. The identities

    zeta / nu = w + s + n,      zeta nu = w - s - n,      w^2 = tau^2 + n(n+2s)

replace every energy-dependent coefficient by an element of Q(s)[w]; a
detuned w (off shell) must and does leave a nonzero residual.

The shooting oracle knows nothing of ladders or Laguerre polynomials: it
integrates the first-order radial system in float64 from both ends and
finds the scaled momentum nu at which the two halves match. It runs any
number of levels in lock-step: every level's outward and inward half is
one block of a single stacked DOP853 system (Hairer, Norsett & Wanner,
Solving ODEs I), and vectorised Illinois false position (Dowell &
Jarratt, BIT 11, 1971) refines all brackets at once, one solve per round.
Its eigenvalues confirm the closed-form spectrum to near machine accuracy
(the binding energy is compared, since the total energy is dominated by
the rest term c^2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

from .params import (
    DEFAULT_PRECISION,
    _GUARD,
    SCHEMA_TAG,
    Channel,
    DomainError,
    PhysicalParams,
    channel_grid,
    make_channel,
    mp_str,
    tower_w2,
)
from .qsfield import QsNumber, QsPolynomial, TowerNumber
# build_state is unused here but stays importable as verify.build_state
from .ladder import LadderState, build_state, climb  # noqa: F401
from .algebra import (
    COMMUTATORS,
    FamilySum,
    casimir_composed,
    casimir_explicit,
    commutator_check,
    inner_product,
)
from .wavefunctions import RadialPair, assemble, exact_w, tower_lift

ORACLE_N_CAP = 10
ORACLE_REL_TOL = 1e-10   # pass mark on the relative binding error

_RHO0 = 1e-6             # where the outward series seed starts
_XTOL, _RTOL = 1e-300, 8.9e-16   # converged bracket width, as brentq's
_ILLINOIS_CAP = 100      # root-finding rounds; typical levels need about 10


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
    exact = poly.is_zero
    if exact:
        mx = mp.mpf(0)
    else:
        with mp.workprec(precision + _GUARD):
            mx = max(abs(c.embed(precision + _GUARD)) for c in poly.coeffs)
        with mp.workprec(precision):
            mx = +mx
    return ResidualReport(which, poly, exact, mx)


def _system_rows(channel: Channel, n: int, f: QsPolynomial, g: QsPolynomial,
                 w: TowerNumber):
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


def first_order_residual(pair: RadialPair, precision: Optional[int] = None):
    """Both rows of the coupled system on the assembled pair; exact zeros."""
    prec = precision or pair.state.spectral.precision
    ch = pair.channel
    n = pair.n
    w = exact_w(ch, n)
    row_f, row_g = _system_rows(ch, n, pair.f_poly, pair.g_poly, w)
    return (_residual_report("radial-row-f", row_f, prec),
            _residual_report("radial-row-g", row_g, prec))


def detuned_first_order(state: LadderState, delta: Fraction = Fraction(1, 1000),
                        precision: Optional[int] = None):
    """Negative control: scale w^2 by (1 + delta) and redo the first-order
    residuals. Off shell both rows must be exactly nonzero."""
    prec = precision or state.spectral.precision
    ch = state.channel
    n = state.n
    if n < 1:
        raise DomainError("detuned control needs n >= 1")
    w2_off = tower_w2(ch, n) * (1 + delta)
    w_off = TowerNumber.w_root(w2_off)
    plus = tower_lift(state.psi_plus, w2_off)
    minus = tower_lift(state.psi_minus, w2_off).scale(
        -(w_off + ch.qs(ch.tau)))
    f = minus + plus
    g = minus - plus
    row_f, row_g = _system_rows(ch, n, f, g, w_off)
    return (_residual_report("radial-row-f-detuned", row_f, prec),
            _residual_report("radial-row-g-detuned", row_g, prec))


def second_order_residual(state: LadderState, precision: Optional[int] = None):
    """Decoupled mode equations and the ladder-split relations, all exact.

    mode-equation-plus/minus: each window half satisfies its own
    second-order equation, i.e. the explicit Casimir action returns
    xi times the function.

    ladder-split-lower: rho psi_plus' - n psi_plus = (w - tau) psi_minus
    ladder-split-raise: rho psi_minus' + (n + 2s - 2 rho) psi_minus
                         = -(w + tau) psi_plus

    The raise relation is the unphysical-bottom detector: at n = 0 its
    residual is (w + tau) psi_plus, which vanishes exactly when tau < 0
    (w = -tau) and equals 2 tau at a tau > 0 bottom rung.
    """
    prec = precision or state.spectral.precision
    ch = state.channel
    n = state.n
    xi = ch.qs(ch.xi)
    reports = []

    for tag, func in (("mode-equation-plus", state.plus_function()),
                      ("mode-equation-minus", state.minus_function())):
        F = FamilySum.from_function(func)
        acted = casimir_explicit(F) - F.scaled(xi)
        if acted.is_zero:
            poly = QsPolynomial.zero_poly(QsNumber.zero(ch.s2))
        else:
            ((_, re, im),) = acted.parts
            if not im.is_zero:
                raise AssertionError("real input must stay real under the mode equation")
            poly = re
        reports.append(_residual_report(tag, poly, prec))

    w2 = tower_w2(ch, n)
    w = exact_w(ch, n)
    tau = ch.qs(ch.tau)
    plus = tower_lift(state.psi_plus, w2)
    if n == 0:
        minus = QsPolynomial.zero_poly(TowerNumber.zero(w2))
    else:
        minus = tower_lift(state.psi_minus, w2).scale(-(w + tau))

    lower = (plus.derivative().mul_rho() - plus.scale(TowerNumber.of(ch.qs(n), w2=w2))
             - minus.scale(w - tau))
    raise_ = (minus.derivative().mul_rho()
              + minus.scale(TowerNumber.of(ch.qs(n) + ch.s * 2, w2=w2))
              - minus.mul_rho().scale(2)
              + plus.scale(w + tau))
    reports.append(_residual_report("ladder-split-lower", lower, prec))
    reports.append(_residual_report("ladder-split-raise", raise_, prec))
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
    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13, atol=atol)
    if not sol.success:
        raise AssertionError(f"oracle integration failed: {sol.message}")
    fo, fi, go, gi = sol.y[:, -1].reshape(4, m)
    return (fo * gi - fi * go) / (np.hypot(fo, go) * np.hypot(fi, gi)), sol.nfev


def shooting_oracle_batch(levels) -> list:
    """Two-sided float64 shooting for a list of (channel, n) levels at once.

    Every level is integrated in one stacked DOP853 system (see _shoot), so
    the levels share one step controller. The root of each level's
    normalized Wronskian mismatch in nu is bracketed by the closed-form
    values at the half-integer indices n -+ 1/2: both ends of every
    bracket go into one solve, and a level with no sign change there (no
    bound state at the slot) raises BracketingError naming every empty
    slot before any root finding. Vectorised Illinois false position then
    refines the levels whose bracket is still wider than brentq's
    tolerance, one solve per round; converged levels drop out. A level's
    ``steps`` counts the RHS evaluations of the solves it took part in,
    and ``mismatch`` is that of its last iterate.
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

    nu_lo = _nu_of_index(s, zeta, n + 0.5)
    nu_hi = _nu_of_index(s, zeta, n - 0.5)
    ends, nfev = _shoot(*(np.tile(v, 2) for v in (s, zeta, tau, n)),
                        np.concatenate((nu_lo, nu_hi)))
    m_lo, m_hi = ends[:k], ends[k:]
    empty = np.flatnonzero(m_lo * m_hi > 0)
    if empty.size:
        raise BracketingError("; ".join(
            f"no eigenvalue between nu={nu_lo[i]:.6g} and nu={nu_hi[i]:.6g} "
            f"for {levels[i][0]} at slot n={levels[i][1]}" for i in empty),
            slots=[levels[i] for i in empty])

    # Illinois: b is always the latest iterate, [a, b] brackets the root
    a, fa, b, fb = nu_lo.copy(), m_lo.copy(), nu_hi.copy(), m_hi.copy()
    steps = np.full(k, nfev)
    live = np.arange(k)
    rounds = 0
    while True:
        A, FA, B, FB = a[live], fa[live], b[live], fb[live]
        done = (FB == 0) | (np.abs(B - A) <= _XTOL + _RTOL * np.abs(B))
        live, A, FA, B, FB = (v[~done] for v in (live, A, FA, B, FB))
        if not live.size:
            break
        if rounds == _ILLINOIS_CAP:
            raise AssertionError(
                f"oracle root finding did not converge in {rounds} rounds for "
                + ", ".join(f"{levels[i][0]} n={levels[i][1]}" for i in live))
        rounds += 1
        # as in Brent's method, keep each iterate half a tolerance inside
        # the bracket, so one next to the root crosses it and closes the
        # bracket (the bracket is wider than a whole tolerance here)
        tol = 0.5 * (_XTOL + _RTOL * np.abs(B))
        c = np.clip(B - FB * (B - A) / (FB - FA),
                    np.minimum(A, B) + tol, np.maximum(A, B) - tol)
        fc, nfev = _shoot(s[live], zeta[live], tau[live], n[live], c)
        steps[live] += nfev
        flip = fc * FB < 0
        a[live] = np.where(flip, B, A)
        fa[live] = np.where(flip, FB, 0.5 * FA)
        b[live], fb[live] = c, fc

    out = []
    for (ch, _), nu, lo, hi, st, mis in zip(levels, b.tolist(), nu_lo.tolist(),
                                           nu_hi.tolist(), steps.tolist(),
                                           np.abs(fb).tolist()):
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
    from .params import spectral_point

    pt = spectral_point(channel, n, 64)
    exact = float(pt.binding)
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


def orthonormality_matrix(channel: Channel, n_list, precision: int = DEFAULT_PRECISION,
                          normalized: bool = True):
    """Gram matrix of tower kets under the phase-averaged inner product.

    Off-diagonal entries are exact integer zeros (distinct modes); diagonal
    entries are 1 when normalized, otherwise the tracked 1/ladder_norm^2.
    """
    n_list = list(n_list)
    if min(n_list, default=0) < 0:
        raise DomainError("rung index must be a nonnegative integer")
    rungs = climb(channel, max(n_list, default=0), precision)
    return _gram_matrix([rungs[n] for n in n_list], precision, normalized)


def _gram_matrix(states, precision: int, normalized: bool):
    size = len(states)
    out = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            val = inner_product(states[i].plus_function(),
                                states[j].plus_function(), precision)
            if isinstance(val, int):
                out[i][j] = val
                continue
            if normalized:
                with mp.workprec(precision + _GUARD):
                    val = val * states[i].ladder_norm * states[j].ladder_norm
                with mp.workprec(precision):
                    val = +val
            out[i][j] = val
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

    One climb per channel serves the residual rows, the Gram matrix and
    (j = 1/2, eps = -1) the commutator and Casimir samples.

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
    sample_ch = make_channel(params, Fraction(1, 2), -1)
    sample_rungs = climb(sample_ch, max(n_max, 2), precision)
    for ch in grid:
        rungs = sample_rungs if ch == sample_ch else climb(ch, n_max, precision)
        rows = []
        for n, state in enumerate(rungs[:n_max + 1]):
            entry = {"n": n, "physical": state.is_physical}
            reports = list(second_order_residual(state, precision))
            if state.is_physical:
                pair = assemble(state)
                if inject_off_shell and not injected and n >= 1:
                    injected = True
                    entry["injected_off_shell"] = True
                    for rep in detuned_first_order(state, precision=precision):
                        reports.append(ResidualReport(
                            rep.which.replace("-detuned", ""),
                            rep.residual_poly, rep.is_exact_zero,
                            rep.max_abs_embedded))
                else:
                    reports.extend(first_order_residual(pair, precision))
                if n >= 1:
                    det = detuned_first_order(state, precision=precision)
                    entry["detuned_nonzero"] = all(
                        not r.is_exact_zero for r in det)
                    if not entry["detuned_nonzero"]:
                        all_exact = False
                expected_zero = reports
            else:
                # bottom rung of a tau > 0 channel: the raise-split
                # residual is the witness that no bound state sits here
                raise_split = [r for r in reports if r.which == "ladder-split-raise"]
                entry["bottom_rung_witness_nonzero"] = all(
                    not r.is_exact_zero for r in raise_split)
                if not entry["bottom_rung_witness_nonzero"]:
                    all_exact = False
                expected_zero = [r for r in reports
                                 if r.which != "ladder-split-raise"]
            entry["residuals"] = {
                r.which: {"exact_zero": r.is_exact_zero,
                          "max_abs": mp_str(r.max_abs_embedded, 32)}
                for r in reports}
            bad = [r.which for r in expected_zero if not r.is_exact_zero]
            if bad:
                all_exact = False
                entry["failed"] = bad
            rows.append(entry)
        gram = _gram_matrix(rungs[:min(n_max, 5) + 1], precision, True)
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
    sample_members = [state.plus_function() for state in sample_rungs[:3]]
    comm_ok = all(
        commutator_check(f, pair).is_zero
        for f in sample_members for pair in COMMUTATORS)
    casimir_ok = all(
        (casimir_composed(S) - casimir_explicit(S)).is_zero
        for S in (FamilySum.from_function(f) for f in sample_members))
    if not (comm_ok and casimir_ok):
        all_exact = False
    return {
        "schema": SCHEMA_TAG,
        "kind": "verification-report",
        "Z": params.Z,
        "c": str(params.c),
        "precision": precision,
        "j_max": str(j_max),
        "n_max": n_max,
        "commutators_exact": comm_ok,
        "casimir_routes_agree": casimir_ok,
        "channels": channels,
        "all_exact": all_exact,
        "descending_tower": negative_branch_divergence_note(),
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
