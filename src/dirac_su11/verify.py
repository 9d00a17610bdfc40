"""Independent checks: exact residuals, Gram matrix, verification report.

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

The float64 shooting oracle lives in `oracle`, which alone imports numpy
and scipy. Its public names still resolve here; the first use of one
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from .params import (
    DEFAULT_PRECISION,
    _GUARD,
    SCHEMA_TAG,
    Channel,
    DomainError,
    PhysicalParams,
    channel_grid,
    mp_str,
    tower_w2,
)
from .qsfield import QsPolynomial, Quadratic
# build_state is unused here but stays importable as verify.build_state
from .ladder import LadderState, build_state, climb, tower_image  # noqa: F401
from .algebra import inner_product, universal_images
from .wavefunctions import RadialPair, assemble, exact_w, tower_window

_DETUNE = Fraction(1, 1000)   # relative shift of w^2 in the detuned control

_ORACLE_NAMES = frozenset({
    "BracketingError", "OracleResult", "ORACLE_N_CAP", "ORACLE_REL_TOL",
    "oracle_binding_residual", "oracle_sweep", "shooting_oracle",
    "shooting_oracle_batch",
})


def __getattr__(name):
    # PEP 562: an oracle name loads the oracle on first use and is then
    # bound here, as an import at the top would have bound it
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    value = globals()[name] = getattr(oracle, name)
    return value


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
