"""Independent checks: exact residuals, Gram matrix, verification report.

Residual checks substitute the polynomial parts of a state's window into
the radial equations and reduce everything to tower arithmetic, so a
passing check is an exact algebraic zero, not a small number; no row
needs the float scales sqrt(c^2 +- E). The identities

    zeta / nu = w + s + n,      zeta nu = w - s - n,      w^2 = tau^2 + n(n+2s)

replace every energy-dependent coefficient by an element of Q(s)[w]; a
detuned w (off shell) must and does leave a nonzero residual.

The first-order system is transcribed once, in _system_rows, on the pair
(f, g) = (minus + plus, minus - plus) of the window halves
(`wavefunctions.radial_parts`). The ladder-split relations are the same
system in the (plus, minus) basis, so they are read off its rows as
polynomials: row_f = lower - raise and row_g = lower + raise, that is
lower = (row_f + row_g)/2 and raise = (row_g - row_f)/2.

The float64 shooting oracle lives in `oracle`, which alone imports numpy.
Its public names still resolve here; the first use of one imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import groupby

import mpmath as mp

from . import params  # params.DETUNE is read at call time
from .params import (
    DEFAULT_PRECISION,
    _GUARD,
    SCHEMA_TAG,
    Channel,
    DomainError,
    PhysicalParams,
    channel_slots,
    exact_w,
    mp_str,
    tower_w2,
)
from .qsfield import QsPolynomial, Quadratic
# build_state is unused here but stays importable as verify.build_state
from .ladder import LadderState, build_state, climb, square_moment, tower_image  # noqa: F401
from .algebra import field_moment, inner_product, universal_images
from .wavefunctions import RadialPair, radial_parts, tower_window

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
    """One residual row, exact in the tower; its magnitude is embedded only
    when read."""

    which: str
    residual_poly: QsPolynomial
    precision: int

    @property
    def is_exact_zero(self) -> bool:
        return self.residual_poly.is_zero

    @property
    def max_abs_embedded(self) -> mp.mpf:
        """The largest |coefficient| of the row at the report's precision."""
        if self.is_exact_zero:
            return mp.mpf(0)
        prec = self.precision
        with mp.workprec(prec + _GUARD):
            mx = max(abs(c.embed(prec + _GUARD)) for c in self.residual_poly.coeffs)
        with mp.workprec(prec):
            return +mx

    def __str__(self) -> str:
        tag = "exact 0" if self.is_exact_zero else f"nonzero ({mp.nstr(self.max_abs_embedded, 5)})"
        return f"[{self.which}] {tag}"


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


def _reports(tags, rows, precision: int) -> tuple:
    return tuple(ResidualReport(tag, row, precision) for tag, row in zip(tags, rows))


def first_order_residual(pair: RadialPair):
    """Both rows of the coupled system on a radial pair; exact zeros."""
    ch, n = pair.channel, pair.n
    rows = _system_rows(ch, n, pair.f_poly, pair.g_poly, exact_w(ch, n))
    return _reports(("radial-row-f", "radial-row-g"), rows, pair.state.precision)


def _window_rows(state: LadderState, w: Quadratic, suffix: str = ""):
    """The radial reports of the state's window lifted to w, with w^2 = w.d."""
    f, g = radial_parts(*tower_window(state, w))
    rows = _system_rows(state.channel, state.n, f, g, w)
    return _reports(("radial-row-f" + suffix, "radial-row-g" + suffix), rows,
                    state.precision)


def detuned_first_order(state: LadderState):
    """Negative control: scale w^2 by 1 + params.DETUNE = 1001/1000 and redo
    the first-order residuals. Off shell both rows must be exactly nonzero."""
    if state.n < 1:
        raise DomainError("detuned control needs n >= 1")
    w_off = Quadratic.root(tower_w2(state.channel, state.n) * (1 + params.DETUNE))
    return _window_rows(state, w_off, "-detuned")


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
    return _second_order_rows(state, _window_rows(state, exact_w(state.channel, state.n)))


def _second_order_rows(state: LadderState, radial):
    """The four reports of second_order_residual, the split rows read off
    the radial rows (row_f, row_g) of the same state."""
    ch = state.channel
    n = state.n
    link = ch.qs(ch.s2 - Fraction(1, 4) - ch.xi)
    rows = []
    for half, k in ((state.psi_plus, n), (state.psi_minus, n - 1)):
        rung = tower_image(ch, k) if k >= 0 else QsPolynomial.zero_poly(half.zero)
        if half != rung:
            raise AssertionError(f"rung {n} window is not the image of the universal tower")
        rows.append(half.scale(link))
    row_f, row_g = (rep.residual_poly for rep in radial)
    rows += [(row_f + row_g).scale(Fraction(1, 2)), (row_g - row_f).scale(Fraction(1, 2))]
    return _reports(("mode-equation-plus", "mode-equation-minus",
                     "ladder-split-lower", "ladder-split-raise"), rows,
                    state.precision)


# -- Gram matrix and report ------------------------------------------------------


def orthonormality_matrix(channel: Channel, n_list, precision: int = DEFAULT_PRECISION):
    """Gram matrix of unit tower kets under the phase-averaged inner product.

    Off-diagonal entries are exact integer zeros (distinct modes); diagonal
    entries are the exact field ratios of `_gram_matrix`, embedded: 1 for
    unit kets.
    """
    n_list = list(n_list)
    if min(n_list, default=0) < 0:
        raise DomainError("rung index must be a nonnegative integer")
    gram = _gram_matrix(climb(channel, max(n_list, default=0), precision), n_list)
    return [[x if isinstance(x, int) else x.embed(precision) for x in row] for row in gram]


def _gram_matrix(rungs, n_list):
    """Gram entries of the unit kets of rungs[a], rungs[b] for a, b in
    n_list, exact. Distinct modes pair to the integer 0 under the phase
    average. On the diagonal, Gamma(2s)/2^(2s) cancels against the ket
    normalizer A_n = N_lam / sqrt(n!(2s+1)_n), leaving the shift-0 field
    moment of pi_n^2 over n!(2s+1)_n: an element of Q(s), 1 iff the ket is
    a unit."""
    diagonal = {}
    for a in set(n_list):
        rung = rungs[a]
        diagonal[a] = (field_moment(rung.psi_plus * rung.psi_plus, rung.channel)
                       / square_moment(rung.channel, rung.n))
    return [[diagonal[a] if a == b else inner_product(rungs[a].plus_function(),
                                                       rungs[b].plus_function())
             for b in n_list] for a in n_list]


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
    Each rung's window is lifted to w once, and its split rows are read off
    its radial rows; no row embeds E, so any precision decides them. The
    su(1,1) structure relations and the two Casimir routes are not sampled
    here: they are decided once per process on a generic family member
    (`algebra.universal_images`), which covers every channel, mode and
    degree, so `commutators_exact` and `casimir_routes_agree` report that
    decision.

    inject_off_shell deliberately swaps one state's first-order residuals
    for their detuned counterparts, so a healthy reporting path must flag
    the run as failed.
    """
    channels = []
    all_exact = True
    injected = False
    for ch, slots in groupby(channel_slots(params, j_max, n_max), key=lambda slot: slot[0]):
        rungs = climb(ch, n_max, precision)
        rows = []
        for _, n in slots:
            state = rungs[n]
            entry = {"n": n, "physical": state.is_physical}
            radial = _window_rows(state, exact_w(ch, n))
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
        gram = _gram_matrix(rungs, range(min(n_max, 5) + 1))
        size = len(gram)
        off_ok = all(gram[a][b] == 0 for a in range(size)
                     for b in range(size) if a != b)
        diagonal = [gram[a][a] - 1 for a in range(size)]
        gram_ok = off_ok and all(d.is_zero for d in diagonal)
        with mp.workprec(precision):
            diag_err = max(abs(d.embed(precision)) for d in diagonal)
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
