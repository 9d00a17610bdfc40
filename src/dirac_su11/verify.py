"""Independent checks: exact residuals, Gram matrix, verification report.

Residual checks substitute the polynomial parts of a state's window into
the radial equations and reduce everything to tower arithmetic, so a
passing check is an exact algebraic zero, not a small number; no row
needs the float scales sqrt(c^2 +- E). The identities

    zeta / nu = w + s + n,      zeta nu = w - s - n,      w^2 = tau^2 + n(n+2s)

replace every energy-dependent coefficient by an element of Q(s)[w]; a
detuned w (off shell) must and does leave a nonzero residual. A report
holds only its exact row; `params.max_abs_embedded` embeds what is printed.

The first-order system is transcribed once, in _system_rows, on the pair
(f, g) = (minus + plus, minus - plus) of the window halves
(`wavefunctions.radial_parts`). The ladder-split relations are the same
system in the (plus, minus) basis, so they are read off its rows as
polynomials: row_f = lower - raise and row_g = lower + raise, that is
lower = (row_f + row_g)/2 and raise = (row_g - row_f)/2.

`verification_report` decides every rung and Gram block through the public
functions below, and `row_failures` names what fails one of its rows.

The float64 shooting oracle lives in `oracle`, which alone imports numpy.
Its public names still resolve here; the first use of one imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _EXPORTS
from .params import (
    DEFAULT_PRECISION,
    SCHEMA_TAG,
    Channel,
    DomainError,
    PhysicalParams,
    channel_slots,
    exact_w,
    max_abs_embedded,
    mp_str,
    off_shell_w2,
)
from .qsfield import QsPolynomial, Quadratic
# build_state is unused here but stays importable as verify.build_state
from .ladder import LadderState, build_state, climb, square_moment, tower_image  # noqa: F401
from .algebra import field_moment, inner_product, universal_images
from .wavefunctions import radial_parts, tower_window

GRAM_N_CAP = 5  # a Gram matrix of 65 rungs takes seconds per channel


def __getattr__(name):
    # PEP 562: an oracle name loads the oracle on first use and is then
    # bound here, as an import at the top would have bound it
    if name not in _EXPORTS["oracle"]:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    value = globals()[name] = getattr(oracle, name)
    return value


@dataclass(frozen=True, slots=True)
class ResidualReport:
    """One residual row, exact in the tower; only the report that prints it
    embeds its magnitude (`params.max_abs_embedded`)."""

    which: str
    residual_poly: QsPolynomial

    @property
    def is_exact_zero(self) -> bool:
        return self.residual_poly.is_zero


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


def _reports(tags, rows) -> tuple:
    return tuple(ResidualReport(tag, row) for tag, row in zip(tags, rows))


def _window_rows(state: LadderState, w: Quadratic):
    """The radial reports of the state's window lifted to w, with w^2 = w.d."""
    f, g = radial_parts(*tower_window(state, w))
    rows = _system_rows(state.channel, state.n, f, g, w)
    return _reports(("radial-row-f", "radial-row-g"), rows)


def first_order_residual(state: LadderState):
    """Both rows of the coupled system on the state's window, on shell;
    exact zeros."""
    return _window_rows(state, exact_w(state.channel, state.n))


def detuned_first_order(state: LadderState):
    """Negative control: the first-order rows, on-shell names kept, at
    `params.off_shell_w2`; off shell both must be exactly nonzero."""
    if state.n < 1:
        raise DomainError("detuned control needs n >= 1")
    return _window_rows(state, Quadratic.root(off_shell_w2(state.channel, state.n)))


def second_order_residual(state: LadderState, radial):
    """Decoupled mode equations and the ladder-split relations, all exact,
    the split rows read off the radial rows (row_f, row_g) of the same
    state: on shell (`first_order_residual`) or detuned.

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
    residuals are lower = (row_f + row_g)/2 and raise = (row_g - row_f)/2.
    The raise relation is the unphysical-bottom detector: at n = 0 its
    residual is (w + tau) psi_plus, which vanishes exactly when tau < 0
    (w = -tau) and equals 2 tau at a tau > 0 bottom rung.
    """
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
                     "ladder-split-lower", "ladder-split-raise"), rows)


# -- Gram matrix and report ------------------------------------------------------


def orthonormality_matrix(rungs, n_list):
    """Gram entries of the unit kets of rungs[a], rungs[b] for a, b in
    n_list, exact; rungs is a climb, rung n at index n. Distinct modes pair
    to the integer 0 under the phase average. On the diagonal,
    Gamma(2s)/2^(2s) cancels against the ket normalizer
    A_n = N_lam / sqrt(n!(2s+1)_n), leaving the shift-0 field moment of
    pi_n^2 over n!(2s+1)_n: an element of Q(s), 1 iff the ket is a unit."""
    n_list = list(n_list)
    if min(n_list, default=0) < 0:
        raise DomainError("rung index must be a nonnegative integer")
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


def row_failures(row: dict) -> list:
    """What fails a `verification_report` row: the residuals it expects to
    be exact zeros that are not, a detuned control decided zero, and a
    bottom-rung witness decided zero."""
    return (row.get("failed", [])
            + ["detuned control unexpectedly zero"] * (row.get("detuned_nonzero") is False)
            + ["bottom-rung witness unexpectedly zero"]
            * (row.get("bottom_rung_witness_nonzero") is False))


def verification_report(params: PhysicalParams, j_max: Fraction = Fraction(5, 2),
                        n_max: int = 5, precision: int = DEFAULT_PRECISION,
                        inject_off_shell: bool = False) -> dict:
    """Run the exact residual suite over a channel grid; JSON-friendly.

    One climb per channel serves the residual rows and the Gram matrix
    (`orthonormality_matrix`), which stops at GRAM_N_CAP; a deeper grid
    names that as gram_n_max. Each rung's window is lifted to w once
    (`first_order_residual`), and its split rows are read off its radial
    rows (`second_order_residual`); no row embeds E, so any precision
    decides them, and a printed max_abs embeds no decided zero. The su(1,1)
    structure relations and the two Casimir routes are not sampled here:
    they are decided once per process on a generic family member
    (`algebra.universal_images`), which covers every channel, mode and
    degree, so `commutators_exact` and `casimir_routes_agree` report that
    decision.

    inject_off_shell deliberately swaps one state's first-order residuals
    for their detuned counterparts, so a healthy reporting path must flag
    the run as failed.
    """
    channels = []
    for ch, slots in channel_slots(params, j_max, n_max):
        rungs = climb(ch, n_max, precision)
        rows = []
        for n in slots:
            state = rungs[n]
            entry = {"n": n, "physical": state.is_physical}
            radial = first_order_residual(state)
            reports = list(second_order_residual(state, radial))
            if state.is_physical:
                if n >= 1:
                    det = detuned_first_order(state)
                    entry["detuned_nonzero"] = all(not r.is_exact_zero for r in det)
                    if inject_off_shell:
                        inject_off_shell = False  # one state only
                        entry["injected_off_shell"] = True
                        radial = det
                reports.extend(radial)
                expected_zero = reports
            else:
                # bottom rung of a tau > 0 channel: the raise-split
                # residual, the last row, is the witness that no bound
                # state sits here
                *expected_zero, witness = reports
                entry["bottom_rung_witness_nonzero"] = not witness.is_exact_zero
            entry["residuals"] = {
                r.which: {"exact_zero": r.is_exact_zero,
                          "max_abs": mp_str(max_abs_embedded(r.residual_poly.coeffs,
                                                             precision), 32)}
                for r in reports}
            bad = [r.which for r in expected_zero if not r.is_exact_zero]
            if bad:
                entry["failed"] = bad
            rows.append(entry)
        gram = orthonormality_matrix(rungs, range(min(n_max, GRAM_N_CAP) + 1))
        size = len(gram)
        off_ok = all(gram[a][b] == 0 for a in range(size)
                     for b in range(size) if a != b)
        diagonal = [gram[a][a] - 1 for a in range(size)]
        channels.append({"j": str(ch.j), "eps": ch.eps, "rows": rows,
                         "gram_offdiagonal_exact_zero": off_ok,
                         "gram_diagonal_max_err": mp_str(
                             max_abs_embedded(diagonal, precision), 32),
                         "gram_identity_ok": off_ok and all(d.is_zero for d in diagonal)})
    all_exact = all(block["gram_identity_ok"] and not any(map(row_failures, block["rows"]))
                    for block in channels)
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
        **({"gram_n_max": GRAM_N_CAP} if n_max > GRAM_N_CAP else {}),
    }
