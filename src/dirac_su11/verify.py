"""Independent checks: exact residuals, Gram matrix, verification report.

Residual checks substitute the polynomial parts of a state's window into
the radial equations and reduce everything to tower arithmetic, so a
passing check is an exact algebraic zero, not a small number; no row
needs the float scales sqrt(c^2 +- E). The identities

    zeta / nu = w + s + n,      zeta nu = w - s - n,      w^2 = tau^2 + n(n+2s)

replace every energy-dependent coefficient by an element of Q(s)[w]; a
detuned w (off shell) must and does leave a nonzero residual. A report
holds only its exact row; `params.max_abs_embedded` embeds what is printed.

The first-order system is transcribed once, in the table _SYSTEM, on the
pair (f, g) = (minus + plus, minus - plus) of the window halves. Its
coefficients involve tau, s, w and n only, so on the universal window
(pi_n, -(w + tau) pi_(n-1)) its rows live in Z[s, tau][w][rho], and
`universal_rows` decides them there once per rung and process, for every
channel: each row is A + B w + C w^2 with C = pi_(n-1), and modulo
w^2 - tau^2 - n(n + 2s) it is zero for n >= 1 and the raise witness at
n = 0. So at any w a row on a ladder window is the image of the reduced
row plus psi_minus (w^2 - tau^2 - n(n + 2s)) (`_rows_at`). On shell
(`first_order_residual`) the second term is the one relation a channel
decides in Q(s); detuned (`detuned_first_order`, also what
--inject-off-shell prints) its verdict is DETUNE w^2 != 0 together with
pi_(n-1) != 0. A window that is not the image of the universal one is
refused, by every row function. The ladder-split relations are the same
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
    tower_gap,
)
from .qsfield import QsPolynomial, Quadratic
# build_state is unused here but stays importable as verify.build_state
from .ladder import (LadderState, build_state, climb, square_moment,  # noqa: F401
                     tower_image, universal_rung)
from .algebra import field_moment, inner_product, universal_images

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


# -- the first-order system, transcribed once ----------------------------------
#
# With F = sqrt(c^2+E) f rho^s e^{-rho} and G = sqrt(c^2-E) g rho^s e^{-rho},
# the radial equations reduce to
#
#     row_f = (tau - s) g + rho g - rho g' + rho f - (w + s + n) f
#     row_g = (tau + s) f + rho f' - rho f - rho g - (w - s - n) g
#
# where w + s + n = zeta/nu and w - s - n = zeta nu carry the whole energy
# dependence. A row is its terms (part, power of rho, coefficient), the
# coefficient a linear form {symbol: int} over 1, n, tau, s and w.
# `universal_rows` reads this table once per rung over Z[s, tau][w]; the
# tests read it again over a channel's Q(s)(w) (`tests/reference.py`).
_SYSTEM = (
    ("radial-row-f", (("g", 0, {"tau": 1, "s": -1}), ("g", 1, {"1": 1}),
                      ("g'", 1, {"1": -1}), ("f", 1, {"1": 1}),
                      ("f", 0, {"w": -1, "s": -1, "n": -1}))),
    ("radial-row-g", (("f", 0, {"tau": 1, "s": 1}), ("f'", 1, {"1": 1}),
                      ("f", 1, {"1": -1}), ("g", 1, {"1": -1}),
                      ("g", 0, {"w": -1, "s": 1, "n": 1}))),
)
_TAGS = tuple(tag for tag, _ in _SYSTEM)


def _reports(tags, rows) -> tuple:
    return tuple(ResidualReport(tag, row) for tag, row in zip(tags, rows))


# -- the rows on the universal window --------------------------------------------
#
# An element of Z[s, tau][w][rho] is a dict {(k, t, e): [c_0, c_1, ...]}: the
# coefficient of s^k tau^t w^e, a dense list of ints in rho.

_ROWS: dict = {}   # rung n -> its decided rows; never built at import


def _add_into(acc: dict, key: tuple, a: int, coeffs: list) -> None:
    """acc[key] += a * coeffs, as lists in rho."""
    old = acc.setdefault(key, [])
    if len(old) < len(coeffs):
        old.extend([0] * (len(coeffs) - len(old)))
    for i, c in enumerate(coeffs):
        old[i] += a * c


def _grouped(n: int) -> dict:
    """Universal rung n (`ladder.universal_rung`) as {(k, 0, 0): list in rho}."""
    out: dict = {}
    for (i, k), c in universal_rung(n).items():
        coeffs = out.setdefault((k, 0, 0), [])
        coeffs.extend([0] * (i + 1 - len(coeffs)))
        coeffs[i] = c
    return out


def _w_part(row: dict, e: int) -> dict:
    """The w^e part of a universal element, {(k, t): list in rho}, with no
    trailing zeros in a list and no all-zero list."""
    out = {}
    for (k, t, ee), coeffs in row.items():
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        if ee == e and end:
            out[k, t] = coeffs[:end]
    return out


def _decide_universal_rows(n: int) -> tuple:
    """Both rows of `_SYSTEM` on the universal window
    (pi_n, -(w + tau) pi_(n-1)), reduced modulo w^2 - tau^2 - n(n + 2s).

    Before the reduction each row is A + B w + C w^2; decided here: no
    higher power of w, and C = pi_(n-1). So at any w a row is its reduced
    form plus pi_(n-1) (w^2 - tau^2 - n(n + 2s)) (`_rows_at`)."""
    below = _grouped(n - 1) if n else {}
    plus, f, g = _grouped(n), {}, {}
    for (k, t, e), coeffs in below.items():
        for key in ((k, t, e + 1), (k, t + 1, e)):   # -(w + tau) pi_(n-1)
            _add_into(f, key, -1, coeffs)
            _add_into(g, key, -1, coeffs)
    for key, coeffs in plus.items():
        _add_into(f, key, 1, coeffs)
        _add_into(g, key, -1, coeffs)
    # a symbol of `_SYSTEM` is an int factor and a move of the key (k, t, e)
    values = {"1": (1, 0, 0, 0), "n": (n, 0, 0, 0), "tau": (1, 0, 1, 0),
              "s": (1, 1, 0, 0), "w": (1, 0, 0, 1)}
    parts = {"f": f, "g": g}
    for name, part in (("f'", f), ("g'", g)):
        parts[name] = {key: [i * c for i, c in enumerate(coeffs)][1:]
                       for key, coeffs in part.items()}
    rows = []
    for tag, terms in _SYSTEM:
        row: dict = {}
        for part, power, form in terms:
            for (k, t, e), coeffs in parts[part].items():
                shifted = [0] * power + coeffs
                for x, a in form.items():
                    factor, dk, dt, de = values[x]
                    _add_into(row, (k + dk, t + dt, e + de), a * factor, shifted)
        if any(any(coeffs) for (_, _, e), coeffs in row.items() if e > 2):
            raise AssertionError(f"universal rung {n}: {tag} has a power of w above 2")
        if _w_part(row, 2) != _w_part(below, 0):
            raise AssertionError(f"universal rung {n}: the w^2 part of {tag} is not pi_(n-1)")
        reduced: dict = {}
        for (k, t, e), coeffs in row.items():
            if e < 2:
                _add_into(reduced, (k, t, e), 1, coeffs)
            else:   # w^2 = tau^2 + n^2 + 2n s
                _add_into(reduced, (k, t + 2, e - 2), 1, coeffs)
                _add_into(reduced, (k, t, e - 2), n * n, coeffs)
                _add_into(reduced, (k + 1, t, e - 2), 2 * n, coeffs)
        rows.append({key: coeffs for key, coeffs in reduced.items() if any(coeffs)})
    return tuple(rows)


def universal_rows(n: int) -> tuple:
    """The first-order rows on universal rung n's window, in
    Z[s, tau][w][rho] modulo w^2 - tau^2 - n(n + 2s); decided on first use,
    once per process, with each row's w^2 part before the reduction
    decided to be pi_(n-1). Zero for n >= 1; at n = 0, (-(tau + w), tau + w),
    the raise witness."""
    if n not in _ROWS:
        _ROWS[n] = _decide_universal_rows(n)
    return _ROWS[n]


def _channel_image(row: dict, channel: Channel, w: Quadratic, zero: Quadratic) -> QsPolynomial:
    """A universal row under s, tau, w -> the channel's s, tau and w; zero is
    that of w's field."""
    out = []
    for (k, t, e), coeffs in row.items():
        unit = channel.s ** k * channel.tau ** t * w ** e
        out.extend(zero for _ in range(len(coeffs) - len(out)))
        for i, c in enumerate(coeffs):
            out[i] = out[i] + unit * c
    return QsPolynomial.from_coeffs(out, zero)


def holds_universal_window(state: LadderState) -> bool:
    """Whether the state's window is the image of universal rungs n and n-1."""
    ch, n = state.channel, state.n
    below = tower_image(ch, n - 1) if n else QsPolynomial.zero_poly(state.psi_minus.zero)
    return state.psi_plus == tower_image(ch, n) and state.psi_minus == below


def _refuse_foreign_window(state: LadderState) -> None:
    """The one guard of every row function: any other window is refused."""
    if not holds_universal_window(state):
        raise AssertionError(f"rung {state.n} window is not the image of the universal tower")


def _rows_at(state: LadderState, w: Quadratic):
    """Both radial rows of a ladder window at w, with w^2 = w.d, on shell
    or off.

    Before reduction a row is A + B w + C w^2, `universal_rows(n)` holds
    A + B w + C W0 with W0 = tau^2 + n(n + 2s), and C is decided to be
    pi_(n-1), whose image is psi_minus. So at w the row is the image of
    the universal row plus psi_minus (w^2 - W0), lifted into Q(s)(w)."""
    _refuse_foreign_window(state)
    ch, n = state.channel, state.n
    zero = w * 0   # the zero of w's field, its modulus decided when w was built
    gap = w.d - tower_gap(ch, n) - ch.tau * ch.tau
    minus = () if gap.is_zero else [c * gap for c in state.psi_minus.coeffs]
    lift = QsPolynomial.from_coeffs(minus, zero)
    return _reports(_TAGS, [_channel_image(row, ch, w, zero) + lift if row else lift
                            for row in universal_rows(n)])


def first_order_residual(state: LadderState):
    """Both rows of the coupled system on the state's window, on shell;
    exact zeros.

    A channel decides one relation in Q(s): w^2 = tau^2 + n(n + 2s), read
    off the modulus of `exact_w`, is the image of the universal relation.
    Then the rows are the image of `universal_rows(n)` (`_rows_at`): zero
    for n >= 1, and at n = 0 (-(tau + |tau|), tau + |tau|)."""
    return _rows_at(state, exact_w(state.channel, state.n))


def detuned_first_order(state: LadderState):
    """Negative control: the first-order rows, on-shell names kept, at
    w^2 = W = `params.off_shell_w2`; off shell both must be exactly nonzero.

    `universal_rows(n)` is zero for n >= 1, so each row is psi_minus times
    W - tau^2 - n(n + 2s), an element of Q(s), lifted into Q(s)(w)
    (`_rows_at`). Its verdict is DETUNE w^2 != 0 together with
    pi_(n-1) != 0."""
    if state.n < 1:
        raise DomainError("detuned control needs n >= 1")
    return _rows_at(state, Quadratic.root(off_shell_w2(state.channel, state.n)))


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
    _refuse_foreign_window(state)
    link = ch.qs(ch.s2 - Fraction(1, 4) - ch.xi)
    rows = [state.psi_plus.scale(link), state.psi_minus.scale(link)]
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
    names that as gram_n_max. Each rung's radial rows are the image of the
    universal rows (`first_order_residual`), its split rows are read off
    them (`second_order_residual`), and so is the detuned control
    (`detuned_first_order`): no row lifts the window or embeds E, so any
    precision decides them, and a printed max_abs embeds no decided zero. The su(1,1)
    structure relations and the two Casimir routes are not sampled here:
    they are decided once per process on a generic family member
    (`algebra.universal_images`), which covers every channel, mode and
    degree, so `commutators_exact` and `casimir_routes_agree` report that
    decision.

    inject_off_shell deliberately swaps one state's first-order residuals
    for their detuned counterparts, so a healthy reporting path must flag
    the run as failed; with n_max < 1 there is no such state to swap.
    """
    if inject_off_shell and n_max < 1:
        raise DomainError("inject_off_shell needs n_max >= 1: no rung below 1 "
                          "has a detuned control")
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
