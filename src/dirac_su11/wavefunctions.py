"""Physical radial wavefunctions assembled from tower states.

The two radial components of a bound state are built from the adjacent
tower polynomials (pi_n, pi_{n-1}) of the state's window:

    F(rho) = sqrt(c^2 + E) (psi_minus + psi_plus) rho^s e^{-rho}
    G(rho) = sqrt(c^2 - E) (psi_minus - psi_plus) rho^s e^{-rho}

with psi_plus = pi_n and psi_minus = -(w + tau) pi_{n-1}, where
w = sqrt((s+n)^2 + zeta^2) solves w^2 - tau^2 = n (n + 2s). The relative
scalar lives in the quadratic tower Q(s)[w], so both polynomial parts stay
exact; the only floating numbers are the overall scales sqrt(c^2 +- E)
and the level E they come from, both kept on the pair by `assemble`.

For n = 0 the small combination collapses to -pi_0, giving the closed-form
ratio G/F = -sqrt((c^2-E)/(c^2+E)) of the lowest physical state.

Normalization uses the radial measure d rho, under which the weight of
F^2 and G^2 is rho^{2s} e^{-2 rho}: the weight of the Laguerre polynomials
L^{(2s)}(2 rho) (DLMF 18.3). Since f = m + p and g = m - p with p = pi_n
and m = -(w + tau) pi_{n-1}, orthogonality kills the cross moment
M[pi_n pi_{n-1}], and for scales a and b

    a^2 M[f^2] + b^2 M[g^2] = (a^2 + b^2) Gamma(2s)/2^{2s} B,
    B = n!(2s)_{n+1}/2 + (w + tau)^2 (n-1)!(2s)_n/2,

with B one exact element of Q(s)[w] and every term positive, so nothing
cancels. `normalize` embeds B once; the constant it finds is stored on the
pair, separate from the ket normalizer of the phase-averaged product,
which the state derives. `orthogonality_exact` decides the three moments
this takes from orthogonality on the state's own window, in Q(s).

`sample` runs the Laguerre recurrence on Python ints in fixed point and
weights each grid point with one exp; its docstring bounds the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath as mp
from mpmath.libmp import (from_man_exp, mpf_add, mpf_exp, mpf_mul, mpf_mul_int, mpf_pos,
                          mpf_pow_int, mpf_shift, mpf_sub, round_nearest, to_int)

from .params import (DEFAULT_PRECISION, _GUARD, SCHEMA_TAG, Channel,
                     DomainError, SpectralPoint, exact_w, max_abs_embedded,
                     mp_str, off_shell_w2, spectral_point, tower_gap)
from .qsfield import QsPolynomial, Quadratic, _sign_variations, embed_fraction
from .ladder import LadderState, square_moment
from .algebra import field_moment, gamma_factor


@dataclass(frozen=True, slots=True)
class RadialPair:
    """Exact polynomial parts, float level and overall scales of (F, G)."""

    state: LadderState
    f_poly: QsPolynomial  # tower coefficients, weight rho^s e^{-rho} implied
    g_poly: QsPolynomial
    level: SpectralPoint
    f_scale: mp.mpf
    g_scale: mp.mpf
    samples: Optional[tuple] = None
    norm_constant: Optional[mp.mpf] = None  # set by normalize

    @property
    def channel(self) -> Channel:
        return self.state.channel

    @property
    def n(self) -> int:
        return self.state.n


def small_component_scalar(channel: Channel, n: int) -> Quadratic:
    """-(w + tau): the exact ratio psi_minus / pi_{n-1} of a bound state."""
    return -(exact_w(channel, n) + channel.qs(channel.tau))


def tower_window(state: LadderState, w: Quadratic):
    """(pi_n, -(w + tau) pi_{n-1}) lifted into Q(s)[w] with w^2 = w.d; the
    minus half is zero at n = 0."""
    zero = Quadratic.zero(w.d)
    tau = state.channel.qs(state.channel.tau)
    return (QsPolynomial.from_coeffs(state.psi_plus.coeffs, zero),
            QsPolynomial.from_coeffs(state.psi_minus.coeffs, zero).scale(-(w + tau)))


def radial_parts(plus: QsPolynomial, minus: QsPolynomial):
    """(f, g) = (minus + plus, minus - plus): the polynomial parts of (F, G)
    from a tower window."""
    return minus + plus, minus - plus


def assemble(state: LadderState, allow_unphysical: bool = False) -> RadialPair:
    """Radial pair of a tower state; the bottom rung with tau > 0 solves the
    coupled system only formally and is refused unless explicitly allowed."""
    if not state.is_physical and not allow_unphysical:
        raise DomainError(
            "bottom rung with tau > 0 is not a bound state; "
            "pass allow_unphysical=True to assemble it anyway")
    ch = state.channel
    n = state.n
    f, g = radial_parts(*tower_window(state, exact_w(ch, n)))
    prec = state.precision
    level = spectral_point(ch, n, prec)
    with mp.workprec(prec + _GUARD):
        c2 = embed_fraction(ch.params.c2, prec + _GUARD)
        if level.E >= c2:
            # 0 < E < c^2 is decided exactly in params.check_level; only the
            # embedding can round E up to c^2
            raise DomainError(f"E rounds to c^2 or above at {prec} bits, "
                              "so sqrt(c^2 - E) needs a higher precision")
        fs = mp.sqrt(c2 + level.E)
        # c^2 - E is -binding, which spectral_point computes without the
        # cancellation of subtracting E from c^2
        gs = mp.sqrt(-level.binding)
    with mp.workprec(prec):
        fs, gs = +fs, +gs
    return RadialPair(state, f, g, level, fs, gs)


def norm_bracket(channel: Channel, n: int) -> Quadratic:
    """B = M[pi_n^2] + (w + tau)^2 M[pi_{n-1}^2] in Q(s)[w], with M the
    shift-1 field moment: the field moment of f^2, and that of g^2."""
    w = exact_w(channel, n)
    out = Quadratic.of(square_moment(channel, n, 1), d=w.d)
    if n:
        lift = w + channel.qs(channel.tau)
        out = out + lift * lift * square_moment(channel, n - 1, 1)
    return out


def normalize(pair: RadialPair) -> RadialPair:
    """Fix the overall constant so int (F^2 + G^2) d rho = 1.

    The integral is (f_scale^2 + g_scale^2) Gamma(2s)/2^(2s) B, from the
    closed form of the module docstring. Returns a pair whose scales carry
    the constant, which records it in norm_constant.
    """
    prec = pair.state.precision
    ch = pair.channel
    bracket = norm_bracket(ch, pair.n)
    with mp.workprec(prec + _GUARD):
        total = ((pair.f_scale ** 2 + pair.g_scale ** 2) * gamma_factor(ch, prec)
                 * bracket.embed(prec + _GUARD))
        const = 1 / mp.sqrt(total)
    with mp.workprec(prec):
        const = +const
        return replace(pair, norm_constant=const,
                       f_scale=+(pair.f_scale * const),
                       g_scale=+(pair.g_scale * const))


def orthogonality_exact(state: LadderState) -> bool:
    """Decide in Q(s), on the state's window, the shift-1 field moments
    that normalize takes from Laguerre orthogonality:
    M[pi_n^2] = n!(2s)_{n+1}/2, the same at n - 1, and M[pi_n pi_{n-1}] = 0."""
    ch, n, plus, minus = state.channel, state.n, state.psi_plus, state.psi_minus
    squares = ((plus, n), (minus, n - 1)) if n else ((plus, n),)
    return (all(field_moment(half * half, ch, 1) == square_moment(ch, k, 1)
                for half, k in squares)
            and field_moment(plus * minus, ch, 1).is_zero)


# -- Laguerre route ------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class LaguerreReport:
    """The Laguerre scalars of the two window halves and the coupled linear
    system tying them, all exact; pi_n = n! L_n^{(2s)}(2 rho) itself is
    decided once per rung in ladder."""

    n: int
    alpha: str                      # 2s as an exact field element, printed
    scalar_ratio_plus: str          # a, psi_plus / L_n: n! on a bound state
    scalar_ratio_minus: str         # b/(n-1)!: -(w + tau) on a bound state
    a: str                          # Laguerre scalar of psi_plus
    b: str                          # Laguerre scalar of psi_minus
    coupling_rows: tuple            # both rows at (a, b), in Q(s)[w]
    det_on_shell_exact_zero: bool
    off_shell_det_nonzero: bool     # det at params.off_shell_w2

    @property
    def rows_exact_zero(self) -> bool:
        return all(row.is_zero for row in self.coupling_rows)


def _coupling_rows(channel: Channel, n: int, w: Quadratic, a: Quadratic, b: Quadratic):
    """Rows of the linear system relating the two Laguerre scalars:

        (n + 2s) a + (w - tau) b = 0
        (w + tau) a + n b        = 0

    Its determinant n(n+2s) - (w^2 - tau^2) vanishes identically on shell.
    """
    tau = channel.qs(channel.tau)
    two_s = channel.s * 2
    row1 = a * channel.qs(n) + a * two_s + (w - tau) * b
    row2 = (w + tau) * a + b * n
    return row1, row2


def laguerre_cross_check(state: LadderState) -> LaguerreReport:
    """The Laguerre report of a state, every verdict decided in Q(s) or its
    tower. The scalars are read off the window lifted to w (`tower_window`):
    a and b are its halves' leading coefficients over that of
    L_k^(2s)(2 rho), (-2)^k/k!, at k = n and n - 1, and the ratio strings
    are a (its rational part if that is all of it) and b/(n-1)!. On a
    bound state's window a = n! and b = -(w + tau)(n-1)!, so row 2 is
    identically zero and row 1 is (n-1)! times the determinant, which
    decides what eliminating w from the system would give for E. Nothing
    is embedded here: `report_to_dict` prints the rows' magnitude."""
    ch = state.channel
    n = state.n
    if n < 1:
        raise DomainError("cross check needs n >= 1 so both scalars exist")
    w = exact_w(ch, n)
    # pi_n = n! L_n^{(2s)}(2 rho) is decided in ladder._decide_rung
    a_scalar, b_scalar = (half.leading * Fraction(math.factorial(k), (-2) ** k)
                          for half, k in zip(tower_window(state, w), (n, n - 1)))

    # the determinant n(n+2s) + tau^2 - w^2: zero on shell, nonzero detuned
    shell = tower_gap(ch, n) + ch.tau * ch.tau
    return LaguerreReport(
        n=n,
        alpha=str(ch.s * 2),
        scalar_ratio_plus=str(a_scalar.a.a if a_scalar.b.is_zero and a_scalar.a.b == 0
                              else a_scalar),
        scalar_ratio_minus=str(b_scalar * Fraction(1, math.factorial(n - 1))),
        a=str(a_scalar),
        b=str(b_scalar),
        coupling_rows=_coupling_rows(ch, n, w, a_scalar, b_scalar),
        det_on_shell_exact_zero=(shell - w.d).is_zero,
        off_shell_det_nonzero=not (shell - off_shell_w2(ch, n)).is_zero,
    )


def report_to_dict(report: LaguerreReport, precision: int = DEFAULT_PRECISION) -> dict:
    return {
        "schema": SCHEMA_TAG,
        "kind": "laguerre-report",
        "n": report.n,
        "alpha": report.alpha,
        "scalar_ratio_plus": report.scalar_ratio_plus,
        "scalar_ratio_minus": report.scalar_ratio_minus,
        "a": report.a,
        "b": report.b,
        "consistency_residual": mp_str(max_abs_embedded(report.coupling_rows, precision),
                                       precision),
        "rows_exact_zero": report.rows_exact_zero,
        "det_on_shell_exact_zero": report.det_on_shell_exact_zero,
        "off_shell_det_nonzero": report.off_shell_det_nonzero,
    }


# -- sampling and node counting -------------------------------------------------


def sample(pair: RadialPair, count: int = 400) -> RadialPair:
    """Evaluate (F, G) on a geometric grid from rho = 1/1000 to
    5 (n + s + 1); returns a pair carrying samples. Being geometric, the
    grid gives the weight rho^s e^{-rho} as one exp of s log rho - rho,
    with log rho_i = log lo + i log ratio. At each point the Laguerre
    recurrence the ladder decides per rung, stable forward on the grid,

        pi_{k+1} = (2k + 1 + 2s - 2 rho) pi_k - k(k + 2s) pi_{k-1},

    runs on Python ints. With work = precision + _GUARD, a_k, b_k and
    2 rho are ints A_k, B_k, R at F = work + 16 fractional bits (2s is
    rounded once: within 1/2, k/2 and 1/2 units), and (pi_k, pi_{k-1}) =
    (P, Q) 2^e; a step is P, Q = ((A_k - R) P - B_k Q) >> F, P, and when P
    outgrows W = work + 8 bits both are floored to W bits. A unit 2^e is
    then at most 2^(1-W) of the largest |pi_j| so far, and a step errs by
    under 1 + (2 + k) 2^(W-F-1) < 2 units (k < 64), a rescale by 1 more:
    2^-(work+5) of that value, less than an mpf recurrence at work bits
    errs by (four roundings a step, relative to products up to
    b_k |pi_{k-1}|), which _GUARD covers. (P, Q) is rounded once to work
    bits, and the window halves are (pi_n, c pi_{n-1}) with c = -(w + tau)
    embedded once. rho, its weight and (F, G) run on raw tuples at work bits
    by the libmp calls of mpmath's operators, and round once to precision."""
    if count < 2:
        raise DomainError("need at least two sample points")
    prec = pair.state.precision
    ch, n = pair.channel, pair.n
    work, rnd = prec + _GUARD, round_nearest
    width, frac = work + 8, work + 16
    with mp.workprec(prec):
        top = 5 * (n + ch.s.embed(prec) + 1)
    with mp.workprec(work):
        lo = mp.mpf(1) / 1000
        ratio = (top / lo) ** (mp.mpf(1) / (count - 1))
        log_lo, log_ratio = mp.log(lo)._mpf_, mp.log(ratio)._mpf_
    lo, ratio, s_emb = lo._mpf_, ratio._mpf_, ch.s.embed(work)._mpf_
    two_s = to_int(mpf_shift(ch.s.embed(frac + 16)._mpf_, frac + 1), rnd)
    steps = [(((2 * k + 1) << frac) + two_s, ((k * k) << frac) + k * two_s)
             for k in range(n)]
    scalar = small_component_scalar(ch, n).embed(work)._mpf_
    rows = []
    for i in range(count):
        rho = mpf_mul(lo, mpf_pow_int(ratio, i, work, rnd), work, rnd)
        log_rho = mpf_add(log_lo, mpf_mul_int(log_ratio, i, work, rnd), work, rnd)
        weight = mpf_exp(mpf_sub(mpf_mul(s_emb, log_rho, work, rnd), rho, work, rnd), work, rnd)
        r = to_int(mpf_shift(rho, frac + 1), rnd)
        p, q, e = 1 << (width - 1), 0, 1 - width
        for a, b in steps:
            p, q = ((a - r) * p - b * q) >> frac, p
            excess = p.bit_length() - width
            if excess > 0:
                p, q, e = p >> excess, q >> excess, e + excess
        plus = from_man_exp(p, e, work, rnd)
        minus = mpf_mul(scalar, from_man_exp(q, e, work, rnd), work, rnd)
        f, g = mpf_add(minus, plus, work, rnd), mpf_sub(minus, plus, work, rnd)
        fv = mpf_mul(mpf_mul(pair.f_scale._mpf_, weight, work, rnd), f, work, rnd)
        gv = mpf_mul(mpf_mul(pair.g_scale._mpf_, weight, work, rnd), g, work, rnd)
        rows.append(tuple(mp.make_mpf(mpf_pos(x, prec, rnd)) for x in (rho, fv, gv)))
    return replace(pair, samples=tuple(rows))


def count_f_nodes(pair: RadialPair) -> int:
    """Distinct positive zeros of F, exactly; the weight rho^s e^{-rho}
    never vanishes.

    In y = 2 rho, p_k = (-1)^k pi_k is monic, and the ladder's recurrence
    reads p_{k+1} = (y - a_k) p_k - b_k p_{k-1} with a_k = 2k + 1 + 2s and
    b_k = k(k + 2s) > 0: p_k is the characteristic polynomial of the
    leading k x k block of a Jacobi matrix J. A polynomial of degree n in
    the span of pi_n and pi_{n-1}, as f is, is a multiple of
    p_n + r p_{n-1}, the characteristic polynomial of J with its last
    diagonal entry moved by -r; that one is monic, so its sign at 0 is the
    sign of f(0) times that of f's leading coefficient. Its zeros are
    simple, and the sign changes of p_0(0), ..., p_{n-1}(0) and that sign,
    zeros skipped, count those in y > 0 (Wilkinson, The Algebraic
    Eigenvalue Problem, 1965, 5.37-5.39). Every sign is decided in Q(s)
    or its tower."""
    ch, f = pair.channel, pair.f_poly
    at_zero, below = ch.qs(1), ch.qs(0)  # pi_k(0) and pi_{k-1}(0)
    signs = []
    for k in range(pair.n):
        signs.append((-1) ** k * at_zero.sign())
        at_zero, below = ch.qs(2 * k + 1, 2) * at_zero - tower_gap(ch, k) * below, at_zero
    signs.append(f.coeff(0).sign() * f.leading.sign())
    return _sign_variations(signs)
