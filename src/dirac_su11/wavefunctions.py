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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .params import (DEFAULT_PRECISION, _GUARD, SCHEMA_TAG, Channel,
                     DomainError, SpectralPoint, exact_w, mp_str,
                     spectral_point, tower_gap, tower_w2)
from .qsfield import (_EMBED_GUARD_BITS, QsPolynomial, Quadratic, horner_mp,
                      positive_root_count)
from .ladder import LadderState, square_moment, tower_image
from .algebra import field_moment, gamma_factor, moment_sum


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


def tower_window(state: LadderState, w2: Quadratic, w: Quadratic):
    """(pi_n, -(w + tau) pi_{n-1}) lifted into Q(s)[w] with w^2 = w2; the
    minus half is zero at n = 0."""
    zero = Quadratic.zero(w2)
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
    f, g = radial_parts(*tower_window(state, tower_w2(ch, n), exact_w(ch, n)))
    prec = state.precision
    level = spectral_point(ch, n, prec)
    with mp.workprec(prec + _GUARD):
        c2 = ch.params.c2_mp(prec + _GUARD)
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


def norm_integral(pair: RadialPair) -> mp.mpf:
    """int (F^2 + G^2) d rho for the pair as scaled, carrying precision +
    guard bits, by the route normalize skips: f and g squared in Q(s)[w],
    their exact moments embedded once each."""
    prec = pair.state.precision
    ff, gg = (moment_sum(p * p, pair.channel, prec, shift=1)
              for p in (pair.f_poly, pair.g_poly))
    with mp.workprec(prec + _GUARD):
        return pair.f_scale ** 2 * ff + pair.g_scale ** 2 * gg


# -- Laguerre route ------------------------------------------------------------


def laguerre_poly(channel: Channel, n: int) -> QsPolynomial:
    """L_n^{(2s)}(2 rho) over Q(s): the image of universal rung n, which is
    decided equal to n! L_n by the three-term recurrence, over n!."""
    if n < 0:
        raise DomainError("Laguerre degree must be nonnegative")
    return tower_image(channel, n).scale(Fraction(1, math.factorial(n)))


@dataclass(frozen=True, slots=True)
class LaguerreReport:
    """The Laguerre scalars of the two window halves and the coupled linear
    system tying them; pi_n = n! L_n^{(2s)}(2 rho) itself is decided once
    per rung in ladder."""

    n: int
    alpha: str                      # 2s as an exact field element, printed
    scalar_ratio_plus: str          # psi_plus / L_n, exact (integer n!)
    scalar_ratio_minus: str         # psi_minus / L_{n-1} in the tower
    a: str                          # Laguerre scalar of psi_plus
    b: str                          # Laguerre scalar of psi_minus
    consistency_residual: mp.mpf    # coupling rows evaluated at (a, b)
    rows_exact_zero: bool
    det_on_shell_exact_zero: bool
    eliminated_energy_residual: mp.mpf  # |E from elimination - E| / c^2
    off_shell_det: mp.mpf           # det with binding detuned by 1e-6: nonzero
    sonine_residual: mp.mpf         # Gamma(2s+n+1)/Gamma(2s+1) vs prod (2s+k)


def _coupling_rows(channel: Channel, n: int, a: Quadratic, b: Quadratic):
    """Rows of the linear system relating the two Laguerre scalars:

        (n + 2s) a + (w - tau) b = 0
        (w + tau) a + n b        = 0

    Its determinant n(n+2s) - (w^2 - tau^2) vanishes identically on shell.
    """
    w = exact_w(channel, n)
    tau = channel.qs(channel.tau)
    two_s = channel.s * 2
    row1 = a * channel.qs(n) + a * two_s + (w - tau) * b
    row2 = (w + tau) * a + b * n
    return row1, row2


def laguerre_cross_check(state: LadderState,
                         level: Optional[SpectralPoint] = None) -> LaguerreReport:
    """The Laguerre report of a state; its float level is computed unless
    the caller already holds it."""
    ch = state.channel
    n = state.n
    prec = state.precision
    if n < 1:
        raise DomainError("cross check needs n >= 1 so both scalars exist")
    if level is None:
        level = spectral_point(ch, n, prec)
    E = level.E
    w2 = tower_w2(ch, n)

    # the scalars of psi_plus = n! L_n and psi_minus = -(w+tau)(n-1)! L_{n-1};
    # pi_n = n! L_n^{(2s)}(2 rho) is decided in ladder._decide_rung
    a_scalar = Quadratic.of(ch.qs(math.factorial(n)), d=w2)
    b_scalar = small_component_scalar(ch, n) * math.factorial(n - 1)

    row1, row2 = _coupling_rows(ch, n, a_scalar, b_scalar)
    rows_zero = row1.is_zero and row2.is_zero
    with mp.workprec(prec + _GUARD):
        resid = max(abs(row1.embed(prec + _GUARD)), abs(row2.embed(prec + _GUARD)))

    # determinant: exact zero on shell, nonzero off shell
    tau, s = ch.tau, ch.s
    gap = tower_gap(ch, n)
    det_zero = (gap - (w2 - ch.qs(tau * tau))).is_zero

    with mp.workprec(prec + _GUARD):
        c2 = ch.params.c2_mp(prec + _GUARD)
        zeta = mp.mpf(ch.zeta.numerator) / ch.zeta.denominator
        tau_emb = mp.mpf(tau.numerator) / tau.denominator
        s_emb = s.embed(prec + _GUARD)
        # eliminate: w^2 = tau^2 + n(n+2s) -> E = c^2 (s+n)/w
        w_elim = mp.sqrt(gap.embed(prec + _GUARD) + tau_emb ** 2)
        e_elim = c2 * (s_emb + n) / w_elim
        e_resid = abs(e_elim - E) / c2
        # off shell: w from a perturbed energy no longer satisfies the system;
        # detune the binding, not E itself, so E stays inside (0, c^2) even
        # when the level is much closer to the continuum than the detuning
        e_off = c2 + (E - c2) * (1 + mp.mpf(10) ** -6)
        w_off = zeta * c2 / mp.sqrt((c2 - e_off) * (c2 + e_off))
        det_off = gap.embed(prec + _GUARD) - (w_off ** 2 - tau_emb ** 2)
        # Sonine scalar: the n-th iterate of the classical derivative formula
        sonine = mp.gamma(2 * s_emb + n + 1) / mp.gamma(2 * s_emb + 1)
        prod = mp.mpf(1)
        for k in range(1, n + 1):
            prod *= 2 * s_emb + k
        sonine_resid = abs(sonine - prod) / prod

    with mp.workprec(prec):
        return LaguerreReport(
            n=n,
            alpha=str(ch.s * 2),
            scalar_ratio_plus=str(math.factorial(n)),
            scalar_ratio_minus=str(small_component_scalar(ch, n)),
            a=str(a_scalar),
            b=str(b_scalar),
            consistency_residual=+resid,
            rows_exact_zero=rows_zero,
            det_on_shell_exact_zero=det_zero,
            eliminated_energy_residual=+e_resid,
            off_shell_det=+det_off,
            sonine_residual=+sonine_resid,
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
        "consistency_residual": mp_str(report.consistency_residual, precision),
        "rows_exact_zero": report.rows_exact_zero,
        "det_on_shell_exact_zero": report.det_on_shell_exact_zero,
        "eliminated_energy_residual": mp_str(report.eliminated_energy_residual, precision),
        "off_shell_det": mp_str(report.off_shell_det, precision),
        "sonine_residual": mp_str(report.sonine_residual, precision),
    }


# -- sampling and node counting -------------------------------------------------


def _cancelled_bits(pair: RadialPair, embedded, top) -> float:
    """About how many bits Horner's rule loses on f or g over (0, top],
    from their embedded coefficients.

    At rho the pass rounds at the scale of sum_k |c_k| rho^k, against a
    largest value of p rho^s e^{-rho} that is smaller by the bits it
    loses. Each weighted term |c_k| rho^(k+s) e^{-rho} peaks at
    rho = k + s, and the largest value is about the root mean square over
    (0, top], whose square is Gamma(2s)/2^(2s) B / top for f and for g
    alike (module docstring), less a tail beyond top that is negligible.
    On (80, 5/2, +1) it reads 36.6 bits at n = 20 and 106.5 at n = 64,
    where the losses measured against 1024 bits are 33 and 103."""
    ch = pair.channel
    s = float(ch.s.embed(53))
    scale = (_log2(gamma_factor(ch, pair.state.precision))
             + _log2(norm_bracket(ch, pair.n).embed(53)) - math.log2(top)) / 2
    lost = 0.0
    for coeffs in embedded:
        terms = [_log2(c) + (k + s) * (math.log2(k + s) - math.log2(math.e))
                 for k, c in enumerate(coeffs) if c]
        peak = max(terms)
        lost = max(lost, peak + math.log2(sum(2 ** (t - peak) for t in terms)) - scale)
    return lost


def _log2(x: mp.mpf) -> float:
    """log2 |x| of a nonzero mpf, to within one, whatever its exponent."""
    man, exp = x.man_exp
    return exp + abs(man).bit_length()


def sample(pair: RadialPair, count: int = 400) -> RadialPair:
    """Evaluate (F, G) on a geometric grid from rho = 1/1000 to
    5 (n + s + 1); returns a pair carrying samples. Both polynomials are
    embedded once, as eval_mp would at every point. Horner's rule has
    precision + 40 bits; at deep rungs, where the coefficients cancel more
    (`_cancelled_bits`), it gains the bits they take beyond that, so each
    sample is good to the precision relative to the largest."""
    if count < 2:
        raise DomainError("need at least two sample points")
    prec = pair.state.precision
    ch = pair.channel
    with mp.workprec(prec):
        top = 5 * (pair.n + ch.s.embed(prec) + 1)
    horner = prec + _GUARD
    polys = (pair.f_poly, pair.g_poly)
    embedded = [poly.embed_coeffs(horner + _EMBED_GUARD_BITS) for poly in polys]
    extra = math.ceil(_cancelled_bits(pair, embedded, top)) - _GUARD - _EMBED_GUARD_BITS
    if extra > 0:
        horner += extra
        embedded = [poly.embed_coeffs(horner + _EMBED_GUARD_BITS) for poly in polys]
    f_emb, g_emb = embedded
    rows = []
    with mp.workprec(prec + _GUARD):
        lo = mp.mpf(1) / 1000
        ratio = (top / lo) ** (mp.mpf(1) / (count - 1))
        s_emb = ch.s.embed(prec + _GUARD)
        for i in range(count):
            rho = lo * ratio ** i
            weight = mp.power(rho, s_emb) * mp.exp(-rho)
            fv = pair.f_scale * weight * horner_mp(f_emb, rho, horner)
            gv = pair.g_scale * weight * horner_mp(g_emb, rho, horner)
            with mp.workprec(prec):
                rows.append((+rho, +fv, +gv))
    return replace(pair, samples=tuple(rows))


def count_f_nodes(pair: RadialPair) -> int:
    """Distinct positive zeros of F, exactly; the weight rho^s e^{-rho}
    never vanishes. The float estimate that proposes the separating points
    runs at the state's precision."""
    return positive_root_count(pair.f_poly, pair.state.precision)
