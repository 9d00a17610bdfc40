"""Physical radial wavefunctions assembled from tower states.

The two radial components of a bound state are built from the adjacent
tower polynomials (pi_n, pi_{n-1}) of the state's window:

    F(rho) = sqrt(c^2 + E) (psi_minus + psi_plus) rho^s e^{-rho}
    G(rho) = sqrt(c^2 - E) (psi_minus - psi_plus) rho^s e^{-rho}

with psi_plus = pi_n and psi_minus = -(w + tau) pi_{n-1}, where
w = sqrt((s+n)^2 + zeta^2) solves w^2 - tau^2 = n (n + 2s). The relative
scalar lives in the quadratic tower Q(s)[w], so both polynomial parts stay
exact; the only floating numbers are the overall scales sqrt(c^2 +- E).

For n = 0 the small combination collapses to -pi_0, giving the closed-form
ratio G/F = -sqrt((c^2-E)/(c^2+E)) of the lowest physical state.

Normalization uses the radial measure d rho,

    int_0^inf rho^{2s+m} e^{-2 rho} d rho = Gamma(2s+1+m) / 2^{2s+1+m},

so that A^2 [ (c^2+E) M[f^2] + (c^2-E) M[g^2] ] = 1 fixes the physical
constant; it is stored on the state, separate from the ket normalizer of
the phase-averaged product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .params import (DEFAULT_PRECISION, _GUARD, SCHEMA_TAG, Channel,
                     DomainError, mp_str, tower_gap, tower_w2)
from .qsfield import (_EMBED_GUARD_BITS, QsPolynomial, Quadratic, horner_mp,
                      positive_root_count)
from .ladder import LadderState, tower_image, with_norm_constant
from .algebra import moment_sum


@dataclass(frozen=True, slots=True)
class RadialPair:
    """Exact polynomial parts and floating overall scales of (F, G)."""

    state: LadderState
    f_poly: QsPolynomial  # tower coefficients, weight rho^s e^{-rho} implied
    g_poly: QsPolynomial
    f_scale: mp.mpf
    g_scale: mp.mpf
    samples: Optional[tuple] = None
    moments: Optional[tuple] = None  # (M[f^2], M[g^2]) of the parts, set by normalize

    @property
    def channel(self) -> Channel:
        return self.state.channel

    @property
    def n(self) -> int:
        return self.state.n


def exact_w(channel: Channel, n: int) -> Quadratic:
    """The positive root of w^2 = (s+n)^2 + zeta^2 as a tower element.

    At n = 0 the radicand is the perfect square tau^2 and the quotient ring
    Q(s)[w]/(w^2 - tau^2) has zero divisors, so the symbol form would make
    structural zero tests lie; there w is stored by its value |tau|.
    """
    w2 = tower_w2(channel, n)
    if n == 0:
        return Quadratic.of(channel.qs(abs(channel.tau)), d=w2)
    return Quadratic.root(w2)


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


def assemble(state: LadderState, allow_unphysical: bool = False) -> RadialPair:
    """Radial pair of a tower state; the bottom rung with tau > 0 solves the
    coupled system only formally and is refused unless explicitly allowed."""
    if not state.is_physical and not allow_unphysical:
        raise DomainError(
            "bottom rung with tau > 0 is not a bound state; "
            "pass allow_unphysical=True to assemble it anyway")
    ch = state.channel
    n = state.n
    plus, minus = tower_window(state, tower_w2(ch, n), exact_w(ch, n))
    prec = state.spectral.precision
    with mp.workprec(prec + _GUARD):
        c2 = ch.params.c2_mp(prec + _GUARD)
        if state.spectral.E >= c2:
            # 0 < E < c^2 is decided exactly in spectral_point; only the
            # embedding can round E up to c^2
            raise DomainError(f"E rounds to c^2 or above at {prec} bits, "
                              "so sqrt(c^2 - E) needs a higher precision")
        fs = mp.sqrt(c2 + state.spectral.E)
        # c^2 - E is -binding, which spectral_point computes without the
        # cancellation of subtracting E from c^2
        gs = mp.sqrt(-state.spectral.binding)
    with mp.workprec(prec):
        fs, gs = +fs, +gs
    return RadialPair(
        state=state,
        f_poly=minus + plus,
        g_poly=minus - plus,
        f_scale=fs,
        g_scale=gs,
    )


def normalize(pair: RadialPair) -> RadialPair:
    """Fix the overall constant so int (F^2 + G^2) d rho = 1.

    Returns a pair whose scales carry the constant, whose state records
    it in norm_constant, and which keeps the moments of f^2 and g^2.
    """
    prec = pair.state.spectral.precision
    pair = replace(pair, moments=_square_moments(pair))
    total = norm_integral(pair)
    with mp.workprec(prec + _GUARD):
        if total <= 0:
            raise DomainError("normalization integral must be positive")
        const = 1 / mp.sqrt(total)
    with mp.workprec(prec):
        const = +const
        new_state = with_norm_constant(pair.state, const)
        return replace(pair, state=new_state,
                       f_scale=+(pair.f_scale * const),
                       g_scale=+(pair.g_scale * const))


def _square_moments(pair: RadialPair) -> tuple:
    """(M[f^2], M[g^2]) under the radial measure d rho: each polynomial part
    squared exactly once."""
    prec = pair.state.spectral.precision
    return tuple(moment_sum(p * p, pair.channel, prec, shift=1)
                 for p in (pair.f_poly, pair.g_poly))


def norm_integral(pair: RadialPair) -> mp.mpf:
    """int (F^2 + G^2) d rho for the pair as scaled, carrying precision +
    guard bits; reuses the moments a normalized pair keeps."""
    prec = pair.state.spectral.precision
    ff, gg = _square_moments(pair) if pair.moments is None else pair.moments
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


def laguerre_cross_check(state: LadderState) -> LaguerreReport:
    ch = state.channel
    n = state.n
    prec = state.spectral.precision
    if n < 1:
        raise DomainError("cross check needs n >= 1 so both scalars exist")
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
        e_resid = abs(e_elim - state.spectral.E) / c2
        # off shell: w from a perturbed energy no longer satisfies the system;
        # detune the binding, not E itself, so E stays inside (0, c^2) even
        # when the level is much closer to the continuum than the detuning
        e_off = c2 + (state.spectral.E - c2) * (1 + mp.mpf(10) ** -6)
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


def sample(pair: RadialPair, count: int = 400) -> RadialPair:
    """Evaluate (F, G) on a geometric grid from rho = 1/1000 to
    5 (n + s + 1); returns a pair carrying samples. Both polynomials are
    embedded once, as eval_mp would at every point."""
    if count < 2:
        raise DomainError("need at least two sample points")
    prec = pair.state.spectral.precision
    ch = pair.channel
    with mp.workprec(prec):
        top = 5 * (pair.n + ch.s.embed(prec) + 1)
    rows = []
    with mp.workprec(prec + _GUARD):
        lo = mp.mpf(1) / 1000
        ratio = (top / lo) ** (mp.mpf(1) / (count - 1))
        s_emb = ch.s.embed(prec + _GUARD)
        f_emb, g_emb = (poly.embed_coeffs(prec + _GUARD + _EMBED_GUARD_BITS)
                        for poly in (pair.f_poly, pair.g_poly))
        for i in range(count):
            rho = lo * ratio ** i
            weight = mp.power(rho, s_emb) * mp.exp(-rho)
            fv = pair.f_scale * weight * horner_mp(f_emb, rho, prec + _GUARD)
            gv = pair.g_scale * weight * horner_mp(g_emb, rho, prec + _GUARD)
            with mp.workprec(prec):
                rows.append((+rho, +fv, +gv))
    return replace(pair, samples=tuple(rows))


def count_f_nodes(pair: RadialPair) -> int:
    """Distinct positive zeros of F, exactly; the weight rho^s e^{-rho}
    never vanishes. The float estimate that proposes the separating points
    runs at the state's precision."""
    return positive_root_count(pair.f_poly, pair.state.spectral.precision)
