"""Reference routes that only the tests use, shared by them.

`norm_integral` is the route `wavefunctions.normalize` skips: it squares
the polynomial parts, where normalize takes the integral from Laguerre
orthogonality. `embedded_gram` turns the exact Gram entries of
`verify.orthonormality_matrix` into numbers for a float comparison.
`window_rows` is the route `verify` reads off the universal rows: it lifts
a window to w and reads the first-order table `verify._SYSTEM` there.
`spectral_point_mp`, `jl_coefficients_mp` and `sample_rows_mp` are the
float edge in mpmath's operators under workprec, the form whose bits
`params.spectral_point`, `jloperator.diagonality_scan` and
`wavefunctions.sample` reproduce on raw libmp tuples.
"""

from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_shift, round_nearest, to_int

from dirac_su11 import verify
from dirac_su11.algebra import moment_sum
from dirac_su11.params import _GUARD, exact_w
from dirac_su11.qsfield import QsPolynomial, embed_fraction
from dirac_su11.wavefunctions import radial_parts, small_component_scalar, tower_window


def norm_integral(pair) -> mp.mpf:
    """int (F^2 + G^2) d rho for the pair as scaled, carrying precision +
    guard bits: f and g squared in Q(s)[w], their exact moments embedded
    once each."""
    prec = pair.state.precision
    ff, gg = (moment_sum(p * p, pair.channel, prec, shift=1)
              for p in (pair.f_poly, pair.g_poly))
    with mp.workprec(prec + _GUARD):
        return pair.f_scale ** 2 * ff + pair.g_scale ** 2 * gg


def embedded_gram(gram, precision: int) -> list:
    """The Gram entries with each field element embedded at precision bits;
    the integer zeros off the diagonal stay integers."""
    return [[x if isinstance(x, int) else x.embed(precision) for x in row] for row in gram]


def window_rows(state, w) -> list:
    """Both rows of `verify._SYSTEM`, read at call time, on the state's
    window lifted to w (w^2 = w.d): polynomials over Q(s)(w), for any
    window and any w."""
    ch, n = state.channel, state.n
    f, g = radial_parts(*tower_window(state, w))
    values = {"1": 1, "n": n, "tau": ch.qs(ch.tau), "s": ch.s, "w": w}
    parts = {"f": f, "g": g, "f'": f.derivative(), "g'": g.derivative()}
    rows = []
    for _, terms in verify._SYSTEM:
        row = QsPolynomial.zero_poly(f.zero)
        for part, power, form in terms:
            c = sum(a * values[x] for x, a in form.items())
            row = row + parts[part].mul_rho(power).scale(c)
        rows.append(row)
    return rows


def spectral_point_mp(channel, n, precision):
    """(E, binding, eps_j) of rung n, each rounded once to precision."""
    work = precision + _GUARD
    with mp.workprec(work):
        c2 = embed_fraction(channel.params.c2, work)
        zeta = embed_fraction(channel.zeta, work)
        sn = channel.s.embed(work) + n
        w = mp.sqrt(sn * sn + zeta * zeta)
        E = c2 * sn / w
        binding = -c2 * zeta * zeta / (w * (sn + w))
        eps_j = embed_fraction(channel.j + Fraction(1, 2), work) - (sn - n)
    with mp.workprec(precision):
        return +E, +binding, +eps_j


def jl_coefficients_mp(channel, n, precision):
    """zeta(1 - tau/w) and zeta(1 + tau/w) at w = exact_w(channel, n)."""
    work = precision + _GUARD
    zeta, tau = embed_fraction(channel.zeta, work), embed_fraction(channel.tau, work)
    with mp.workprec(work):
        ratio = tau / exact_w(channel, n).embed(work)
        minus, plus = zeta * (1 - ratio), zeta * (1 + ratio)
    with mp.workprec(precision):
        return +minus, +plus


def sample_rows_mp(pair, count):
    """The (rho, F, G) rows of `wavefunctions.sample`, each point's float
    steps in mpmath's operators, on the same integer recurrence."""
    prec = pair.state.precision
    ch, n = pair.channel, pair.n
    work = prec + _GUARD
    width, frac = work + 8, work + 16
    with mp.workprec(prec):
        top = 5 * (n + ch.s.embed(prec) + 1)
    rows = []
    with mp.workprec(work):
        lo = mp.mpf(1) / 1000
        ratio = (top / lo) ** (mp.mpf(1) / (count - 1))
        s_emb = ch.s.embed(work)
        log_lo, log_ratio = mp.log(lo), mp.log(ratio)
        two_s = to_int(mpf_shift(ch.s.embed(frac + 16)._mpf_, frac + 1), round_nearest)
        steps = [(((2 * k + 1) << frac) + two_s, ((k * k) << frac) + k * two_s)
                 for k in range(n)]
        scalar = small_component_scalar(ch, n).embed(work)
        for i in range(count):
            rho = lo * ratio ** i
            weight = mp.exp(s_emb * (log_lo + i * log_ratio) - rho)
            r = to_int(mpf_shift(rho._mpf_, frac + 1), round_nearest)
            p, q, e = 1 << (width - 1), 0, 1 - width
            for a, b in steps:
                p, q = ((a - r) * p - b * q) >> frac, p
                excess = p.bit_length() - width
                if excess > 0:
                    p, q, e = p >> excess, q >> excess, e + excess
            plus, minus = (mp.make_mpf(from_man_exp(x, e, work, round_nearest)) for x in (p, q))
            f, g = radial_parts(plus, scalar * minus)
            fv = pair.f_scale * weight * f
            gv = pair.g_scale * weight * g
            with mp.workprec(prec):
                rows.append((+rho, +fv, +gv))
    return rows
