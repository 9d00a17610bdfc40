"""Reference routes that only the tests use, shared by them.

`norm_integral` is the route `wavefunctions.normalize` skips: it squares
the polynomial parts, where normalize takes the integral from Laguerre
orthogonality. `embedded_gram` turns the exact Gram entries of
`verify.orthonormality_matrix` into numbers for a float comparison.
`window_rows` is the route `verify` reads off the universal rows: it lifts
a window to w and reads the first-order table `verify._SYSTEM` there.
"""

import mpmath as mp

from dirac_su11 import verify
from dirac_su11.algebra import moment_sum
from dirac_su11.params import _GUARD
from dirac_su11.qsfield import QsPolynomial
from dirac_su11.wavefunctions import radial_parts, tower_window


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
