"""Reference routes that only the tests use, shared by them.

`norm_integral` is the route `wavefunctions.normalize` skips: it squares
the polynomial parts, where normalize takes the integral from Laguerre
orthogonality. `embedded_gram` turns the exact Gram entries of
`verify.orthonormality_matrix` into numbers for a float comparison.
"""

import mpmath as mp

from dirac_su11.algebra import moment_sum
from dirac_su11.params import _GUARD


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
