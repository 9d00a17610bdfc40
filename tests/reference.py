"""Reference routes that only the tests use, shared by them.

`norm_integral` is the route `wavefunctions.normalize` skips: it squares
the polynomial parts, where normalize takes the integral from Laguerre
orthogonality.
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
