"""The float edge on raw libmp tuples against its mpmath-operator form.

`spectral_point`, `diagonality_scan` and `sample` compute on raw tuples
by the libmp calls that mpmath's operators make under workprec. Their
values and printed strings must equal those of the operator forms in
`reference` at every precision, not only at the default one the golden
digests pin.
"""

import random
from fractions import Fraction

from dirac_su11 import wavefunctions as wf
from dirac_su11.jloperator import diagonality_scan
from dirac_su11.ladder import build_state
from dirac_su11.params import channel_slots, make_params, mp_str, spectral_point

from reference import jl_coefficients_mp, sample_rows_mp, spectral_point_mp

ZS = (1, 57, 80, 118)
NS = (0, 1, 3, 20)
PRECISIONS = (53, 64, 113, 256)


def printed(values, precision):
    """Each value as printed, and as the value itself: a bit that the
    printed digits drop still counts."""
    return [(mp_str(v, precision), v) for v in values]


def test_raw_float_edge_prints_the_operator_forms():
    rng = random.Random(3301)
    for Z in ZS:
        params = make_params(Z=Z)
        for prec in PRECISIONS:
            # the scan reads every slot n <= 20 of every channel j <= 5/2
            for r in diagonality_scan(params, Fraction(5, 2), NS[-1], prec):
                assert (printed((r.coeff_minus, r.coeff_plus), prec)
                        == printed(jl_coefficients_mp(r.channel, r.n, prec), prec)), (Z, prec)
        for ch, _ in channel_slots(params, Fraction(5, 2), 0):
            for n in NS:
                for prec in PRECISIONS:
                    where = (Z, str(ch.j), ch.eps, n, prec)
                    if ch.is_bound(n):
                        pt = spectral_point(ch, n, prec)
                        assert (printed((pt.E, pt.binding, pt.eps_j), prec)
                                == printed(spectral_point_mp(ch, n, prec), prec)), where
                    count = rng.choice((2, 7, 30))
                    pair = wf.normalize(wf.assemble(build_state(ch, n, prec),
                                                    allow_unphysical=True))
                    got = wf.sample(pair, count).samples
                    assert ([printed(row, prec) for row in got]
                            == [printed(row, prec) for row in sample_rows_mp(pair, count)]), where
