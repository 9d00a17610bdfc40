"""Tower construction, the su(1,1) gaps of the ladder, ket normalization."""

import math
from dataclasses import fields, replace
from fractions import Fraction

import mpmath as mp
import pytest

from dirac_su11.params import make_params, make_channel, DomainError
from dirac_su11.qsfield import QsPolynomial, Quadratic
from dirac_su11 import algebra as al
from dirac_su11 import ladder as ld
from dirac_su11 import verify as vf

P1 = make_params(Z=1)


def reference_climb(channel, n):
    """Rungs 0..n of the per-channel climb in Q(s) that the universal tower
    replaced: each raised by the channel image of Xi+ and checked there for
    its leading coefficient, degree and Casimir eigenvalue."""
    zero = Quadratic.zero(channel.s2)
    polys = [QsPolynomial.from_coeffs([1], zero)]
    for k in range(n + 1):
        if k:
            polys.append(al.apply("+", al.FamilyFunction(channel, k - 1, polys[-1])).poly)
        pi = polys[k]
        assert (pi.leading - channel.qs((-2) ** k)).is_zero and pi.degree == k
        scaled = al.apply_casimir(al.FamilyFunction(channel, k, pi))
        assert scaled.scale == channel.qs(channel.xi)
    return polys


CH = make_channel(P1, Fraction(1, 2), -1)
CH_HEAVY = make_channel(make_params(Z=92), Fraction(3, 2), 1)


class TestConstruction:
    def test_bottom_rung(self):
        g = ld.ground_state(CH)
        assert g.n == 0
        assert g.psi_plus.degree == 0
        assert g.psi_minus.is_zero
        assert not g.psi_plus.is_zero

    def test_degrees_and_leading_signs(self):
        st_ = ld.build_state(CH, 7)
        assert st_.psi_plus.degree == 7
        assert st_.psi_minus.degree == 6
        # leading coefficient (-2)^n: hand value for n=7 is -128
        assert (st_.psi_plus.leading - CH.qs(-128)).is_zero

    def test_explicit_first_rung(self):
        # pi_1 = (1 + 2s) - 2 rho from the closed form of the step map
        st_ = ld.build_state(CH, 1)
        assert (st_.psi_plus.coeff(0) - (CH.qs(1) + CH.s * 2)).is_zero
        assert (st_.psi_plus.coeff(1) - CH.qs(-2)).is_zero

    def test_window_shift(self):
        a = ld.build_state(CH, 4)
        b = ld.raise_state(a)
        assert (b.psi_minus - a.psi_plus).is_zero

    def test_cap(self):
        with pytest.raises(DomainError):
            ld.build_state(CH, ld.MAX_RUNG + 1)
        with pytest.raises(DomainError):
            ld.build_state(CH, -1)

    def test_bad_rung_stops_the_climb(self, monkeypatch):
        # universal rung k is decided before rung k of a channel is built,
        # so a bad universal rung fails with its own message and nothing
        # above it is raised, in Z[s][rho] or in the channel
        monkeypatch.setattr(ld, "_TOWER", [])
        raised, climbed = [], []
        real_universal, real_state = ld._raise_universal, ld.raise_state

        def corrupt(n, poly):
            raised.append(n)
            up = real_universal(n, poly)
            return {key: [3 * c for c in v] for key, v in up.items()} if n + 1 == 2 else up

        def counting(state):
            climbed.append(state.n)
            return real_state(state)

        monkeypatch.setattr(ld, "_raise_universal", corrupt)
        monkeypatch.setattr(ld, "raise_state", counting)
        with pytest.raises(AssertionError, match="universal rung 2 leading coefficient"):
            ld.climb(CH, 6)
        assert raised == [0, 1]
        assert climbed == [0, 1]
        assert len(ld._TOWER) == 2

    @pytest.mark.parametrize("change", ["gain rho^4", "gain s rho^4", "lose rho^3"])
    def test_bad_degree_stops_the_climb(self, monkeypatch, change):
        # the leading check also decides the degree: a rung that gains a
        # term above rho^n, or loses its rho^n term, fails at that rung,
        # and nothing above it is raised
        monkeypatch.setattr(ld, "_TOWER", [])
        raised, climbed = [], []
        real_universal, real_state = ld._raise_universal, ld.raise_state

        def corrupt(n, poly):
            raised.append(n)
            up = real_universal(n, poly)
            if n + 1 != 3:
                return up
            key = (1, 0, 0) if change == "gain s rho^4" else (0, 0, 0)
            coeffs = up[key] + [0] * (4 - len(up[key])) + [5]
            return al.trim({**up, key: up[key][:3] if change == "lose rho^3" else coeffs})

        def counting(state):
            climbed.append(state.n)
            return real_state(state)

        monkeypatch.setattr(ld, "_raise_universal", corrupt)
        monkeypatch.setattr(ld, "raise_state", counting)
        with pytest.raises(AssertionError, match="universal rung 3 leading coefficient"):
            ld.climb(CH, 6)
        assert raised == [0, 1, 2]
        assert climbed == [0, 1, 2]
        assert len(ld._TOWER) == 3

    def test_images_are_kept_for_one_channel(self, monkeypatch):
        # a state from the ladder holds the very image that tower_image
        # returns again; the kept images are one channel's, and a new
        # universal tower has its images built afresh
        monkeypatch.setattr(ld, "_IMAGES", {"channel": None, "rungs": {}})
        state = ld.build_state(CH, 3)
        assert ld.tower_image(CH, 3) is state.psi_plus
        assert ld.tower_image(CH, 2) is state.psi_minus
        ld.tower_image(CH_HEAVY, 1)
        assert ld._IMAGES["channel"] is CH_HEAVY and list(ld._IMAGES["rungs"]) == [1]
        again = ld.tower_image(CH, 3)
        assert again is not state.psi_plus and again == state.psi_plus
        monkeypatch.setattr(ld, "_TOWER", [])
        fresh = ld.tower_image(CH, 3)
        assert fresh is not again and fresh == again

    def test_wrong_mode_fails_the_eigenvalue(self):
        # pi_2 is a Casimir eigenfunction at mode lambda + 2 only; at
        # lambda + 3 both routes still agree, but the value is not
        # (s^2 - 1/4) pi_2
        pi2 = ld.universal_rung(2)
        ld._decide_casimir(2, pi2)
        with pytest.raises(AssertionError, match="rung 3 is not a Casimir eigenstate"):
            ld._decide_casimir(3, pi2)

    def test_bottom_rung_annihilation_is_decided(self, monkeypatch):
        # the window shift reaches n = 0: lowering pi_0 must give zero
        real = ld.universal_map

        def leaky(name, k, poly):
            out = real(name, k, poly)
            return {(0, 0, 0): [1]} if (name, k, out) == ("-", 0, {}) else out

        monkeypatch.setattr(ld, "_TOWER", [])
        monkeypatch.setattr(ld, "universal_map", leaky)
        with pytest.raises(AssertionError, match="universal rung 0 window shift"):
            ld.universal_rung(0)

    def test_laguerre_route_is_decided(self, monkeypatch):
        # a wrong three-term recurrence must fail the rung it reaches first
        monkeypatch.setattr(ld, "_TOWER", [])
        real = ld._laguerre_next
        monkeypatch.setattr(ld, "_laguerre_next", lambda k, cur, prev: ld.comb(
            (1, (0, 0, 0, 0), real(k, cur, prev)), (1, (0, 0, 0, 0), prev)))
        with pytest.raises(AssertionError, match="universal rung 2 is not n! L_n"):
            ld.universal_rung(4)

    def test_shifted_xi_fails_the_link(self):
        # xi must be s^2 - 1/4, the eigenvalue decided in Z[s][rho]
        off = replace(CH, xi=CH.xi + Fraction(1, 100))
        with pytest.raises(AssertionError, match="xi is not s\\^2 - 1/4"):
            ld.climb(off, 3)

    @pytest.mark.parametrize("Z", [1, 80, 118])
    @pytest.mark.parametrize("eps", [-1, 1])
    def test_images_equal_the_channel_climb(self, Z, eps):
        j = {1: Fraction(1, 2), 80: Fraction(5, 2), 118: Fraction(3, 2)}[Z]
        ch = make_channel(make_params(Z=Z), j, eps)
        reference = reference_climb(ch, 20)
        rungs = ld.climb(ch, 20)
        assert [r.psi_plus for r in rungs] == reference
        assert [r.psi_minus for r in rungs[1:]] == reference[:-1]

    def test_universal_tower_is_integral_and_small(self):
        coeffs = [c for row in ld.universal_rung(20).values() for c in row]
        assert all(isinstance(v, int) for v in coeffs)
        assert max(abs(v).bit_length() for v in coeffs) < 80

    def test_state_is_only_its_window(self):
        # no float normalizer is stored: a rung is its exact window
        assert [f.name for f in fields(ld.LadderState)] == [
            "channel", "n", "precision", "psi_plus", "psi_minus"]
        rungs = ld.climb(CH_HEAVY, 5, 192)
        for n in (0, 1, 4):
            assert ld.build_state(CH_HEAVY, n, 192) == rungs[n]


class TestLadderCoefficients:
    def test_operator_route_matches_coefficient_product(self):
        # Xi- Xi+ on rung n scales by (n+1)(n+1+2s) = |C^+|^2 exactly; in
        # real parts Xi- Xi+ = I^2 M P
        for n in range(4):
            f = ld.build_state(CH, n).plus_function()
            gap = ld.tower_gap(CH, n + 1)
            down_up = al.apply("-", al.apply("+", f))
            assert (down_up.poly + f.poly.scale(gap)).is_zero

    def test_expectation_identity_through_rung_ten(self):
        # <Xi+ Xi-> on unit kets: mu(mu-1) - lam(lam-1) = n(n+2s), exact
        for n in range(11):
            f = ld.build_state(CH_HEAVY, n, 128).plus_function()
            gap = ld.tower_gap(CH_HEAVY, n)
            up_down = al.apply("+", al.apply("-", f))
            assert (up_down.poly + f.poly.scale(gap)).is_zero
            mu = CH_HEAVY.lam + n
            lam = CH_HEAVY.lam
            assert (mu * (mu - 1) - lam * (lam - 1) - gap).is_zero


class TestKetNormalization:
    def test_bottom_constant(self):
        # <pi_0, pi_0> = Gamma(2s)/2^(2s) = 1/N_lam^2, N_lam = 2^s / sqrt(Gamma(2s))
        with mp.workprec(200):
            s = CH.s.embed(232)
            expect = mp.gamma(2 * s) / mp.power(2, 2 * s)
            f = ld.ground_state(CH, 200).plus_function()
            assert abs(al.inner_product(f, f, 200) / expect - 1) < mp.mpf(2) ** -190

    def test_unit_kets_up_the_tower(self):
        # the Gram diagonal of the unit kets is decided exactly 1 in Q(s)
        rungs = ld.climb(CH, 5, 192)
        gram = vf.orthonormality_matrix(rungs, (0, 1, 2, 5))
        assert all(gram[a][a] == CH.qs(1) for a in range(4))

    def test_norm_scalar_closed_form(self):
        # A_n = N_lam / sqrt(n! (2s+1)_n): the square moment that the Gram
        # diagonal divides out is n! (2s+1)_n, built here factor by factor
        n = 4
        poch = CH_HEAVY.qs(1)
        for k in range(n):
            poch = poch * (CH_HEAVY.s * 2 + 1 + k)
        assert ld.square_moment(CH_HEAVY, n) == poch * math.factorial(n)
        assert ld.square_moment(CH_HEAVY, n, 1) == poch * math.factorial(n) * CH_HEAVY.s


class TestLaguerreShape:
    def test_pi_n_is_n_factorial_times_laguerre(self):
        # spot check n = 2 by hand: 2! L_2^(a)(y) = y^2 - 2(a+2) y + (a+1)(a+2)
        # at a = 2s, y = 2 rho
        st2 = ld.build_state(CH, 2)
        a = CH.s * 2
        c0 = (a + 1) * (a + 2)
        c1 = (a + 2) * -4
        c2 = CH.qs(4)
        for k, want in enumerate((c0, c1, c2)):
            assert (st2.psi_plus.coeff(k) - want).is_zero
