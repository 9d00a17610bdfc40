"""Generator identities on the weighted polynomial family.

Expected values here are either operator-independent scalars derived by
hand reduction (mode gaps, Gamma moment ratios) or structural facts
(exact zero residuals); nothing is read back from the code under test.
"""

from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from dirac_su11.params import make_params, make_channel
from dirac_su11 import algebra as al

PARAMS = make_params(Z=1)
CH = make_channel(PARAMS, Fraction(1, 2), -1)

# five channels spanning both signs of tau and a heavy nucleus
CHANNELS = [
    make_channel(make_params(Z=1), Fraction(1, 2), -1),
    make_channel(make_params(Z=1), Fraction(1, 2), 1),
    make_channel(make_params(Z=30), Fraction(3, 2), -1),
    make_channel(make_params(Z=80), Fraction(3, 2), 1),
    make_channel(make_params(Z=80), Fraction(5, 2), -1),
]


def member(ch, offset, coeffs):
    return al.family(ch, offset, coeffs)


small_rational = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6)


@st.composite
def family_members(draw):
    ch = CHANNELS[draw(st.integers(0, len(CHANNELS) - 1))]
    offset = draw(st.integers(-3, 6))
    deg = draw(st.integers(0, 4))
    coeffs = [draw(small_rational) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[-1] = Fraction(1)
    return member(ch, offset, coeffs)


class TestCommutators:
    @settings(max_examples=120, deadline=None)
    @given(family_members(), st.sampled_from(al.COMMUTATORS))
    def test_structure_relations_exact(self, f, pair):
        assert al.commutator_check(f, pair).is_zero

    def test_all_six_on_fixed_grid(self):
        # >= 100 family members over >= 5 channels, every relation exact
        count = 0
        for ch in CHANNELS:
            for offset in (-2, 0, 1, 3):
                for coeffs in ([1], [0, 1], [2, -3, 1], [1, 0, 0, Fraction(5, 3)],
                               [Fraction(-1, 2), 4], [3, 1, 1]):
                    f = member(ch, offset, coeffs)
                    count += 1
                    for pair in al.COMMUTATORS:
                        assert al.commutator_check(f, pair).is_zero
        assert count >= 100

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            al.commutator_check(member(CH, 0, [1]), "++")


class TestCasimir:
    @settings(max_examples=60, deadline=None)
    @given(family_members())
    def test_composed_equals_explicit(self, f):
        F = al.FamilySum.from_function(f)
        assert (al.casimir_composed(F) - al.casimir_explicit(F)).is_zero

    def test_tower_members_are_eigenfunctions(self):
        for ch in CHANNELS:
            xi = ch.qs(ch.xi)
            f = member(ch, 0, [1])  # bottom of the tower
            for _ in range(4):
                scaled = al.apply_casimir(f)
                assert (scaled.scale.re - xi).is_zero
                assert scaled.scale.im.is_zero
                f = al.apply_xi_plus(f).func

    def test_generic_member_is_not_eigenfunction(self):
        g = member(CH, 0, [0, 1])  # rho alone at the lowest mode
        scaled = al.apply_casimir(g)
        assert (scaled.scale.re - CH.qs(1)).is_zero
        assert not (scaled.func.poly - g.poly.scale(CH.qs(CH.xi))).is_zero

    def test_eigenvalue_is_s_squared_minus_quarter(self):
        # xi = j(j+1) - zeta^2 must equal s^2 - 1/4 - one identity, two routes
        for ch in CHANNELS:
            assert ch.qs(ch.xi) == ch.s * ch.s - Fraction(1, 4)


class TestModeBookkeeping:
    def test_annihilation_at_lowest_weight(self):
        for ch in CHANNELS:
            bottom = member(ch, 0, [1])
            assert al.apply_xi_minus(bottom).func.is_zero

    def test_up_then_down_scalar(self):
        # Xi-^k Xi+^k on rung m: product over steps of (m+1)(m+2s+1) etc.
        ch = CHANNELS[2]
        f = member(ch, 0, [1])
        rungs = [f]
        for k in range(4):
            rungs.append(al.apply_xi_plus(rungs[-1]).func)
        for start in range(2):
            for k in range(1, 3):
                F = al.FamilySum.from_function(rungs[start])
                for _ in range(k):
                    F = al.xi_plus(F)
                for _ in range(k):
                    F = al.xi_minus(F)
                expect = ch.qs(1)
                for m in range(start, start + k):
                    expect = expect * (ch.qs(m + 1) * (ch.qs(m + 1) + ch.s * 2))
                assert expect.sign() > 0
                resid = F - al.FamilySum.from_function(rungs[start]).scaled(expect)
                assert resid.is_zero

    def test_xi3_measures_mode(self):
        f = member(CH, 5, [2, 1])
        out = al.apply_xi3(f)
        assert (out.scale.re - (CH.lam + 5)).is_zero
        assert out.func == f

    def test_mode_shift_is_plus_minus_one(self):
        f = member(CH, 2, [1, 1])
        assert al.apply_xi_plus(f).func.offset == 3
        assert al.apply_xi_minus(f).func.offset == 1

    def test_channel_mixing_rejected(self):
        a = al.FamilySum.from_function(member(CHANNELS[0], 0, [1]))
        b = al.FamilySum.from_function(member(CHANNELS[2], 0, [1]))
        with pytest.raises(ValueError):
            a + b


class TestInnerProduct:
    def test_cross_mode_is_exact_integer_zero(self):
        f = member(CH, 0, [1, 2, 3])
        g = member(CH, 1, [5, 1])
        val = al.inner_product(f, g, 128)
        assert isinstance(val, int) and val == 0

    def test_lowest_moment_value(self):
        # <1, 1> = Gamma(2s)/2^(2s); frozen oracle value for the j=1/2 channel
        # computed independently from s = sqrt(1 - zeta^2 ... ) at Z=1
        with mp.workprec(200):
            s = CH.s.embed(200)
            expect = mp.gamma(2 * s) / mp.power(2, 2 * s)
            got = al.inner_product(member(CH, 0, [1]), member(CH, 0, [1]), 200)
            assert abs(got - expect) < mp.mpf(2) ** -180

    def test_moments_follow_s_not_the_channel_labels(self):
        # a channel with the same (c, Z, j, eps) but another s^2 must not
        # be served the cached moments of the first
        other = replace(CH, s2=CH.s2 + Fraction(1, 10), xi=CH.xi + Fraction(1, 10))
        one = member(CH, 0, [1])
        al.inner_product(one, one, 200)
        with mp.workprec(200):
            s = other.s.embed(200)
            expect = mp.gamma(2 * s) / mp.power(2, 2 * s)
            unit = member(other, 0, [1])
            got = al.inner_product(unit, unit, 200)
            assert abs(got - expect) < mp.mpf(2) ** -180

    def test_same_mode_via_moment_recurrence(self):
        # <rho^2, rho> at one mode = M_3 = M_0 (2s)(2s+1)(2s+2)/8
        with mp.workprec(160):
            s2 = CH.s.embed(192) * 2
            m0 = mp.gamma(s2) / mp.power(2, s2)
            expect = m0 * s2 * (s2 + 1) * (s2 + 2) / 8
            got = al.inner_product(member(CH, 4, [0, 0, 1]), member(CH, 4, [0, 1]), 160)
            assert abs(got - expect) < mp.mpf(2) ** -140

    def test_adjointness_of_the_pair(self):
        # <Xi+ f, g> = <f, Xi- g> including phases, at several modes
        for ch in CHANNELS[:3]:
            f = member(ch, 1, [1, -2])
            g = member(ch, 2, [3, 1, 1])
            lhs = al.inner_product_sums(
                al.FamilySum.from_scaled(al.apply_xi_plus(f)),
                al.FamilySum.from_function(g), 192)
            rhs = al.inner_product_sums(
                al.FamilySum.from_function(f),
                al.FamilySum.from_scaled(al.apply_xi_minus(g)), 192)
            with mp.workprec(192):
                assert abs(lhs - rhs) < mp.mpf(2) ** -(192 // 4)

    def test_xi1_xi2_hermitian(self):
        f = member(CH, 1, [1, 1])
        g = member(CH, 1, [0, 2, -1])
        for op in (al.xi1, al.xi2):
            lhs = al.inner_product_sums(op(al.FamilySum.from_function(f)),
                                        al.FamilySum.from_function(g), 192)
            rhs = al.inner_product_sums(al.FamilySum.from_function(f),
                                        op(al.FamilySum.from_function(g)), 192)
            with mp.workprec(192):
                assert abs(lhs - rhs) < mp.mpf(2) ** -(192 // 4)

    def test_expectation_of_xi_plus_xi_minus_is_mode_gap(self):
        # on rung n the scalar is n(n+2s) > 0: exact in the algebra
        ch = CHANNELS[3]
        f = member(ch, 0, [1])
        for n in range(1, 5):
            f = al.apply_xi_plus(f).func
            F = al.FamilySum.from_function(f)
            gap = ch.qs(n * n, 2 * n)
            assert gap.sign() > 0
            assert (al.xi_plus(al.xi_minus(F)) - F.scaled(gap)).is_zero

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            al.inner_product(member(CHANNELS[0], 0, [1]),
                             member(CHANNELS[2], 0, [1]))


class TestGaussScalars:
    def test_i_squared(self):
        i = al.gauss_i(CH)
        assert (i * i + 1).is_zero

    def test_conjugation_and_embed(self):
        z = al.gauss(CH, Fraction(1, 3), -2)
        zz = z * z.conjugate()
        assert zz.im.is_zero
        with mp.workprec(64):
            assert abs(z.embed(64) - mp.mpc(mp.mpf(1) / 3, -2)) < mp.mpf(2) ** -60
