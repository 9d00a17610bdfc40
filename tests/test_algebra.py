"""Generator identities on the weighted polynomial family.

Expected values here are either operator-independent scalars derived by
hand reduction (mode gaps, Gamma moment ratios) or structural facts
(exact zero residuals); nothing is read back from the code under test.
The structure relations are decided once on a generic family member;
the per-channel tests check their images over Q(s), in the real form of
`channel_images`.
"""

import copy
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from dirac_su11.params import make_params, make_channel
from dirac_su11 import algebra as al
from dirac_su11 import ladder as ld

from channel_images import COMMUTATORS, member, residual, word

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

MONOMIAL = {(0, 0): {(0, 0, 0, 0): 1}}   # rho^i at mode lambda + k


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


def pair(a, b):
    """The inner product extended to sums, each a list of family members."""
    with mp.workprec(224):
        return mp.fsum(al.inner_product(f, g, 224) for f in a for g in b)


class TestUniversalDecision:
    def test_images_on_the_monomial(self):
        # the hand-reduced images: Xi+ rho^i = I[(i+2s+k+1) rho^i - 2 rho^(i+1)],
        # Xi- rho^i = I(i-k) rho^i, 2 Xi3 = 2s+2k+1, and 4 x the Casimir
        # (4(i+s)^2 - 1) rho^i + 8(k-i) rho^(i+1); keys (I, i, s, k)
        images = al.universal_images()
        assert images["+"] == {(1, 0): {(1, 1, 0, 0): 1, (1, 0, 1, 0): 2,
                                        (1, 0, 0, 1): 1, (1, 0, 0, 0): 1},
                               (1, 1): {(1, 0, 0, 0): -2}}
        assert images["-"] == {(-1, 0): {(1, 1, 0, 0): 1, (1, 0, 0, 1): -1}}
        assert images["3"] == {(0, 0): {(0, 0, 1, 0): 2, (0, 0, 0, 1): 2, (0, 0, 0, 0): 1}}
        assert images["casimir"] == {
            (0, 0): {(0, 2, 0, 0): 4, (0, 1, 1, 0): 8, (0, 0, 2, 0): 4, (0, 0, 0, 0): -1},
            (0, 1): {(0, 1, 0, 0): -8, (0, 0, 0, 1): 8}}

    def test_decided_once_per_process(self, monkeypatch):
        monkeypatch.setattr(al, "_IMAGES", {})
        calls = []
        real = al._words

        def counting(terms, image):
            calls.append(terms)
            return real(terms, image)

        monkeypatch.setattr(al, "_words", counting)
        first = al.universal_images()
        decided = len(calls)
        assert decided >= len(al.RELATIONS)
        assert al.universal_images() is first
        assert len(calls) == decided

    def test_import_does_not_decide(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import dirac_su11.cli, dirac_su11.algebra as al, dirac_su11.ladder as ld;"
             "print(len(al._IMAGES), len(ld._TOWER))"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]

    def test_wrong_sign_of_k_in_xi_minus_fails_plus_minus(self, monkeypatch):
        monkeypatch.setattr(al, "_IMAGES", {})
        monkeypatch.setitem(al.GENERATORS, "-", (-1, 1, {0: (1, 0, 1, 0)}))
        with pytest.raises(AssertionError, match=r"relation \+- fails"):
            al.universal_images()
        assert al._IMAGES == {}

    def test_wrong_sign_of_rho_in_xi_plus_fails_the_casimir_routes(self, monkeypatch):
        # the commutators cannot see this flip; only the Casimir routes do
        monkeypatch.setattr(al, "_IMAGES", {})
        monkeypatch.setitem(al.GENERATORS, "+", (1, 1, {0: (1, 2, 1, 1), 1: (0, 0, 0, 2)}))
        for tag in COMMUTATORS:
            assert al._words(al.RELATIONS[tag], MONOMIAL) == {}
        with pytest.raises(AssertionError, match="relation Casimir routes fails"):
            al.universal_images()

    def test_ladder_steps_are_the_decided_images(self, monkeypatch):
        # a bad table fails before any universal rung is raised from it
        monkeypatch.setattr(al, "_IMAGES", {})
        monkeypatch.setattr(ld, "_TOWER", [])
        monkeypatch.setitem(al.GENERATORS, "-", (-1, 1, {0: (1, 0, 1, 0)}))
        with pytest.raises(AssertionError, match=r"relation \+- fails"):
            ld.universal_rung(3)
        assert ld._TOWER == []


def sparse(poly: dict) -> dict:
    """An element of the universal layer as {(i, k, t, e): c}, its nonzero
    terms c rho^i s^k tau^t w^e."""
    return {(i, k, t, e): c for (k, t, e), coeffs in poly.items()
            for i, c in enumerate(coeffs) if c}


def in_normal_form(poly: dict) -> bool:
    return all(coeffs and coeffs[-1] for coeffs in poly.values())


class TestUniversalLayer:
    @pytest.mark.parametrize("seed", range(40))
    def test_comb_is_the_sparse_sum_in_normal_form(self, seed):
        # comb against a sum over sparse terms, on inputs with zeros, empty
        # lists and trailing zeros; every other seed adds each term again,
        # negated, so the sum cancels to the empty dict
        rng = random.Random(seed)

        def element():
            return {(rng.randrange(3), rng.randrange(3), rng.randrange(3)):
                    [rng.randint(-3, 3) for _ in range(rng.randrange(5))]
                    for _ in range(rng.randrange(4))}

        terms = [(rng.randint(-4, 4), tuple(rng.randrange(3) for _ in range(4)), element())
                 for _ in range(rng.randrange(1, 6))]
        if seed % 2:
            terms += [(-c, shift, poly) for c, shift, poly in reversed(terms)]
        before = copy.deepcopy(terms)
        expected: dict = {}
        for c, (i, k, t, e), poly in terms:
            for (m, a, b, d), v in sparse(poly).items():
                key = (m + i, a + k, b + t, d + e)
                expected[key] = expected.get(key, 0) + c * v
        got = al.comb(*terms)
        assert sparse(got) == {key: v for key, v in expected.items() if v}
        assert in_normal_form(got)
        assert terms == before
        if seed % 2:
            assert got == {}

    @pytest.mark.parametrize("seed", range(20))
    def test_trim_keeps_the_terms_in_normal_form(self, seed):
        rng = random.Random(seed)
        poly = {(k, 0, 0): [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(rng.randrange(6))]
                for k in range(rng.randrange(1, 5))}
        terms = sparse(poly)
        trimmed = al.trim(poly)
        assert sparse(trimmed) == terms
        assert in_normal_form(trimmed)


class TestCommutators:
    @settings(max_examples=120, deadline=None)
    @given(family_members(), st.sampled_from(COMMUTATORS))
    def test_structure_relations_exact(self, f, tag):
        assert residual(tag, f) == {}

    def test_all_six_on_fixed_grid(self):
        # >= 100 family members over >= 5 channels, every relation exact
        count = 0
        for ch in CHANNELS:
            for offset in (-2, 0, 1, 3):
                for coeffs in ([1], [0, 1], [2, -3, 1], [1, 0, 0, Fraction(5, 3)],
                               [Fraction(-1, 2), 4], [3, 1, 1]):
                    f = member(ch, offset, coeffs)
                    count += 1
                    for tag in COMMUTATORS:
                        assert residual(tag, f) == {}
        assert count >= 100

    def test_unknown_tag_rejected(self):
        with pytest.raises(KeyError):
            al.apply("++", member(CH, 0, [1]))


class TestCasimir:
    @settings(max_examples=60, deadline=None)
    @given(family_members())
    def test_composed_equals_explicit(self, f):
        assert residual("Casimir routes", f) == {}

    def test_tower_members_are_eigenfunctions(self):
        for ch in CHANNELS:
            xi = ch.qs(ch.xi)
            f = member(ch, 0, [1])  # bottom of the tower
            for _ in range(4):
                scaled = al.apply_casimir(f)
                assert scaled.scale == xi
                assert scaled.func == f
                f = al.apply("+", f)

    def test_generic_member_is_not_eigenfunction(self):
        g = member(CH, 0, [0, 1])  # rho alone at the lowest mode
        scaled = al.apply_casimir(g)
        assert scaled.scale == CH.qs(1)
        assert not (scaled.func.poly - g.poly.scale(CH.qs(CH.xi))).is_zero

    def test_eigenvalue_is_s_squared_minus_quarter(self):
        # xi = j(j+1) - zeta^2 must equal s^2 - 1/4 - one identity, two routes
        for ch in CHANNELS:
            assert ch.qs(ch.xi) == ch.s * ch.s - Fraction(1, 4)


class TestModeBookkeeping:
    def test_annihilation_at_lowest_weight(self):
        for ch in CHANNELS:
            bottom = member(ch, 0, [1])
            assert al.apply("-", bottom).is_zero

    def test_up_then_down_scalar(self):
        # Xi-^k Xi+^k on rung m: product over steps of (m+1)(m+2s+1) etc.;
        # in real parts that is I^(2k) M^k P^k = (-1)^k M^k P^k
        ch = CHANNELS[2]
        rungs = [member(ch, 0, [1])]
        for k in range(4):
            rungs.append(al.apply("+", rungs[-1]))
        for start in range(2):
            for k in range(1, 3):
                g = word("M" * k + "P" * k, rungs[start])
                expect = ch.qs(1)
                for m in range(start, start + k):
                    expect = expect * (ch.qs(m + 1) * (ch.qs(m + 1) + ch.s * 2))
                assert expect.sign() > 0
                assert g.offset == start
                assert (g.poly - rungs[start].poly.scale(expect * (-1) ** k)).is_zero

    def test_xi3_measures_mode(self):
        f = member(CH, 5, [2, 1])
        out = al.apply("3", f)  # 2 Xi3
        assert out.offset == 5
        assert (out.poly - f.poly.scale((CH.lam + 5) * 2)).is_zero

    def test_mode_shift_is_plus_minus_one(self):
        f = member(CH, 2, [1, 1])
        assert al.apply("+", f).offset == 3
        assert al.apply("-", f).offset == 1

    def test_channel_mixing_rejected(self):
        a = al.apply("+", member(CHANNELS[0], 0, [1]))
        b = member(CHANNELS[2], 1, [1])
        with pytest.raises(ValueError):
            a.poly + b.poly


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
        # <Xi+ f, g> = <f, Xi- g> with the first slot conjugated; with
        # Xi+ = I P and Xi- = I M that is <P f, g> + <f, M g> = 0
        for ch in CHANNELS[:3]:
            f = member(ch, 1, [1, -2])
            g = member(ch, 2, [3, 1, 1])
            lhs = al.inner_product(al.apply("+", f), g, 192)
            rhs = al.inner_product(f, al.apply("-", g), 192)
            with mp.workprec(192):
                assert abs(lhs) > 1e-3
                assert abs(lhs + rhs) < mp.mpf(2) ** -(192 // 4)

    def test_xi1_xi2_hermitian(self):
        # 2 Xi1 = I(P + M) and 2 Xi2 = P - M are Hermitian: the real sums
        # P + M and P - M are anti-Hermitian and Hermitian; f and g one
        # mode apart, so the pairings do not vanish mode by mode
        f = member(CH, 1, [1, 1])
        g = member(CH, 2, [0, 2, -1])
        pf, mf = al.apply("+", f), al.apply("-", f)
        pg, mg = al.apply("+", g), al.apply("-", g)
        with mp.workprec(192):
            tol = mp.mpf(2) ** -(192 // 4)
            assert abs(pair([pf, mf], [g])) > 1e-3
            assert abs(pair([pf, mf], [g]) + pair([f], [pg, mg])) < tol
            minus_mf = replace(mf, poly=-mf.poly)
            minus_mg = replace(mg, poly=-mg.poly)
            assert abs(pair([pf, minus_mf], [g]) - pair([f], [pg, minus_mg])) < tol

    def test_expectation_of_xi_plus_xi_minus_is_mode_gap(self):
        # on rung n the scalar is n(n+2s) > 0: exact in the algebra, and
        # Xi+ Xi- = -P M in real parts
        ch = CHANNELS[3]
        f = member(ch, 0, [1])
        for n in range(1, 5):
            f = al.apply("+", f)
            gap = ch.qs(n * n, 2 * n)
            assert gap.sign() > 0
            assert (word("PM", f).poly + f.poly.scale(gap)).is_zero

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError):
            al.inner_product(member(CHANNELS[0], 0, [1]),
                             member(CHANNELS[2], 0, [1]))
