"""Assembly, normalization, Laguerre equivalence, sampling, node counts."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from dirac_su11.params import (_GUARD, make_params, make_channel, max_abs_embedded,
                               spectral_point, tower_w2, DomainError)
from dirac_su11.qsfield import QsPolynomial, Quadratic, embed_fraction, sturm_positive_roots
from dirac_su11 import ladder as ld
from dirac_su11 import qsfield
from dirac_su11 import wavefunctions as wf
from dirac_su11 import verify as vf
from dirac_su11.algebra import field_moment

from reference import norm_integral

P1 = make_params(Z=1)
CH = make_channel(P1, Fraction(1, 2), -1)
CH_P = make_channel(P1, Fraction(1, 2), 1)
CH_HEAVY = make_channel(make_params(Z=80), Fraction(3, 2), -1)
CH_DEEP = {eps: make_channel(make_params(Z=80), Fraction(5, 2), eps) for eps in (-1, 1)}

HP = 300


def pair_for(ch, n, prec=256):
    return wf.assemble(ld.build_state(ch, n, prec))


class TestTowerScalars:
    def test_w_squared_value(self):
        # w^2 = tau^2 + n^2 + 2ns: components checked directly
        w2 = tower_w2(CH, 3)
        assert w2.a == Fraction(1) + 9
        assert w2.b == 6

    def test_w_at_bottom_is_rational(self):
        w = wf.exact_w(CH, 0)
        assert w.b.is_zero
        assert w.a == CH.qs(Fraction(1))  # |tau| = 1 for j = 1/2

    def test_w_squares_to_w2(self):
        for n in (0, 1, 4):
            w = wf.exact_w(CH_HEAVY, n)
            w2 = tower_w2(CH_HEAVY, n)
            assert (w * w - Quadratic.of(w2, d=w2)).is_zero

    def test_small_component_scalar_vanishes_only_at_physical_bottom(self):
        assert wf.small_component_scalar(CH, 0).is_zero
        assert not wf.small_component_scalar(CH_P, 0).is_zero
        assert not wf.small_component_scalar(CH, 1).is_zero


class TestAssembly:
    def test_refuses_unphysical_without_flag(self):
        state = ld.build_state(CH_P, 0)
        with pytest.raises(DomainError):
            wf.assemble(state)
        assert wf.assemble(state, allow_unphysical=True).n == 0

    def test_ground_component_ratio(self):
        # G/F = -sqrt((c^2-E)/(c^2+E)) for the lowest bound state
        pair = pair_for(CH, 0)
        with mp.workprec(HP):
            f0 = pair.f_poly.coeff(0).embed(HP)
            g0 = pair.g_poly.coeff(0).embed(HP)
            ratio = (pair.g_scale * g0) / (pair.f_scale * f0)
            nu = mp.sqrt(-pair.level.binding / (embed_fraction(CH.params.c2, HP) + pair.level.E))
            assert abs(ratio + nu) < mp.mpf(2) ** -240

    def test_polynomial_degrees(self):
        pair = pair_for(CH, 4)
        assert pair.f_poly.degree == 4
        assert pair.g_poly.degree == 4

    def test_scales_squared(self):
        pair = pair_for(CH_HEAVY, 2)
        pt = pair.level
        with mp.workprec(HP):
            c2 = embed_fraction(CH_HEAVY.params.c2, HP)
            assert abs(pair.f_scale ** 2 - (c2 + pt.E)) < mp.mpf(2) ** -220
            assert abs(pair.g_scale ** 2 - (c2 - pt.E)) < mp.mpf(2) ** -220

    @pytest.mark.parametrize("n", [0, 3, 20])
    def test_g_scale_keeps_every_bit(self, n):
        # g_scale = sqrt(c^2 - E) = sqrt(-binding); c^2 - E with E rounded
        # first loses the leading bits that E and c^2 share: about 14 of
        # 256 at Z = 1 and n = 0, 19 at n = 20, as the binding shrinks
        pair = pair_for(CH, n)
        with mp.workprec(1024):
            exact = mp.sqrt(-spectral_point(CH, n, 1024).binding)
            assert abs(pair.g_scale - exact) <= exact * mp.mpf(2) ** -254


class TestNormalization:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 6))
    def test_unit_integral(self, n):
        pair = wf.normalize(pair_for(CH, n))
        with mp.workprec(256):
            assert abs(norm_integral(pair) - 1) < mp.mpf(2) ** -200

    def test_ground_constant_closed_form(self):
        # constant = [2^s/sqrt(Gamma(2s))] / sqrt(2 c^2 s)
        pair = wf.normalize(pair_for(CH, 0))
        with mp.workprec(HP):
            s = CH.s.embed(HP)
            c2 = embed_fraction(P1.c2, HP)
            expect = mp.power(2, s) / mp.sqrt(mp.gamma(2 * s)) / mp.sqrt(2 * c2 * s)
            assert abs(pair.norm_constant - expect) < mp.mpf(2) ** -230

    def test_norm_constant_recorded(self):
        pair = wf.normalize(pair_for(CH_HEAVY, 1))
        assert pair.norm_constant is not None
        # the returned scales absorb exactly that constant
        raw = pair_for(CH_HEAVY, 1)
        with mp.workprec(256):
            assert abs(pair.f_scale - raw.f_scale * pair.norm_constant) < mp.mpf(2) ** -200

    def test_heavy_channel_unit_integral(self):
        pair = wf.normalize(pair_for(CH_HEAVY, 3))
        with mp.workprec(256):
            assert abs(norm_integral(pair) - 1) < mp.mpf(2) ** -200


class TestLaguerreEquivalence:
    def test_recurrence_against_hypergeometric_oracle(self):
        # L_n^(a)(y) = ((a+1)_n / n!) sum_k (-n)_k / ((a+1)_k k!) y^k,
        # built here directly in Q(s) as an independent route
        for ch in (CH, CH_HEAVY):
            a = ch.s * 2
            for n in range(9):
                got = ld.tower_image(ch, n).scale(Fraction(1, math.factorial(n)))
                poch_an = ch.qs(1)
                for k in range(n):
                    poch_an = poch_an * (a + 1 + k)
                lead = poch_an * Fraction(1, math.factorial(n))
                zero = Quadratic.zero(ch.s2)
                coeffs = []
                for k in range(n + 1):
                    num = ch.qs(1)
                    for i in range(k):
                        num = num * (i - n)  # (-n)_k
                    den = ch.qs(1)
                    for i in range(k):
                        den = den * (a + 1 + i)
                    term = num * den.inverse() * Fraction(1, math.factorial(k))
                    # substitute y = 2 rho
                    coeffs.append(lead * term * Fraction(2 ** k))
                oracle = QsPolynomial.from_coeffs(coeffs, zero)
                assert (got - oracle).is_zero

    def test_cross_check_exact_fields(self):
        for n in (1, 2, 5):
            rep = wf.laguerre_cross_check(ld.build_state(CH, n))
            assert rep.rows_exact_zero
            assert rep.det_on_shell_exact_zero
            assert max_abs_embedded(rep.coupling_rows, 256) == 0
            assert rep.off_shell_det_nonzero is True

    def test_cross_check_needs_excited_state(self):
        with pytest.raises(DomainError):
            wf.laguerre_cross_check(ld.build_state(CH, 0))

    def test_cross_check_decides_the_defining_relation(self):
        # negative control: shift s^2 (and xi = s^2 - 1/4 with it) off
        # tau^2 - zeta^2; the tower stays consistent in s, but w^2 - tau^2
        # is no longer n(n + 2s), and both exact flags must say so
        delta = Fraction(1, 10 ** 6)
        off = replace(CH_HEAVY, s2=CH_HEAVY.s2 + delta, xi=CH_HEAVY.xi + delta)
        rep = wf.laguerre_cross_check(ld.build_state(off, 3))
        assert rep.rows_exact_zero is False
        assert rep.det_on_shell_exact_zero is False
        on = wf.laguerre_cross_check(ld.build_state(CH_HEAVY, 3))
        assert on.rows_exact_zero and on.det_on_shell_exact_zero

    def test_cross_check_reads_the_window(self):
        # the scalars come off the state's own window: with psi_minus
        # scaled by 2, b doubles and both coupling rows are nonzero; the
        # normalization moments say so too, and the first-order rows refuse
        # the window
        state = ld.build_state(CH_HEAVY, 3)
        bad = replace(state, psi_minus=state.psi_minus.scale(2))
        rep = wf.laguerre_cross_check(bad)
        assert rep.rows_exact_zero is False
        assert not any(row.is_zero for row in rep.coupling_rows)
        assert rep.det_on_shell_exact_zero is True
        assert rep.b != wf.laguerre_cross_check(state).b
        with pytest.raises(AssertionError, match="not the image of the universal tower"):
            vf.first_order_residual(bad)
        assert wf.orthogonality_exact(bad) is False

    def test_ratio_strings_read_the_window(self):
        # a correct window prints n! and -(w + tau); psi_minus scaled by 2
        # doubles b/(n-1)!, psi_plus scaled by 2 prints a = 12, and an a
        # with an s-part prints whole
        state = ld.build_state(CH_HEAVY, 3)
        minus = wf.small_component_scalar(CH_HEAVY, 3)
        good = wf.laguerre_cross_check(state)
        assert (good.scalar_ratio_plus, good.scalar_ratio_minus) == ("6", str(minus))
        bad = wf.laguerre_cross_check(replace(state, psi_minus=state.psi_minus.scale(2)))
        assert (bad.scalar_ratio_plus, bad.scalar_ratio_minus) == ("6", str(minus * 2))
        big = wf.laguerre_cross_check(replace(state, psi_plus=state.psi_plus.scale(2)))
        assert (big.scalar_ratio_plus, big.scalar_ratio_minus) == ("12", str(minus))
        tilted = replace(state, psi_plus=state.psi_plus.scale(CH_HEAVY.qs(1, 1)))
        rep = wf.laguerre_cross_check(tilted)
        assert rep.scalar_ratio_plus == rep.a != "6"

    def test_cross_check_embeds_only_nonzero_rows(self, monkeypatch):
        # the report holds the exact rows and embeds nothing; printing it
        # embeds only a nonzero row: on shell nothing, and the residual is
        # 0; off shell row 2 is still identically zero at the window's
        # scalars, so row 1 alone
        delta = Fraction(1, 10 ** 6)
        off = replace(CH_HEAVY, s2=CH_HEAVY.s2 + delta, xi=CH_HEAVY.xi + delta)
        states = [ld.build_state(ch, 3) for ch in (CH_HEAVY, off)]
        embedded = []
        embed = Quadratic.embed

        def spy(self, precision=256):
            embedded.append(self)
            return embed(self, precision)

        monkeypatch.setattr(Quadratic, "embed", spy)
        on, rep = (wf.laguerre_cross_check(state) for state in states)
        assert embedded == []
        assert wf.report_to_dict(on)["consistency_residual"] == "0.0"
        assert embedded == []
        assert mp.mpf(wf.report_to_dict(rep)["consistency_residual"]) > 0
        assert len(embedded) == 1 and not embedded[0].is_zero

    def test_report_dict_roundtrip(self):
        rep = wf.laguerre_cross_check(ld.build_state(CH_HEAVY, 2))
        d = wf.report_to_dict(rep, 128)
        assert d["schema"] == "dirac-su11/1"
        assert d["rows_exact_zero"] is True
        assert d["n"] == 2


class TestSamplingAndNodes:
    def test_node_count_matches_rung(self):
        for n in range(7):
            assert wf.count_f_nodes(pair_for(CH, n, 128)) == n
        # the tau > 0 bottom, assembled anyway: f = pi_0 = 1
        pair = wf.assemble(ld.build_state(CH_P, 0, 128), allow_unphysical=True)
        assert wf.count_f_nodes(pair) == 0

    def test_node_count_heavy(self):
        for n in (0, 2, 4):
            assert wf.count_f_nodes(pair_for(CH_HEAVY, n, 128)) == n

    @pytest.mark.parametrize("eps", [-1, 1])
    def test_deep_node_counts(self, eps):
        # F of an eps = +1 state has one node fewer than its rung index
        rungs = ld.climb(CH_DEEP[eps], 64, 128)
        for n in (5, 12, 20, 64):
            nodes = wf.count_f_nodes(wf.assemble(rungs[n]))
            assert nodes == (n if eps == -1 else n - 1)

    @pytest.mark.parametrize("Z", [1, 80, 118])
    def test_physical_slots_certified_without_sturm(self, Z, monkeypatch):
        # the count is the Sturm sequence of the Laguerre recurrence at
        # rho = 0, so no chain is built; Sturm, which costs 0.3 s a slot at
        # n = 20, checks n <= 8
        fallbacks = []
        monkeypatch.setattr(qsfield, "sturm_positive_roots", fallbacks.append)
        params = make_params(Z=Z)
        for j in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
            for eps in (-1, 1):
                rungs = ld.climb(make_channel(params, j, eps), 20, 128)
                for n in (1, 3, 8, 20):
                    pair = wf.assemble(rungs[n])
                    nodes = wf.count_f_nodes(pair)
                    assert nodes == (n if eps == -1 else n - 1)
                    if n <= 8:
                        assert nodes == sturm_positive_roots(pair.f_poly)
        assert fallbacks == []

    @pytest.mark.parametrize("eps", [-1, 1])
    def test_count_holds_for_any_window_polynomial(self, eps):
        # of f the count reads only the signs of its constant and leading
        # coefficients, so it holds for every degree-n polynomial in the span
        # of pi_n and pi_(n-1); +g, which leads with -(-2)^n, pins the
        # leading-sign factor
        ch = make_channel(make_params(Z=80), Fraction(3, 2), eps)
        rungs = ld.climb(ch, 8, 128)
        for n in range(1, 9):
            pair = wf.assemble(rungs[n])
            plus, below = ld.tower_image(ch, n), ld.tower_image(ch, n - 1)
            for p in (-pair.g_poly, pair.g_poly, plus + below.scale(Fraction(-7, 3)),
                      plus + below.scale(Fraction(1, 5))):
                assert wf.count_f_nodes(replace(pair, f_poly=p)) == sturm_positive_roots(p)

    def test_deep_count_does_no_float_work(self, monkeypatch):
        pair = wf.assemble(ld.build_state(CH_DEEP[1], 64, 256))

        def refuse(*args, **kwargs):
            raise AssertionError("the node count embedded or evaluated a polynomial")

        monkeypatch.setattr(qsfield, "horner_mp", refuse)
        monkeypatch.setattr(qsfield, "polynomial_divmod", refuse)
        monkeypatch.setattr(QsPolynomial, "embed_coeffs", refuse)
        assert wf.count_f_nodes(pair) == 63

    def test_deep_samples_equal_pointwise_eval_mp(self):
        # at the far end pi_64 ~ (2 rho)^64 is some 2^600 times pi_0, so the
        # integer pass's kept width rescales over and over; there, and at
        # 53 bits, eval_mp's monomial Horner pass loses more bits to
        # cancellation than the guard holds and gets `extra` bits more
        count = 40
        for ch, n, prec, extra in ((CH_HEAVY, 20, 128, 0), (CH_DEEP[1], 64, 256, 256),
                                   (CH_DEEP[-1], 20, 53, 64)):
            pair = wf.normalize(pair_for(ch, n, prec))
            got = wf.sample(pair, count=count).samples
            work = prec + _GUARD
            with mp.workprec(prec):
                top = 5 * (n + ch.s.embed(prec) + 1)
            with mp.workprec(work):
                lo = mp.mpf(1) / 1000
                ratio = (top / lo) ** (mp.mpf(1) / (count - 1))
            for i, (rho_s, fv, gv) in enumerate(got):
                with mp.workprec(work):
                    rho = lo * ratio ** i
                with mp.workprec(work + extra):
                    weight = mp.power(rho, ch.s.embed(work + extra)) * mp.exp(-rho)
                    f_ref = pair.f_scale * weight * pair.f_poly.eval_mp(rho, work + extra)
                    g_ref = pair.g_scale * weight * pair.g_poly.eval_mp(rho, work + extra)
                with mp.workprec(prec):
                    assert (rho_s, fv, gv) == (+rho, +f_ref, +g_ref), (ch, n, prec, i)

    def test_sample_grid_geometry(self):
        pair = wf.sample(pair_for(CH, 2, 128), count=50)
        rhos = [row[0] for row in pair.samples]
        assert len(rhos) == 50
        with mp.workprec(128):
            assert abs(rhos[0] - mp.mpf(1) / 1000) < mp.mpf(2) ** -100
            s = CH.s.embed(128)
            assert abs(rhos[-1] - 5 * (2 + s + 1)) < mp.mpf("1e-20")
            # geometric: constant ratio
            r0 = rhos[1] / rhos[0]
            r1 = rhos[-1] / rhos[-2]
            assert abs(r0 - r1) < mp.mpf("1e-25")

    def test_sample_values_match_direct_evaluation(self):
        # n = 0 starts the recurrence with pi_{-1} = 0, so f = 1 and g = -1;
        # on the tau > 0 bottom the scalar c = -(w + tau) is not 0 and must
        # drop out
        for ch, n in ((CH, 1), (CH, 0), (CH_P, 0)):
            pair = wf.assemble(ld.build_state(ch, n, 192), allow_unphysical=True)
            if n == 0:
                one = QsPolynomial.from_coeffs([1], pair.f_poly.zero)
                assert (pair.f_poly, pair.g_poly) == (one, -one)
            pair = wf.sample(wf.normalize(pair), count=7)
            with mp.workprec(192):
                s = ch.s.embed(192)
                for rho, fv, gv in pair.samples:
                    weight = mp.power(rho, s) * mp.exp(-rho)
                    f_direct = pair.f_scale * weight * pair.f_poly.eval_mp(rho, 192)
                    g_direct = pair.g_scale * weight * pair.g_poly.eval_mp(rho, 192)
                    assert abs(fv - f_direct) < mp.mpf(2) ** -150
                    assert abs(gv - g_direct) < mp.mpf(2) ** -150

    @pytest.mark.parametrize("prec, Z, j, eps, n, index, col", [
        (256, 40, "7/2", -1, 30, 79, 1),
        (256, 118, "3/2", 1, 30, 77, 1),
        (256, 1, "5/2", -1, 64, 80, 2),
        (64, 80, "3/2", 1, 64, 84, 2),
        (64, 118, "5/2", -1, 30, 77, 2),
    ])
    def test_deep_samples_round_to_the_nearest(self, prec, Z, j, eps, n, index, col):
        # values that a monomial Horner pass put one ulp off: each sample is
        # scale * rho^s e^{-rho} * poly(rho) at 2048 bits, rounded once
        ref_bits, count = 2048, 100
        ch = make_channel(make_params(Z=Z), Fraction(j), eps)
        pair = wf.normalize(pair_for(ch, n, prec))
        got = wf.sample(pair, count=count).samples[index][col]
        with mp.workprec(prec):
            top = 5 * (n + ch.s.embed(prec) + 1)
        with mp.workprec(prec + _GUARD):
            lo = mp.mpf(1) / 1000
            rho = lo * ((top / lo) ** (mp.mpf(1) / (count - 1))) ** index
        poly, scale = (pair.f_poly, pair.f_scale) if col == 1 else (pair.g_poly, pair.g_scale)
        with mp.workprec(ref_bits):
            ref = (scale * mp.power(rho, ch.s.embed(ref_bits)) * mp.exp(-rho)
                   * poly.eval_mp(rho, ref_bits))
        with mp.workprec(prec):
            assert got == +ref

    def test_random_windows_round_once_from_2048_bits(self):
        # random windows of j <= 5/2 at Z = 1, 57 and 118, with the tau > 0
        # bottom rung assembled anyway: a few points of each, at 53 and 256
        # bits, are the value at 2048 bits rounded once
        rng = random.Random(2029)
        ref_bits, count = 2048, 60
        for prec in (53, 256):
            for Z in (1, 57, 118):
                params = make_params(Z=Z)
                js = [Fraction(rng.choice((1, 3, 5)), 2) for _ in range(5)]
                windows = [(make_channel(params, js[0], 1), 0)] + [
                    (make_channel(params, j, rng.choice((-1, 1))), n)
                    for j, n in zip(js[1:], (0, 1, 5, 20))]
                for ch, n in windows:
                    pair = wf.normalize(wf.assemble(ld.build_state(ch, n, prec),
                                                    allow_unphysical=True))
                    got = wf.sample(pair, count=count).samples
                    with mp.workprec(prec):
                        top = 5 * (n + ch.s.embed(prec) + 1)
                    for index in rng.sample(range(count), 3):
                        with mp.workprec(prec + _GUARD):
                            lo = mp.mpf(1) / 1000
                            rho = lo * ((top / lo) ** (mp.mpf(1) / (count - 1))) ** index
                        with mp.workprec(ref_bits):
                            weight = mp.power(rho, ch.s.embed(ref_bits)) * mp.exp(-rho)
                            ref = [scale * weight * poly.eval_mp(rho, ref_bits)
                                   for poly, scale in ((pair.f_poly, pair.f_scale),
                                                       (pair.g_poly, pair.g_scale))]
                        with mp.workprec(prec):
                            assert got[index] == (+rho, +ref[0], +ref[1]), (prec, ch, n, index)

    def test_sample_count_guard(self):
        with pytest.raises(DomainError):
            wf.sample(pair_for(CH, 0, 64), count=1)


class TestClosedFormNormalization:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_each_square_moment_is_the_bracket(self, n):
        # M[f^2] = M[g^2] = B in Q(s)[w]: the squared-polynomial route
        # normalize skips, decided against its closed form
        for ch in (CH, CH_HEAVY):
            pair = pair_for(ch, n)
            f, g = pair.f_poly, pair.g_poly
            bracket = wf.norm_bracket(ch, n)
            assert field_moment(f * f, ch, 1) == bracket
            assert field_moment(g * g, ch, 1) == bracket

    @pytest.mark.parametrize("n", [1, 4, 20])
    def test_constant_matches_the_squared_route(self, n):
        pair = wf.normalize(pair_for(CH_DEEP[1], n))
        with mp.workprec(256):
            assert abs(norm_integral(pair) - 1) < mp.mpf(2) ** -240

    @pytest.mark.parametrize("n", [0, 1, 3, 20])
    def test_window_orthogonality_is_decided(self, n):
        for ch in (CH, CH_DEEP[-1]):
            assert wf.orthogonality_exact(ld.build_state(ch, n))

    @pytest.mark.parametrize("half", ["psi_plus", "psi_minus"])
    def test_perturbed_window_is_refused(self, half):
        # one coefficient off by 1/3 changes a square moment by a nonzero
        # multiple of M[1] = s or more
        state = ld.build_state(CH_HEAVY, 3)
        poly = getattr(state, half)
        bumped = QsPolynomial((poly.coeffs[0] + Fraction(1, 3),) + poly.coeffs[1:], poly.zero)
        assert not wf.orthogonality_exact(replace(state, **{half: bumped}))

    def test_cross_moment_is_decided_too(self):
        # pi_n + t rho^n with t = -2 M[pi_n rho^n] / M[rho^2n] keeps the
        # square moment; only the cross moment with pi_{n-1} refuses it
        n, state = 3, ld.build_state(CH_HEAVY, 3)
        plus = state.psi_plus
        mono = QsPolynomial.from_coeffs([0] * n + [1], plus.zero)
        t = -(field_moment(plus * mono, CH_HEAVY, 1) * 2) / field_moment(mono * mono, CH_HEAVY, 1)
        bumped = plus + mono.scale(t)
        assert field_moment(bumped * bumped, CH_HEAVY, 1) == ld.square_moment(CH_HEAVY, n, 1)
        assert not wf.orthogonality_exact(replace(state, psi_plus=bumped))

    def test_square_moment_has_two_closed_forms(self):
        with pytest.raises(ValueError):
            ld.square_moment(CH, 2, 2)


def test_raw_horner_matches_the_mpf_loop_bit_for_bit():
    # horner_mp calls mpf_mul and mpf_add on raw tuples at the working
    # precision, rounding to nearest, as mpf's * and + do: on the n = 20
    # sample grids of three channels every value is the same bits
    prec, count = 256, 400
    work = prec + _GUARD
    for ch in (CH, CH_HEAVY, CH_DEEP[1]):
        pair = pair_for(ch, 20, prec)
        with mp.workprec(prec):
            top = 5 * (20 + ch.s.embed(prec) + 1)
        for poly in (pair.f_poly, pair.g_poly):
            emb = poly.embed_coeffs(work + qsfield._EMBED_GUARD_BITS)
            with mp.workprec(work):
                lo = mp.mpf(1) / 1000
                ratio = (top / lo) ** (mp.mpf(1) / (count - 1))
                grid = [lo * ratio ** i for i in range(count)]
            for rho in grid:
                with mp.workprec(work + qsfield._EMBED_GUARD_BITS):
                    acc = mp.mpf(0)
                    for c in reversed(emb):
                        acc = acc * rho + c
                with mp.workprec(work):
                    assert qsfield.horner_mp(emb, rho, work)._mpf_ == (+acc)._mpf_
