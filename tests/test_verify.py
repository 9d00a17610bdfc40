"""Residual checks, shooting oracle (dirac_su11.oracle), Gram matrix, report format."""

import dataclasses
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest

from dirac_su11.params import (make_params, make_channel, channel_slots, spectral_point, tower_w2,
                               DomainError, DETUNE, max_abs_embedded)
from dirac_su11.qsfield import QsPolynomial, Quadratic, embed_fraction
from dirac_su11 import ladder as ld
from dirac_su11 import wavefunctions as wf
from dirac_su11 import verify as vf
from dirac_su11 import oracle as orc
from dirac_su11.algebra import field_moment
from reference import embedded_gram

P1 = make_params(Z=1)
CH = make_channel(P1, Fraction(1, 2), -1)
CH_P = make_channel(P1, Fraction(1, 2), 1)
CH_HEAVY = make_channel(make_params(Z=80), Fraction(5, 2), -1)


def spy_on_embed(monkeypatch) -> list:
    """Record every element that Quadratic.embed is called on."""
    embedded = []
    embed = Quadratic.embed

    def spy(self, precision=256):
        embedded.append(self)
        return embed(self, precision)

    monkeypatch.setattr(Quadratic, "embed", spy)
    return embedded


def second_order(state):
    """second_order_residual with the split rows read off the state's
    on-shell radial rows."""
    return vf.second_order_residual(state, vf.first_order_residual(state))


def count_rung_checks(monkeypatch) -> Counter:
    """Count ladder._decide_rung calls per universal rung n, from an empty
    universal tower on."""
    monkeypatch.setattr(ld, "_TOWER", [])
    seen = Counter()
    decide = ld._decide_rung

    def counting(n, poly, below):
        seen[n] += 1
        decide(n, poly, below)

    monkeypatch.setattr(ld, "_decide_rung", counting)
    return seen


class TestFirstOrder:
    def test_exact_zero_rows(self):
        for ch in (CH, CH_HEAVY):
            for n in (0, 1, 3):
                for rep in vf.first_order_residual(ld.build_state(ch, n, 128)):
                    assert rep.is_exact_zero
                    assert max_abs_embedded(rep.residual_poly.coeffs, 128) == 0

    def test_numeric_match_with_the_differential_system(self):
        # independent route: evaluate F, G and their log-derivatives on a
        # grid and plug into dF/dx = -tau F + (rho/nu + zeta) G,
        # dG/dx = tau G + (rho nu - zeta) F with floating E, nu
        for n in (0, 2):
            pair = wf.assemble(ld.build_state(CH, n, 192))
            pt = pair.level
            with mp.workprec(192):
                s = CH.s.embed(192)
                zeta = mp.mpf(CH.zeta.numerator) / CH.zeta.denominator
                tau = mp.mpf(CH.tau.numerator) / CH.tau.denominator
                nu = mp.sqrt(-pt.binding / (embed_fraction(CH.params.c2, 192) + pt.E))
                for rho in (mp.mpf(1) / 7, mp.mpf(2), mp.mpf(11) / 2):
                    weight = mp.power(rho, s) * mp.exp(-rho)
                    fp = pair.f_poly
                    gp = pair.g_poly
                    F = pair.f_scale * weight * fp.eval_mp(rho, 192)
                    G = pair.g_scale * weight * gp.eval_mp(rho, 192)
                    # d/dx [rho^s e^-rho p] = rho^s e^-rho [(s - rho) p + rho p']
                    dF = pair.f_scale * weight * (
                        (s - rho) * fp.eval_mp(rho, 192)
                        + rho * fp.derivative().eval_mp(rho, 192))
                    dG = pair.g_scale * weight * (
                        (s - rho) * gp.eval_mp(rho, 192)
                        + rho * gp.derivative().eval_mp(rho, 192))
                    r1 = dF - (-tau * F + (rho / nu + zeta) * G)
                    r2 = dG - (tau * G + (rho * nu - zeta) * F)
                    scale = max(abs(F), abs(G), 1)
                    assert abs(r1) / scale < mp.mpf(2) ** -120
                    assert abs(r2) / scale < mp.mpf(2) ** -120

    def test_detuned_control_is_nonzero(self):
        for n in (1, 2, 4):
            reports = vf.detuned_first_order(ld.build_state(CH, n, 128))
            for rep in reports:
                assert not rep.is_exact_zero
                assert max_abs_embedded(rep.residual_poly.coeffs, 128) > mp.mpf("1e-10")

    def test_detuned_needs_excited_state(self):
        with pytest.raises(DomainError):
            vf.detuned_first_order(ld.build_state(CH, 0, 128))


class TestSecondOrder:
    def test_exact_zero_through_rung_eight(self):
        for ch in (CH, CH_HEAVY):
            for n in range(9):
                state = ld.build_state(ch, n, 128)
                for rep in second_order(state):
                    assert rep.is_exact_zero, (ch.key(), n, rep.which)

    def test_bottom_rung_witness(self):
        # tau > 0 bottom: the raise-split residual equals 2 tau, exactly
        state = ld.build_state(CH_P, 0, 128)
        by_name = {r.which: r for r in second_order(state)}
        witness = by_name["ladder-split-raise"]
        assert not witness.is_exact_zero
        assert (witness.residual_poly.coeff(0) - CH_P.qs(2 * CH_P.tau)).is_zero
        # every other relation still holds there
        for name, rep in by_name.items():
            if name != "ladder-split-raise":
                assert rep.is_exact_zero

    def test_mode_rows_read_the_universal_rungs(self):
        # the mode-equation rows are (s^2 - 1/4 - xi) times the window
        # halves, which must be the images of universal rungs n and n-1
        state = ld.build_state(CH_HEAVY, 3, 128)
        off = replace(CH_HEAVY, xi=CH_HEAVY.xi + Fraction(1, 100))
        shifted = replace(state, channel=off)
        by_name = {r.which: r for r in second_order(shifted)}
        for tag, half in (("mode-equation-plus", state.psi_plus),
                          ("mode-equation-minus", state.psi_minus)):
            assert (by_name[tag].residual_poly - half.scale(Fraction(-1, 100))).is_zero
        assert by_name["ladder-split-lower"].is_exact_zero
        corrupt = replace(state, psi_plus=state.psi_plus.scale(CH_HEAVY.qs(3)))
        with pytest.raises(AssertionError, match="not the image of the universal tower"):
            second_order(corrupt)

    def test_physical_bottom_has_no_witness(self):
        state = ld.build_state(CH, 0, 128)
        by_name = {r.which: r for r in second_order(state)}
        assert by_name["ladder-split-raise"].is_exact_zero


def split_rows(state, w):
    """The ladder-split residuals (lower, raise) written out by hand on the
    window at w, w^2 = w.d."""
    ch, n, w2 = state.channel, state.n, w.d
    tau = ch.qs(ch.tau)
    plus, minus = wf.tower_window(state, w)
    lower = (plus.derivative().mul_rho() - plus.scale(Quadratic.of(ch.qs(n), d=w2))
             - minus.scale(w - tau))
    raise_ = (minus.derivative().mul_rho()
              + minus.scale(Quadratic.of(ch.qs(n) + ch.s * 2, d=w2))
              - minus.mul_rho().scale(2) + plus.scale(w + tau))
    return lower, raise_


class TestRotation:
    # f = minus + plus and g = minus - plus turn the split relations into
    # the radial rows: row_f = lower - raise, row_g = lower + raise
    CASES = [(CH, 0), (CH, 1), (CH, 3), (CH_P, 0), (CH_P, 2), (CH_HEAVY, 3)]

    @pytest.mark.parametrize("ch, n", CASES)
    def test_on_shell(self, ch, n):
        state = ld.build_state(ch, n, 128)
        lower, raise_ = split_rows(state, wf.exact_w(ch, n))
        row_f, row_g = (r.residual_poly for r in vf.first_order_residual(state))
        assert row_f == lower - raise_
        assert row_g == lower + raise_
        by_name = {r.which: r.residual_poly for r in second_order(state)}
        assert by_name["ladder-split-lower"] == lower
        assert by_name["ladder-split-raise"] == raise_
        assert lower.is_zero
        if state.is_physical:
            assert raise_.is_zero
        else:  # tau > 0 bottom: raise = 2 tau pi_0
            assert raise_.coeffs == (raise_.zero + ch.qs(2 * ch.tau),)

    @pytest.mark.parametrize("ch, n", [c for c in CASES if c[1] >= 1])
    def test_detuned(self, ch, n):
        state = ld.build_state(ch, n, 128)
        w2 = tower_w2(ch, n) * (1 + DETUNE)
        lower, raise_ = split_rows(state, Quadratic.root(w2))
        detuned = vf.detuned_first_order(state)
        row_f, row_g = (r.residual_poly for r in detuned)
        assert row_f == lower - raise_
        assert row_g == lower + raise_
        # the split rows read off the detuned rows are the detuned split
        by_name = {r.which: r.residual_poly
                   for r in vf.second_order_residual(state, detuned)}
        assert by_name["ladder-split-lower"] == lower
        assert by_name["ladder-split-raise"] == raise_
        # off shell the lowering relation fails; raising holds for any w
        assert not lower.is_zero and raise_.is_zero


def rerepresent(poly, k):
    """poly with each coefficient stored as k times its lowest-terms triple."""
    coeffs = []
    for c in poly.coeffs:
        a, b = c.a, c.b
        den = math.lcm(a.denominator, b.denominator)
        coeffs.append(Quadratic.from_ints(k * a.numerator * (den // a.denominator),
                                          k * b.numerator * (den // b.denominator),
                                          k * den, d=c.d))
    return QsPolynomial.from_coeffs(coeffs, poly.zero)


class TestRepresentation:
    def test_equality_ignores_reduction(self):
        # the mode-equation rows check each window half against its
        # universal image with !=; coefficients that differ only in the
        # triple that stores them are equal
        state = ld.build_state(CH_HEAVY, 3, 128)
        radial = vf.first_order_residual(state)
        expected = [r.residual_poly for r in vf.second_order_residual(state, radial)]
        for k in (1, 7):
            plus, minus = rerepresent(state.psi_plus, k), rerepresent(state.psi_minus, k)
            assert plus == state.psi_plus and not plus != state.psi_plus
            assert minus == state.psi_minus
            assert hash(plus) == hash(state.psi_plus)
            assert str(plus) == str(state.psi_plus)
            twin = replace(state, psi_plus=plus, psi_minus=minus)
            rows = vf.second_order_residual(twin, radial)
            assert [r.residual_poly for r in rows] == expected


class TestShootingOracle:
    def test_ground_binding(self):
        res = orc.shooting_oracle(CH, 0)
        assert orc.oracle_binding_residual(CH, 0, res) < 1e-10
        # frozen digits of the lowest level at the default c
        assert abs(res.binding_oracle - (-0.5000066565965526)) < 1e-12

    def test_excited_and_heavy(self):
        assert orc.oracle_binding_residual(CH, 2, orc.shooting_oracle(CH, 2)) < 1e-10
        ch40 = make_channel(make_params(Z=40), Fraction(3, 2), -1)
        assert orc.oracle_binding_residual(ch40, 1, orc.shooting_oracle(ch40, 1)) < 1e-10

    def test_tau_positive_channel_slots(self):
        # n = 0 must fail to bracket; n = 1 must converge
        with pytest.raises(orc.BracketingError):
            orc.shooting_oracle(CH_P, 0)
        assert orc.oracle_binding_residual(CH_P, 1, orc.shooting_oracle(CH_P, 1)) < 1e-10

    def test_degenerate_partners_agree(self):
        # same (j, n?) pair across eps: E(j, -1, n) = E(j, +1, n) exactly in
        # the closed form; the oracle solves two different systems and must
        # land on the same number
        a = orc.shooting_oracle(CH, 1)
        b = orc.shooting_oracle(CH_P, 1)
        assert abs(a.binding_oracle - b.binding_oracle) < 1e-11 * abs(a.binding_oracle) + 1e-22

    def test_index_guards(self):
        with pytest.raises(DomainError):
            orc.shooting_oracle(CH, orc.ORACLE_N_CAP + 1)
        with pytest.raises(DomainError):
            orc.shooting_oracle(CH, -1)

    def test_result_fields(self):
        res = orc.shooting_oracle(CH, 1)
        assert res.bracket[0] < res.nu_oracle < res.bracket[1]
        assert res.steps > 0
        assert res.mismatch < 1e-9


def spy_on_shoot(monkeypatch):
    """Record every lane _shoot integrates. Returns {(tau, n): {nu:
    mismatch}} and, per solve, its term count and the set of (tau, n) in it.
    At one Z, (tau, n) names a level."""
    probes, calls = {}, []
    shoot = orc._shoot

    def spy(s, zeta, tau, n, nu):
        mismatch, nfev = shoot(s, zeta, tau, n, nu)
        keys = list(zip(tau.tolist(), n.astype(int).tolist()))
        calls.append((nfev, set(keys)))
        for key, x, m in zip(keys, nu.tolist(), mismatch.tolist()):
            probes.setdefault(key, {})[x] = m
        return mismatch, nfev

    monkeypatch.setattr(orc, "_shoot", spy)
    return probes, calls


def sweep_levels(Z):
    """The bound levels with j <= 3/2, n <= 3 at one Z: 14 levels."""
    return [(ch, n) for ch, rungs in channel_slots(make_params(Z=Z), Fraction(3, 2), 3)
            for n in rungs if ch.is_bound(n)]


class TestOracleBatch:
    def test_batch_agrees_with_single_levels(self):
        # the levels of acceptance criterion 1; each lane of a solve steps on
        # its own schedule and ends its own series, so a level's samples,
        # mismatches and root are the same alone as in the batch
        levels = [(make_channel(make_params(Z=Z), Fraction(jnum, 2), eps), n)
                  for Z in (1, 40, 80) for jnum in (1, 3, 5) for eps in (-1, 1)
                  for n in range(6) if not (n == 0 and eps == 1)]
        assert len(levels) == 99
        batch = orc.shooting_oracle_batch(levels)
        for (ch, n), together in zip(levels, batch):
            alone = orc.shooting_oracle(ch, n)
            assert orc.oracle_binding_residual(ch, n, together) <= 1e-12, (str(ch), n)
            assert orc.oracle_binding_residual(ch, n, alone) <= 1e-12, (str(ch), n)
            assert together.nu_oracle == alone.nu_oracle, (str(ch), n)
            assert together.mismatch == alone.mismatch, (str(ch), n)

    def test_every_empty_slot_is_named(self):
        ch3 = make_channel(P1, Fraction(3, 2), 1)
        with pytest.raises(orc.BracketingError) as info:
            orc.shooting_oracle_batch([(CH_P, 0), (CH, 0), (ch3, 0)])
        assert info.value.slots == ((CH_P, 0), (ch3, 0))
        assert str(info.value).count("no eigenvalue between") == 2

    def test_index_guards_cover_the_batch(self):
        with pytest.raises(DomainError):
            orc.shooting_oracle_batch([(CH, 0), (CH, orc.ORACLE_N_CAP + 1)])

    def test_every_level_is_certified(self, monkeypatch):
        # each nu_oracle is one end of a pair of probed points at most a
        # tolerance apart whose mismatches differ in sign (zero counts as
        # positive); steps counts the terms of the solves it took part in
        probes, calls = spy_on_shoot(monkeypatch)
        levels = sweep_levels(40)
        for (ch, n), res in zip(levels, orc.shooting_oracle_batch(levels)):
            key = (float(ch.tau), n)
            assert res.steps == sum(nfev for nfev, keys in calls if key in keys)
            seen = probes[key]
            tol = orc._XTOL + orc._RTOL * abs(res.nu_oracle)
            assert res.nu_oracle in seen, (str(ch), n)
            negative = seen[res.nu_oracle] < 0
            assert any(abs(nu - res.nu_oracle) <= tol and (m < 0) != negative
                       for nu, m in seen.items()), (str(ch), n)
            assert res.mismatch == abs(seen[res.nu_oracle])

    def test_solve_counts(self, monkeypatch):
        _, calls = spy_on_shoot(monkeypatch)
        orc.shooting_oracle_batch(sweep_levels(40))
        assert len(calls) <= 5
        calls.clear()
        orc.shooting_oracle(CH_HEAVY, 3)
        assert len(calls) <= 5
        calls.clear()
        with pytest.raises(orc.BracketingError):
            orc.shooting_oracle(CH_P, 0)
        assert len(calls) == 1

    @pytest.mark.parametrize("Z", [1, 5, 35, 40, 66, 79, 101, 118])
    def test_sweep_batch_solve_counts(self, monkeypatch, Z):
        # the root moves by a few tolerances between solves with different
        # lane sets; the later rounds' samples at +-h and from 3h out still
        # close every pair by the fifth solve. With a geometric run from h
        # instead, the batches at Z = 66 and 101 take six. Z = 5 and 35
        # guard the outward start: moving it out makes the roots move more
        # between solves (see oracle._shoot)
        _, calls = spy_on_shoot(monkeypatch)
        orc.shooting_oracle_batch(sweep_levels(Z))
        assert len(calls) <= 5

    def test_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(orc, "_ROUND_CAP", 2)
        with pytest.raises(AssertionError, match="did not converge in 2 rounds"):
            orc.shooting_oracle(CH, 0)

    def test_sweep_rows(self):
        rows, worst = orc.oracle_sweep(P1, Fraction(3, 2), 1)
        assert [(r["j"], r["eps"], r["n"]) for r in rows] == [
            ("1/2", -1, 0), ("1/2", -1, 1), ("1/2", 1, 1),
            ("3/2", -1, 0), ("3/2", -1, 1), ("3/2", 1, 1)]
        assert worst < 1e-10

    def test_sweep_follows_n_max_to_the_cap(self):
        # the oracle is validated for n <= ORACLE_N_CAP, and the sweep
        # goes that deep when n_max asks for it
        rows, worst = orc.oracle_sweep(P1, Fraction(1, 2), 7)
        assert [(r["eps"], r["n"]) for r in rows] == (
            [(-1, n) for n in range(8)] + [(1, n) for n in range(1, 8)])
        assert worst < 1e-10
        rows, _ = orc.oracle_sweep(P1, Fraction(1, 2), orc.ORACLE_N_CAP + 3)
        assert max(r["n"] for r in rows) == orc.ORACLE_N_CAP


class TestGram:
    def test_offdiagonal_exact_integer_zero(self):
        g = vf.orthonormality_matrix(ld.climb(CH, 4, 128), range(5))
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert isinstance(g[i][j], int)
                    assert g[i][j] == 0

    def test_normalized_diagonal_is_one(self):
        g = embedded_gram(vf.orthonormality_matrix(ld.climb(CH, 4, 192), range(5)), 192)
        with mp.workprec(192):
            for i in range(5):
                assert abs(g[i][i] - 1) < mp.mpf(2) ** -150

    def test_unnormalized_diagonal_tracks_norm(self):
        # before the ket normalizers, the diagonal is <pi_n, pi_n> = 1/A_n^2:
        # its field moment is n!(2s+1)_n, so the exact Gram diagonal is 1
        rungs = ld.climb(CH, 3, 192)
        gram = vf.orthonormality_matrix(rungs, range(4))
        for i in range(4):
            pi = rungs[i].psi_plus
            assert field_moment(pi * pi, CH) == ld.square_moment(CH, i)
            assert gram[i][i] == CH.qs(1)

    def test_one_climb_checks_each_rung_once(self, monkeypatch):
        # each universal rung is decided once per process, however many
        # channels climb it
        seen = count_rung_checks(monkeypatch)
        g = vf.orthonormality_matrix(ld.climb(CH, 4, 128), [4, 0, 2])
        assert seen == Counter(dict.fromkeys(range(5), 1))
        assert g[0][1] == g[1][2] == 0
        vf.orthonormality_matrix(ld.climb(CH_HEAVY, 4, 128), range(5))
        vf.orthonormality_matrix(ld.climb(CH, 3, 128), [3])
        assert seen == Counter(dict.fromkeys(range(5), 1))

    def test_diagonal_is_decided_one(self):
        # the norm of each unit ket is an element of Q(s), exactly 1
        for a, row in enumerate(vf.orthonormality_matrix(ld.climb(CH_HEAVY, 4), range(5))):
            assert row[a] == CH_HEAVY.qs(1)

    def test_perturbed_rung_fails_the_gram_identity(self, monkeypatch, capsys):
        # rung 2 with pi_2 scaled by 1 + 2^-300: its diagonal is off by
        # about 2^-299, which a float test within 2^-(p - 16) = 2^-240
        # would pass; the field decision does not
        gram_matrix = vf.orthonormality_matrix

        def perturbed(rungs, n_list):
            rungs = list(rungs)
            bad = rungs[2]
            rungs[2] = replace(bad, psi_plus=bad.psi_plus.scale(1 + Fraction(1, 2 ** 300)))
            return gram_matrix(rungs, n_list)

        monkeypatch.setattr(vf, "orthonormality_matrix", perturbed)
        rep = vf.verification_report(P1, Fraction(1, 2), 3, 256)
        assert [b["gram_identity_ok"] for b in rep["channels"]] == [False, False]
        assert all(b["gram_offdiagonal_exact_zero"] for b in rep["channels"])
        assert rep["all_exact"] is False
        from dirac_su11.cli import main
        assert main(["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "3",
                     "--skip-oracle"]) == 3
        assert "Gram matrix not the identity" in capsys.readouterr().out

    def test_negative_rung_refused(self):
        with pytest.raises(DomainError):
            vf.orthonormality_matrix(ld.climb(CH, 2, 128), [2, -1])


class TestReport:
    @pytest.mark.parametrize("n_max", [0, 2, 3])
    def test_each_rung_checked_once(self, monkeypatch, n_max):
        # four channels, and two values of Z, climb the universal tower
        # once, and no higher than n_max
        seen = count_rung_checks(monkeypatch)
        for params in (P1, make_params(Z=80)):
            rep = vf.verification_report(params, Fraction(3, 2), n_max, 128)
            assert rep["all_exact"] is True
        assert seen == Counter(dict.fromkeys(range(n_max + 1), 1))

    def test_each_rung_assembled_once(self, monkeypatch):
        # one window lift per rung, plus one per detuned control
        calls = []
        window = wf.tower_window

        def counting(state, w):
            calls.append((state.n, w))
            return window(state, w)

        monkeypatch.setattr(wf, "tower_window", counting)
        monkeypatch.setattr(vf, "tower_window", counting)
        rep = vf.verification_report(make_params(Z=80))
        rows = [row for block in rep["channels"] for row in block["rows"]]
        assert len(rows) == 36
        assert len(calls) == len(rows) + sum("detuned_nonzero" in row for row in rows)

    def test_one_door_per_decision(self, monkeypatch):
        # the report decides each rung through first_order_residual and
        # second_order_residual, and each channel's Gram block through
        # orthonormality_matrix: the functions these tests check
        calls = Counter()
        for name in ("first_order_residual", "second_order_residual",
                     "orthonormality_matrix"):
            def counting(*args, _fn=getattr(vf, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(vf, name, counting)
        rep = vf.verification_report(P1, Fraction(3, 2), 3, 128)
        assert rep["all_exact"] is True
        rows = sum(len(block["rows"]) for block in rep["channels"])
        assert rows == 16
        assert calls == Counter(first_order_residual=rows, second_order_residual=rows,
                                orthonormality_matrix=len(rep["channels"]))

    def test_negative_n_max_refused(self):
        with pytest.raises(DomainError):
            vf.verification_report(P1, Fraction(1, 2), -2, 128)

    def test_rows_need_no_float_scale(self, monkeypatch):
        # the exact rows never assemble a pair, so 8 bits decide them, and
        # a row is embedded only when its magnitude is read
        assert [f.name for f in dataclasses.fields(vf.ResidualReport)] == [
            "which", "residual_poly"]
        monkeypatch.setattr(wf, "assemble", None)
        rep = vf.verification_report(P1, Fraction(1, 2), 2, 8)
        assert rep["all_exact"] is True
        embedded = spy_on_embed(monkeypatch)
        det = vf.detuned_first_order(ld.build_state(CH, 2, 128))
        assert not any(r.is_exact_zero for r in det) and embedded == []
        assert all(max_abs_embedded(r.residual_poly.coeffs, 128) > 0 for r in det)
        nonzero = [c for r in det for c in r.residual_poly.coeffs if not c.is_zero]
        assert embedded == nonzero

    def test_all_exact_report_embeds_only_the_witnesses(self, monkeypatch):
        # a decided zero is never embedded: of an all-exact report over
        # j <= 5/2, n <= 5 only the raise witnesses of the three tau > 0
        # bottom rungs are, and no Gram diagonal
        embedded = spy_on_embed(monkeypatch)
        rep = vf.verification_report(make_params(Z=57))
        assert rep["all_exact"] is True
        assert len(embedded) == 3 and not any(x.is_zero for x in embedded)
        witnesses = [row["residuals"]["ladder-split-raise"]["max_abs"]
                     for block in rep["channels"] for row in block["rows"]
                     if not row["physical"]]
        assert len(witnesses) == 3 and all(float(m) > 0 for m in witnesses)
        assert all(block["gram_diagonal_max_err"] == "0.0" for block in rep["channels"])

    def test_report_shape_and_flags(self):
        rep = vf.verification_report(P1, Fraction(3, 2), 2, 128)
        assert rep["schema"] == "dirac-su11/1"
        assert rep["all_exact"] is True
        assert rep["commutators_exact"] is True
        assert len(rep["channels"]) == 4  # j in {1/2, 3/2} x eps

    def test_divergence_note_mentions_the_integral(self):
        note = vf.negative_branch_divergence_note()
        assert "rho^(2s-1) e^(2 rho)" in note
        assert "diverges" in note
