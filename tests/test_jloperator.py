"""Scalar invariant on the doublet: matrix form, diagonalization, scan."""

from fractions import Fraction

import mpmath as mp

from dirac_su11.params import exact_w, make_params, make_channel, tower_gap, tower_w2
from dirac_su11 import jloperator as jl

P1 = make_params(Z=1)
P80 = make_params(Z=80)
PREC = 192


def _zeta_mp(ch, prec):
    return mp.mpf(ch.zeta.numerator) / ch.zeta.denominator


def tower_coefficients(ch, n):
    """zeta(1 - tau/w) and zeta(1 + tau/w) as elements of Q(s)[w]: the
    diagonal of the operator in the tower basis."""
    ratio = ch.qs(ch.tau) / exact_w(ch, n)
    return (1 - ratio) * ch.zeta, (1 + ratio) * ch.zeta


def scan_slot(params, j, eps, n, prec=PREC):
    return next(r for r in jl.diagonality_scan(params, j, n, prec)
                if (r.channel.j, r.channel.eps, r.n) == (j, eps, n))


def doublet_matrix(ch, n):
    """M on the (F, iG) doublet as elements of Q(s)[w], each entry over its
    power of i: [[zeta, -i tau (1 + u)], [i tau (1 - u), zeta]] with
    u = E/c^2 = (s+n)/w."""
    u = (ch.s + n) / exact_w(ch, n)
    tau = ch.qs(ch.tau)
    return (ch.zeta, -tau * (1 + u)), (tau * (1 - u), ch.zeta)


class TestDoubletMatrix:
    def test_entry_structure(self):
        # equal diagonal entries zeta, so the trace 2 zeta is the sum of the
        # tower coefficients; the antidiagonal entries carry (c^2 +- E)/c^2
        # with opposite signs
        for params in (P1, P80):
            ch = make_channel(params, Fraction(1, 2), -1)
            for n in (0, 2):
                (a, b), (c, d) = doublet_matrix(ch, n)
                cm, cp = tower_coefficients(ch, n)
                assert a == d == ch.zeta
                assert (cm + cp - 2 * a).is_zero
                assert b.sign() * c.sign() < 0

    def test_determinant_identity(self):
        # det M = zeta^2 - (-i tau(1+u))(i tau(1-u)) = zeta^2 n(n+2s)/w^2 is
        # the product of the two tower coefficients, decided in Q(s)[w]; so
        # the bottom rung is the only degenerate slot of each channel
        for params in (P1, P80):
            for j, eps in ((Fraction(1, 2), -1), (Fraction(3, 2), 1)):
                ch = make_channel(params, j, eps)
                for n in (0, 1, 3):
                    (a, b), (c, d) = doublet_matrix(ch, n)
                    cm, cp = tower_coefficients(ch, n)
                    expected = (tower_gap(ch, n) / tower_w2(ch, n)) * (ch.zeta * ch.zeta)
                    assert (cm * cp - expected).is_zero
                    assert (b * c + a * d - expected).is_zero
                    assert (cm * cp).is_zero == (n == 0)

    def test_bottom_rung_determinant_vanishes(self):
        # at the tau < 0 bottom w = -tau, so 1 + tau/w is exactly zero
        for params in (P1, P80):
            ch = make_channel(params, Fraction(1, 2), -1)
            cm, cp = tower_coefficients(ch, 0)
            assert cp.is_zero and (cm * cp).is_zero
            assert (cm - 2 * ch.zeta).is_zero


class TestSimilarity:
    def test_transform_is_diagonal_with_tower_eigenvalues(self):
        # S^-1 M S is diagonal iff pq/c^2 = zeta/w, that is u^2 + (zeta/w)^2
        # = 1 with u = E/c^2 = (s+n)/w; decided in Q(s)[w], and the scan's
        # coefficients embed the tower elements zeta(1 -+ tau/w)
        for params, j, eps, n in ((P1, Fraction(1, 2), -1, 0),
                                  (P1, Fraction(3, 2), 1, 2),
                                  (P80, Fraction(5, 2), -1, 1),
                                  (P80, Fraction(5, 2), 1, 7)):
            r = scan_slot(params, j, eps, n)
            w = exact_w(r.channel, n)
            u, zw = (r.channel.s + n) / w, w.inverse() * r.channel.zeta
            assert (u * u + zw * zw - 1).is_zero
            assert not (u * u + zw * zw * 2 - 1).is_zero
            cm, cp = tower_coefficients(r.channel, n)
            with mp.workprec(PREC):
                tol = mp.mpf(2) ** -(PREC - 24)
                assert abs(r.coeff_minus - cm.embed(PREC)) < tol
                assert abs(r.coeff_plus - cp.embed(PREC)) < tol

    def test_ground_eigenvalue_is_twice_zeta(self):
        # tau < 0 bottom: w = -tau, so the surviving coefficient is exactly
        # 2 zeta = 2Z/c and the other one vanishes
        for params in (P1, P80):
            r = scan_slot(params, Fraction(1, 2), -1, 0)
            with mp.workprec(PREC):
                assert r.coeff_plus == 0
                assert abs(r.coeff_minus - 2 * _zeta_mp(r.channel, PREC)) < mp.mpf(2) ** -(PREC - 8)

    def test_excited_states_mix_both_halves(self):
        # strictly inside a tower both coefficients are nonzero and distinct
        ch = make_channel(P1, Fraction(1, 2), -1)
        for n in (1, 2, 3):
            r = scan_slot(P1, ch.j, ch.eps, n)
            with mp.workprec(PREC):
                assert r.coeff_minus != r.coeff_plus
                assert r.coeff_minus != 0 and r.coeff_plus != 0


class TestScan:
    def test_diagonal_labels(self):
        records = jl.diagonality_scan(P1, Fraction(5, 2), 3, PREC)
        assert len(records) == 24
        labels = sorted(r.spectroscopic_label for r in records if r.is_diagonal)
        assert labels == ["1s", "2p", "3d"]
        # and the same slots are flagged diagonal at Z = 80
        heavy = jl.diagonality_scan(P80, Fraction(5, 2), 3, PREC)
        assert (sorted(r.spectroscopic_label for r in heavy if r.is_diagonal)
                == ["1s", "2p", "3d"])

    def test_diagonal_slots_are_tau_negative_bottoms(self):
        for r in jl.diagonality_scan(P1, Fraction(5, 2), 3, PREC):
            assert r.is_diagonal == (r.n == 0 and r.channel.tau < 0)
            assert r.physical == (not (r.n == 0 and r.channel.tau > 0))
            if r.is_diagonal:
                assert r.physical

    def test_labels(self):
        cases = (
            (Fraction(1, 2), -1, 0, "1s"),
            (Fraction(1, 2), 1, 1, "2p"),
            (Fraction(3, 2), -1, 1, "3p"),
            (Fraction(5, 2), 1, 0, "3f"),
            (Fraction(7, 2), 1, 2, "6g"),
        )
        for j, eps, n, expected in cases:
            ch = make_channel(P1, j, eps)
            assert jl.spectroscopic_label(ch, n) == expected

    def test_label_past_letter_table(self):
        ch = make_channel(P1, Fraction(17, 2), 1)
        assert jl.spectroscopic_label(ch, 0) == "9[l=9]"

    def test_json_roundtrip(self):
        records = jl.diagonality_scan(P1, Fraction(3, 2), 1, 128)
        doc = jl.scan_to_dict(records, 128)
        assert doc["kind"] == "diagonality-scan"
        assert doc["diagonal_labels"] == ["1s", "2p"]
