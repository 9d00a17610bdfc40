"""Scalar invariant on the doublet: matrix form, diagonalization, scan."""

from fractions import Fraction
import json

import mpmath as mp

from dirac_su11.params import make_params, make_channel, spectral_point
from dirac_su11 import wavefunctions as wf
from dirac_su11 import jloperator as jl

P1 = make_params(Z=1)
P80 = make_params(Z=80)
PREC = 192


def _zeta_mp(ch, prec):
    return mp.mpf(ch.zeta.numerator) / ch.zeta.denominator


class TestDoubletMatrix:
    def test_entry_structure(self):
        ch = make_channel(P1, Fraction(1, 2), -1)
        pt = spectral_point(ch, 2, PREC)
        m = jl.jl_fg_matrix(pt)
        (a, b), (c, d) = m.entries
        with mp.workprec(PREC):
            zeta = _zeta_mp(ch, PREC)
            assert a == d
            assert a.imag == 0 and abs(a.real - zeta) < mp.mpf(2) ** -(PREC - 8)
            assert b.real == 0 and c.real == 0
            # off-diagonal ratio carries (c^2+E)/(c^2-E), both antidiagonal
            assert b.imag * c.imag < 0 or ch.tau == 0

    def test_determinant_identity(self):
        # det M = zeta^2 n (n+2s) / w^2, so the bottom rung is the only
        # degenerate slot of each channel
        for params in (P1, P80):
            for j, eps in ((Fraction(1, 2), -1), (Fraction(3, 2), 1)):
                ch = make_channel(params, j, eps)
                for n in (0, 1, 3):
                    pt = spectral_point(ch, n, PREC)
                    det = jl.jl_fg_matrix(pt).determinant(PREC)
                    expected_qs = (ch.qs(ch.zeta * ch.zeta)
                                   * ch.qs(n * n, 2 * n)
                                   * wf.tower_w2(ch, n).inverse())
                    with mp.workprec(PREC):
                        ref = expected_qs.embed(PREC)
                        assert abs(det.imag) < mp.mpf(2) ** -(PREC - 16)
                        assert abs(det.real - ref) < mp.mpf(2) ** -(PREC - 16)

    def test_bottom_rung_determinant_vanishes(self):
        ch = make_channel(P1, Fraction(1, 2), -1)
        det = jl.jl_fg_matrix(spectral_point(ch, 0, PREC)).determinant(PREC)
        with mp.workprec(PREC):
            assert abs(det) < mp.mpf(2) ** -(PREC - 16)


class TestSimilarity:
    def test_transform_is_diagonal_with_tower_eigenvalues(self):
        for params, j, eps, n in ((P1, Fraction(1, 2), -1, 0),
                                  (P1, Fraction(3, 2), 1, 2),
                                  (P80, Fraction(5, 2), -1, 1)):
            ch = make_channel(params, j, eps)
            pt = spectral_point(ch, n, PREC)
            sim = jl.jl_similarity(pt)
            cm, cp = jl.jl_eigencoefficients(ch, n, PREC)
            (a, b), (c, d) = sim.entries
            with mp.workprec(PREC):
                tol = mp.mpf(2) ** -(PREC - 24)
                assert abs(b) < tol and abs(c) < tol
                assert abs(a - cm) < tol
                assert abs(d - cp) < tol

    def test_ground_eigenvalue_is_twice_zeta(self):
        # tau < 0 bottom: w = -tau, so the surviving coefficient is exactly
        # 2 zeta = 2Z/c and the other one vanishes
        for params in (P1, P80):
            ch = make_channel(params, Fraction(1, 2), -1)
            cm, cp = jl.jl_eigencoefficients(ch, 0, PREC)
            with mp.workprec(PREC):
                assert cp == 0
                assert abs(cm - 2 * _zeta_mp(ch, PREC)) < mp.mpf(2) ** -(PREC - 8)

    def test_excited_states_mix_both_halves(self):
        # strictly inside a tower both coefficients are nonzero and distinct
        ch = make_channel(P1, Fraction(1, 2), -1)
        for n in (1, 2, 3):
            cm, cp = jl.jl_eigencoefficients(ch, n, PREC)
            with mp.workprec(PREC):
                assert cm != cp
                assert cm != 0 and cp != 0


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
        again = json.loads(jl.scan_to_json(records, 128))
        assert again == doc
