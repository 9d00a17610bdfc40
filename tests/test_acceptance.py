"""Acceptance gate: one test per advertised guarantee, one summary line each.

Each test prints (and logs for the terminal summary) a single
"criterion N <name>: PASS/FAIL" line with the measured numbers, so a full
run documents every guarantee in one screen. Budgets are wall-clock on the
whole criterion and are asserted, not just reported.
"""

import math
import time
from fractions import Fraction

import mpmath as mp

from dirac_su11.params import (
    exact_w,
    make_params,
    make_channel,
    spectral_point,
    nonrelativistic_limit_table,
)
from dirac_su11 import algebra as alg
from dirac_su11 import ladder as ld
from dirac_su11 import wavefunctions as wf
from dirac_su11 import verify as vf
from dirac_su11 import oracle as orc
from dirac_su11 import jloperator as jl

from channel_images import REAL_RELATIONS, member, residual
from reference import embedded_gram, norm_integral

PREC = 256


def _finish(log, idx, name, ok, detail):
    line = f"criterion {idx} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    log(line)
    assert ok, line


def test_criterion_1_spectrum_vs_shooting_oracle(acceptance_log):
    budget = 120.0
    t0 = time.perf_counter()
    levels = [(make_channel(make_params(Z=Z), Fraction(jnum, 2), eps), n)
              for Z in (1, 40, 80) for jnum in (1, 3, 5) for eps in (-1, 1)
              for n in range(6)
              if not (n == 0 and eps == 1)]  # no bound state in that slot
    results = orc.shooting_oracle_batch(levels)
    worst = max(orc.oracle_binding_residual(ch, n, res)
                for (ch, n), res in zip(levels, results))
    count = len(results)
    # negative control: the empty slot must fail to bracket, not converge
    control_ok = False
    try:
        orc.shooting_oracle(make_channel(make_params(Z=1), Fraction(1, 2), 1), 0)
    except orc.BracketingError:
        control_ok = True
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and count == 99 and control_ok and elapsed <= budget
    _finish(acceptance_log, 1, "closed-form spectrum vs shooting oracle", ok,
            f"{count} levels, max rel binding err {worst:.2e} <= 1e-10, "
            f"empty-slot control {'ok' if control_ok else 'FAILED'}, "
            f"{elapsed:.1f}s of {budget:.0f}s")


def test_criterion_2_exact_residual_suite(acceptance_log):
    budget = 60.0
    t0 = time.perf_counter()
    exact = 0
    witnesses = 0
    failures = []
    for Z in (1, 80):
        params = make_params(Z=Z)
        for jnum in (1, 3, 5, 7):
            for eps in (-1, 1):
                ch = make_channel(params, Fraction(jnum, 2), eps)
                state = ld.ground_state(ch, PREC)
                for n in range(21):
                    radial = vf.first_order_residual(state)
                    for rep in vf.second_order_residual(state, radial):
                        if n == 0 and ch.tau > 0 and rep.which == "ladder-split-raise":
                            # unphysical bottom: this residual is the witness
                            if rep.is_exact_zero:
                                failures.append((Z, jnum, eps, n, rep.which))
                            else:
                                witnesses += 1
                            continue
                        if rep.is_exact_zero:
                            exact += 1
                        else:
                            failures.append((Z, jnum, eps, n, rep.which))
                    if state.is_physical:
                        for rep in radial:
                            if rep.is_exact_zero:
                                exact += 1
                            else:
                                failures.append((Z, jnum, eps, n, rep.which))
                    if n < 20:
                        state = ld.raise_state(state)
        # off-shell negative control on a light and a deep rung
        ch = make_channel(params, Fraction(1, 2), -1)
        for n in (1, 20):
            for rep in vf.detuned_first_order(ld.build_state(ch, n, PREC)):
                if rep.is_exact_zero:
                    failures.append((Z, 1, -1, n, rep.which + " (should be nonzero)"))
    elapsed = time.perf_counter() - t0
    ok = not failures and witnesses == 8 and elapsed <= budget
    _finish(acceptance_log, 2, "first/second-order residuals exactly zero", ok,
            f"{exact} residuals exact, {witnesses} bottom-rung witnesses nonzero, "
            f"{len(failures)} failures, {elapsed:.1f}s of {budget:.0f}s"
            + (f"; first failure {failures[0]}" if failures else ""))


def test_criterion_3_commutator_and_casimir_algebra(acceptance_log):
    # the relations are decided once on a generic family member; here their
    # images over Q(s) are checked on 125 members of five channels
    budget = 30.0
    t0 = time.perf_counter()
    alg.universal_images()
    channel_specs = (
        (1, Fraction(1, 2), -1),
        (1, Fraction(3, 2), 1),
        (30, Fraction(5, 2), -1),
        (80, Fraction(1, 2), 1),
        (92, Fraction(7, 2), -1),
    )
    patterns = (
        (Fraction(1),),
        (Fraction(-2), Fraction(1, 3)),
        (Fraction(3, 4), Fraction(0), Fraction(5)),
        (Fraction(1, 2), Fraction(-1, 7), Fraction(2), Fraction(-3)),
        (Fraction(0), Fraction(1), Fraction(0), Fraction(4, 9)),
    )
    members = 0
    bad = []
    for Z, j, eps in channel_specs:
        ch = make_channel(make_params(Z=Z), j, eps)
        for offset in (-2, 0, 1, 3, 5):
            for coeffs in patterns:
                f = member(ch, offset, coeffs)
                members += 1
                for relation in REAL_RELATIONS:
                    if residual(relation, f):
                        bad.append((Z, str(j), eps, offset, relation))
        # eigenvalue on the lowest-weight tower itself
        xi = ch.qs(ch.xi)
        for n in range(4):
            state = ld.build_state(ch, n, 128)
            f = alg.FamilyFunction(ch, n, state.psi_plus)
            out = alg.apply_casimir(f)
            if not (out.scale == xi and out.func == f):
                bad.append((Z, str(j), eps, n, "casimir eigenvalue"))
    elapsed = time.perf_counter() - t0
    ok = not bad and members >= 100 and elapsed <= budget
    _finish(acceptance_log, 3, "su(1,1) commutators and Casimir exact", ok,
            f"{members} family functions x 6 commutators and the Casimir routes over "
            f"{len(channel_specs)} channels, {len(bad)} failures, "
            f"{elapsed:.1f}s of {budget:.0f}s"
            + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_4_laguerre_equivalence(acceptance_log):
    t0 = time.perf_counter()
    detuned_nonzero = 0
    bad = []
    for Z, jnum, eps in ((1, 1, -1), (80, 5, 1)):
        ch = make_channel(make_params(Z=Z), Fraction(jnum, 2), eps)
        # bottom rung: the ladder polynomial is the 0th Laguerre polynomial
        state = ld.ground_state(ch, PREC)
        laguerre_0 = ld.tower_image(ch, 0).scale(Fraction(1, math.factorial(0)))
        if not (state.psi_plus - laguerre_0).is_zero:
            bad.append((Z, jnum, eps, 0, "pi_0 != L_0"))
        pochhammer = ch.qs(1)  # (2s+1)_n, one factor per rung
        for n in range(1, 21):
            state = ld.raise_state(state)
            pochhammer = pochhammer * (ch.s * 2 + n)
            rep = wf.laguerre_cross_check(state)
            if not (rep.rows_exact_zero and rep.det_on_shell_exact_zero):
                bad.append((Z, jnum, eps, n, "system not singular on shell"))
            if rep.off_shell_det_nonzero:
                detuned_nonzero += 1
            else:
                bad.append((Z, jnum, eps, n, "detuned determinant is zero"))
            if ld.square_moment(ch, n) != pochhammer * math.factorial(n):
                bad.append((Z, jnum, eps, n, "rescaled-polynomial norm mismatch"))
    elapsed = time.perf_counter() - t0
    ok = not bad and detuned_nonzero == 40
    _finish(acceptance_log, 4, "ladder polynomials are Laguerre polynomials", ok,
            f"n <= 20 on 2 channels, scalar match and on-shell determinant exact "
            f"zeros, square moment = n!(2s+1)_n exactly, detuned determinant "
            f"nonzero on {detuned_nonzero} of 40 slots, {elapsed:.1f}s"
            + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_5_normalization_and_gram(acceptance_log):
    t0 = time.perf_counter()
    tol = mp.mpf("1e-60")
    worst_norm = mp.mpf(0)
    worst_diag = mp.mpf(0)
    bad = []
    specs = ((1, Fraction(1, 2), -1), (80, Fraction(3, 2), 1))
    for Z, j, eps in specs:
        ch = make_channel(make_params(Z=Z), j, eps)
        start = 1 if eps == 1 else 0
        for n in range(start, 11):
            pair = wf.normalize(wf.assemble(ld.build_state(ch, n, PREC)))
            with mp.workprec(PREC):
                err = abs(norm_integral(pair) - 1)
                worst_norm = max(worst_norm, err)
                if err > tol:
                    bad.append((Z, str(j), eps, n, "norm"))
        gram = embedded_gram(vf.orthonormality_matrix(ld.climb(ch, 5, PREC), range(6)), PREC)
        with mp.workprec(PREC):
            for a in range(6):
                for b in range(6):
                    if a == b:
                        err = abs(gram[a][a] - 1)
                        worst_diag = max(worst_diag, err)
                        if err > tol:
                            bad.append((Z, str(j), eps, a, "gram diagonal"))
                    elif not (isinstance(gram[a][b], int) and gram[a][b] == 0):
                        bad.append((Z, str(j), eps, (a, b), "gram off-diagonal"))
    elapsed = time.perf_counter() - t0
    ok = not bad
    _finish(acceptance_log, 5, "unit normalization and orthogonality", ok,
            f"norm err <= {mp.nstr(worst_norm, 3)}, Gram diag err <= "
            f"{mp.nstr(worst_diag, 3)} (tol 1e-60 at 256 bits), off-diagonals "
            f"exact integer zeros, {elapsed:.1f}s"
            + (f"; first failure {bad[0]}" if bad else ""))


def test_criterion_6_ground_state_and_bohr_limit(acceptance_log):
    t0 = time.perf_counter()
    ch = make_channel(make_params(Z=1), Fraction(1, 2), -1)
    pt = spectral_point(ch, 0, PREC)
    with mp.workprec(PREC + 64):
        c2 = mp.mpf(ch.params.c2.numerator) / ch.params.c2.denominator
        zeta = mp.mpf(ch.zeta.numerator) / ch.zeta.denominator
        closed = c2 * (mp.sqrt(1 - zeta * zeta) - 1)
        closed_err = abs(pt.binding - closed)
        decimal_err = abs(pt.binding - mp.mpf("-0.5000066566"))
    table = nonrelativistic_limit_table(Fraction(1, 2), -1, 0,
                                        c_schedule=("1e2", "1e3", "1e4"),
                                        Z=1, precision=PREC)
    exponent = float(table.fitted_exponent)
    elapsed = time.perf_counter() - t0
    ok = (closed_err < mp.mpf("1e-70")
          and decimal_err < mp.mpf("5e-11")
          and abs(exponent + 2) <= 0.1)
    _finish(acceptance_log, 6, "ground-state value and Bohr limit", ok,
            f"binding matches c^2(sqrt(1-zeta^2)-1) to {mp.nstr(closed_err, 3)}, "
            f"-0.5000066566 to {mp.nstr(decimal_err, 3)}, correction exponent "
            f"{exponent:.4f} in -2 +- 0.1, {elapsed:.1f}s")


def test_criterion_7_grading_operator_diagonality(acceptance_log):
    t0 = time.perf_counter()
    tol = mp.mpf("1e-60")
    params = make_params(Z=1)
    records = jl.diagonality_scan(params, Fraction(5, 2), 3, PREC)
    labels = sorted(r.spectroscopic_label for r in records if r.is_diagonal)
    worst = mp.mpf(0)
    bad = []
    for r in records:
        ch, n = r.channel, r.n
        w = exact_w(ch, n)
        # S^-1 M S is diagonal iff pq/c^2 = zeta/w: with u = E/c^2 = (s+n)/w,
        # u^2 + (zeta/w)^2 = 1, decided in Q(s)[w]
        u, zw = (ch.s + n) / w, w.inverse() * ch.zeta
        if not (u * u + zw * zw - 1).is_zero:
            bad.append((str(ch.j), ch.eps, n, "pq/c^2 != zeta/w"))
        # each printed coefficient embeds the tower element zeta(1 -+ tau/w)
        ratio = ch.qs(ch.tau) / w
        exact = ((1 - ratio) * ch.zeta, (1 + ratio) * ch.zeta)
        with mp.workprec(PREC):
            err = max(abs(r.coeff_minus - exact[0].embed(PREC)),
                      abs(r.coeff_plus - exact[1].embed(PREC)))
            worst = max(worst, err)
            if err > tol:
                bad.append((str(ch.j), ch.eps, n, "coefficient"))
    elapsed = time.perf_counter() - t0
    ok = labels == ["1s", "2p", "3d"] and not bad
    _finish(acceptance_log, 7, "invariant diagonal exactly on 1s, 2p, 3d", ok,
            f"diagonal set {{{', '.join(labels)}}} decided on the windows, "
            f"pq/c^2 = zeta/w decided and coefficients within "
            f"{mp.nstr(worst, 3)} <= 1e-60 of the tower elements over "
            f"{len(records)} slots, {elapsed:.1f}s"
            + (f"; first failure {bad[0]}" if bad else ""))
