"""The shooting oracle: its boundary (loaded only when it runs, reached by
its old names), its accuracy over the whole validated domain, its seeds,
its Taylor stepper against the regular series and on steps it must
refuse, and its mismatch function against an independent reference
integration (scipy's solve_ivp, the one use of scipy)."""

import json
import math
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

import dirac_su11
from dirac_su11 import cli, oracle, verify
from dirac_su11.params import channel_slots, make_params

REEXPORTED = ("BracketingError", "OracleResult", "shooting_oracle",
              "shooting_oracle_batch", "oracle_sweep", "oracle_binding_residual",
              "ORACLE_N_CAP", "ORACLE_REL_TOL")


def test_old_names_are_the_oracle_objects():
    for name in REEXPORTED:
        assert getattr(dirac_su11, name) is getattr(verify, name) is getattr(oracle, name)
    # once read, a name is bound in verify as an import would have bound
    # it, so a patch by identity across module namespaces reaches it
    assert all(vars(verify)[name] is getattr(oracle, name) for name in REEXPORTED)


def test_private_and_unknown_names_do_not_resolve():
    # a test still patching verify._shoot fails here instead of spying on
    # nothing
    for name in ("_shoot", "_ROUND_CAP", "no_such_name"):
        assert not hasattr(verify, name)
        assert not hasattr(dirac_su11, name)


def test_star_import():
    namespace = {}
    exec("from dirac_su11 import *", namespace)
    assert set(dirac_su11.__all__) <= set(namespace)
    assert namespace["shooting_oracle"] is oracle.shooting_oracle


CHILD = r"""
import contextlib, io, json, sys
from dirac_su11 import cli

def heavy():
    return sorted(m for m in ("numpy", "scipy", "dirac_su11.oracle") if m in sys.modules)

report = {"after_import": heavy(), "codes": []}
quick = ["--Z", "1", "--j-max", "1/2", "--n-max", "1"]
for argv in (["spectrum"], ["state", "--Z", "1", "--j", "1/2", "--eps", "-1", "--n", "3"],
             ["jl"], ["limit"], ["verify", *quick, "--skip-oracle"]):
    with contextlib.redirect_stdout(io.StringIO()):
        report["codes"].append(cli.main(argv))
report["after_exact_commands"] = heavy()
with contextlib.redirect_stdout(io.StringIO()):
    report["oracle_code"] = cli.main(["verify", *quick])
report["after_oracle"] = heavy()
print(json.dumps(report))
"""


def test_numpy_and_scipy_load_only_with_the_oracle():
    proc = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_import"] == []
    assert report["codes"] == [0] * 5
    assert report["after_exact_commands"] == []
    assert report["oracle_code"] == 0
    assert report["after_oracle"] == ["dirac_su11.oracle", "numpy"]


# -- the validated domain ---------------------------------------------------------


def domain_levels(Zs):
    """Every bound level with j <= 7/2 and n <= ORACLE_N_CAP at each Z."""
    return [(ch, n) for Z in Zs
            for ch, rungs in channel_slots(make_params(Z=Z), Fraction(7, 2), oracle.ORACLE_N_CAP)
            for n in rungs if ch.is_bound(n)]


def test_accuracy_over_the_validated_domain():
    # both ends of the physical range, every j <= 7/2, both eps, every n up
    # to the cap: 168 levels in one batch
    levels = domain_levels((1, 118))
    assert len(levels) == 168
    worst = max(oracle.oracle_binding_residual(ch, n, res)
                for (ch, n), res in zip(levels, oracle.shooting_oracle_batch(levels)))
    assert worst <= 1e-12


def test_every_empty_slot_of_the_domain_is_named():
    empty = [(ch, 0) for Z in (1, 60, 118)
             for ch, _ in channel_slots(make_params(Z=Z), Fraction(7, 2), 0)
             if ch.eps == 1]
    assert len(empty) == 12 and not any(ch.is_bound(n) for ch, n in empty)
    with pytest.raises(oracle.BracketingError) as info:
        oracle.shooting_oracle_batch(empty)
    assert info.value.slots == tuple(empty)


# -- the inward seed -----------------------------------------------------------------


def seed_residuals(zeta, tau, nu, rho):
    """Both equations of the system, rho F' = -tau F + (rho + zeta nu) G and
    rho G' = tau G + (rho - zeta/nu) F, on F = e^-rho rho^sigma S_F and
    G = e^-rho rho^sigma S_G with (S_F, S_G) the seed's sums at rho, each
    divided by e^-rho rho^sigma; S' is taken by a complex step, so it is
    exact to rounding. Returns both residuals and the sums."""
    h = 1e-20
    f, g = oracle._asymptotic_seed(zeta, tau, nu, rho + 1j * h)
    df, dg = f.imag / h, g.imag / h
    f, g = f.real, g.real
    zn, zi = zeta * nu, zeta / nu
    sigma = (zi - zn) / 2
    return (rho * df + (sigma - rho + tau) * f - (rho + zn) * g,
            rho * dg + (sigma - rho - tau) * g - (rho - zi) * f, f, g)


def test_inward_seed_solves_the_system_to_its_first_omitted_term(monkeypatch):
    # levels n = 1, 5, 10 of the domain at three Z, each at a trial nu a
    # third of the way into its bracket, off the closed-form value
    levels = [(ch, n) for ch, n in domain_levels((1, 60, 118)) if n in (1, 5, 10)]
    assert len(levels) == 72
    s = np.array([float(ch.s.embed(64)) for ch, _ in levels])
    zeta = np.array([float(ch.zeta) for ch, _ in levels])
    tau = np.array([float(ch.tau) for ch, _ in levels])
    n = np.array([float(k) for _, k in levels])
    lo = oracle._nu_of_index(s, zeta, n + 0.5)
    nu = lo + 0.3 * (oracle._nu_of_index(s, zeta, n - 0.5) - lo)
    # at rho = 2 the truncation stands far above rounding; one more term
    # of each sum is the first one omitted
    r1, r2, f, g = seed_residuals(zeta, tau, nu, 2.0)
    monkeypatch.setattr(oracle, "_ASYMPTOTIC_TERMS", oracle._ASYMPTOTIC_TERMS + 1)
    _, _, f_next, g_next = seed_residuals(zeta, tau, nu, 2.0)
    monkeypatch.undo()
    omitted = 2.0 * ((f_next - f) + (g_next - g))
    assert np.all(omitted != 0)
    assert np.max(np.abs(r1 / omitted - 1)) <= 1e-2
    assert np.max(np.abs(r2 / omitted - 1)) <= 1e-2
    # where the inward half starts, the seed solves both equations to
    # float64 rounding
    rho_inf = 2.0 * (n + s) + oracle._INWARD_DECAY
    r1, r2, f, g = seed_residuals(zeta, tau, nu, rho_inf)
    scale = rho_inf * np.hypot(f, g)
    assert np.max(np.maximum(np.abs(r1), np.abs(r2)) / scale) <= 1e-13


# -- the outward seed ----------------------------------------------------------------


def exact(x):
    """A Fraction in the current mpmath precision."""
    return mp.mpf(x.numerator) / x.denominator


def regular_seed_residuals(levels, nu, rho):
    """Both equations of the system, rho F' = -tau F + (rho + zeta nu) G and
    rho G' = tau G + (rho - zeta/nu) F, on F = rho^s S_F and G = rho^s S_G
    with (S_F, S_G) the outward seed's sums at rho, each divided by rho^s.
    The seed is summed in 40-digit arithmetic on each channel's exact s,
    zeta and tau, so the residual is its truncation alone: in float64 the
    inputs miss s^2 = tau^2 - zeta^2 by a rounding, and terms that cancel
    cost the sums up to 8e-14 at n = 10. S' is taken by a complex step.
    Returns the larger residual over rho |(S_F, S_G)| of each level, and
    the sums."""
    def column(values):
        return np.array(list(values), dtype=object)

    with mp.workdps(40):
        h = mp.mpf(10) ** -30
        s = column(ch.s.embed(160) for ch, _ in levels)
        zeta = column(exact(ch.zeta) for ch, _ in levels)
        tau = column(exact(ch.tau) for ch, _ in levels)
        nu = column(mp.mpf(x) for x in nu)
        f, g = oracle._regular_seed(s, zeta, tau, nu, mp.mpc(rho, h))
        df, dg = (column(v.imag / h for v in w) for w in (f, g))
        f, g = (column(v.real for v in w) for w in (f, g))
        r1 = rho * df + (s + tau) * f - (rho + zeta * nu) * g
        r2 = rho * dg + (s - tau) * g - (rho - zeta / nu) * f
        scale = column(rho * mp.hypot(a, b) for a, b in zip(f, g))
        worst = column(max(abs(a), abs(b)) for a, b in zip(r1, r2)) / scale
        return worst, f, g


def test_outward_seed_solves_the_system_where_the_outward_half_starts(monkeypatch):
    # levels n = 1, 5, 10 of the domain at three Z, each at a trial nu a
    # third of the way into its bracket, off the closed-form value
    levels = [(ch, n) for ch, n in domain_levels((1, 60, 118)) if n in (1, 5, 10)]
    assert len(levels) == 72
    s = np.array([float(ch.s.embed(64)) for ch, _ in levels])
    zeta = np.array([float(ch.zeta) for ch, _ in levels])
    n = np.array([float(k) for _, k in levels])
    lo = oracle._nu_of_index(s, zeta, n + 0.5)
    nu = lo + 0.3 * (oracle._nu_of_index(s, zeta, n - 0.5) - lo)
    worst, f, g = regular_seed_residuals(levels, nu, oracle._RHO0)
    assert max(worst) <= 1e-13
    # one more term moves the sums by less than a float64 rounding, so
    # _SERIES_TERMS terms are enough at _RHO0
    monkeypatch.setattr(oracle, "_SERIES_TERMS", oracle._SERIES_TERMS + 1)
    _, f_next, g_next = regular_seed_residuals(levels, nu, oracle._RHO0)
    moved = [mp.hypot(a - c, b - d) / mp.hypot(c, d)
             for a, b, c, d in zip(f_next, g_next, f, g)]
    assert max(moved) <= 2.0 ** -53


def test_outward_seed_first_coefficient_does_not_cancel():
    # on a tau < 0 channel s + tau is about -zeta^2 / (2 |tau|), so summed
    # from float64 s the form (s + tau) / (zeta nu) of b_0 keeps few digits
    # at small Z; the seed's b_0 (its sums at rho = 0) must match that form
    # summed from the channel's 200-bit s
    channels = [ch for Z in (1, 2, 10)
                for ch, _ in channel_slots(make_params(Z=Z), Fraction(7, 2), 0)
                if ch.tau < 0]
    assert len(channels) == 12
    s = np.array([float(ch.s.embed(64)) for ch in channels])
    zeta = np.array([float(ch.zeta) for ch in channels])
    tau = np.array([float(ch.tau) for ch in channels])
    nu = oracle._nu_of_index(s, zeta, np.zeros(len(channels)))
    f, b0 = oracle._regular_seed(s, zeta, tau, nu, 0.0)
    assert np.all(f == 1)
    with mp.workprec(200):
        want = [(ch.s.embed(200) + exact(ch.tau)) / (exact(ch.zeta) * mp.mpf(x))
                for ch, x in zip(channels, nu.tolist())]
        assert max(abs((b - w) / w) for b, w in zip(b0.tolist(), want)) <= 1e-15


# -- the Taylor stepper --------------------------------------------------------------


def float_lanes(levels):
    """s, zeta, tau and n of each level as float arrays."""
    return (np.array([float(ch.s.embed(64)) for ch, _ in levels]),
            np.array([float(ch.zeta) for ch, _ in levels]),
            np.array([float(ch.tau) for ch, _ in levels]),
            np.array([float(k) for _, k in levels]))


def sweep_lanes(Z):
    """The 14 bound levels of j <= 3/2, n <= 3 at Z, as float arrays."""
    return float_lanes([(ch, n) for ch, rungs in channel_slots(make_params(Z=Z), Fraction(3, 2), 3)
                        for n in rungs if ch.is_bound(n)])


def test_outward_steps_match_the_regular_series_at_the_match_point(monkeypatch):
    # the regular solution is rho^s times an entire series, so that series
    # summed at rho_match in 40 digits, on each channel's exact s, zeta and
    # tau, is a reference for the outward half; the same 72 levels and
    # trial nu as the seed tests. The steps start from the 40-digit sums at
    # _RHO0 rounded to float64, so only the stepper is measured: the
    # float64 seed's own sums are off by up to 8e-14 at n = 10
    levels = [(ch, n) for ch, n in domain_levels((1, 60, 118)) if n in (1, 5, 10)]
    assert len(levels) == 72
    s, zeta, tau, n = float_lanes(levels)
    lo = oracle._nu_of_index(s, zeta, n + 0.5)
    nu = lo + 0.3 * (oracle._nu_of_index(s, zeta, n - 0.5) - lo)
    # at rho_match <= 15 the sums settle to 40 digits well before 200 terms
    monkeypatch.setattr(oracle, "_SERIES_TERMS", 200)
    with mp.workdps(40):
        def column(values):
            return np.array(list(values), dtype=object)

        s_mp = column(ch.s.embed(160) for ch, _ in levels)
        exact_lanes = (s_mp, column(exact(ch.zeta) for ch, _ in levels),
                       column(exact(ch.tau) for ch, _ in levels),
                       column(mp.mpf(x) for x in nu.tolist()))
        f0, g0 = oracle._regular_seed(*exact_lanes, mp.mpf(oracle._RHO0))
        rho_match = column(k + x + 1 for k, x in zip(n.tolist(), s_mp))
        fr, gr = oracle._regular_seed(*exact_lanes, rho_match)
        # both sums drop the factor rho^s
        scale = column((r / oracle._RHO0) ** x for r, x in zip(rho_match, s_mp))
        fr, gr = fr * scale, gr * scale
    f0, g0 = (np.array([float(x) for x in v]) for v in (f0, g0))
    F, G, terms = oracle._taylor_steps(f0, g0, np.full(len(levels), oracle._RHO0),
                                       n + s + 1.0, zeta * nu, zeta / nu, tau)
    assert terms > 0
    worst = max(mp.hypot(a - c, b - d) / mp.hypot(c, d)
                for a, b, c, d in zip(F.tolist(), G.tolist(), fr, gr))
    assert worst <= 1e-14


@pytest.mark.parametrize("fraction, rho1", [(1.5, 1.2), (3.0, 1.8)])
def test_a_step_past_the_radius_raises(monkeypatch, fraction, rho1):
    # with |h| <= 3/2 rc or 3 rc allowed, 0.6 -> rho1 is one step of
    # h = rc or 2 rc: the singular point rho = 0 lies on or inside the
    # series' circle, and the stepper must raise, not return
    s, zeta, tau, n = sweep_lanes(40)
    nu = oracle._nu_of_index(s, zeta, n)
    monkeypatch.setattr(oracle, "_STEP_FRACTION", fraction)
    ones = np.ones(len(nu))
    with pytest.raises(AssertionError, match="did not converge in 60 terms"):
        oracle._taylor_steps(ones, 0 * ones, 0.6 * ones, rho1 * ones, zeta * nu, zeta / nu, tau)


def test_a_capped_series_raises(monkeypatch, capsys):
    # four terms leave every series far from done: the oracle raises, and
    # verify exits 3 instead of printing an unconverged level
    monkeypatch.setattr(oracle, "_TERM_CAP", 4)
    ch, n = domain_levels((1,))[0]
    with pytest.raises(AssertionError, match="did not converge in 4 terms"):
        oracle.shooting_oracle(ch, n)
    assert cli.main(["verify", "--Z", "1", "--j-max", "1/2", "--n-max", "1"]) == 3
    assert "did not converge in 4 terms" in capsys.readouterr().err


def test_a_lane_does_not_depend_on_the_others():
    # the 28 levels of j <= 3/2, n <= 3 at Z = 1 and 118, each at 8 trial
    # nu a few tolerances about its closed-form root, where the mismatch is
    # near zero and a trace of a longer series would show; each level shot
    # alone and inside the 224-lane solve gives the same mismatches,
    # although its lanes take other step and term counts than the solve's
    s, zeta, tau, n = (np.concatenate(v) for v in zip(sweep_lanes(1), sweep_lanes(118)))
    nu = oracle._nu_of_index(s, zeta, n)[:, None] * (1 + 2e-15 * np.arange(-4, 4))
    together, _ = oracle._shoot(*(v.repeat(8) for v in (s, zeta, tau, n)), nu.ravel())
    assert together.size == 224
    for i, row in enumerate(together.reshape(nu.shape)):
        alone, _ = oracle._shoot(*(np.full(8, v[i]) for v in (s, zeta, tau, n)), nu[i])
        assert np.array_equal(alone, row), i


# -- the mismatch function against a reference ---------------------------------------


def reference_mismatch(s, zeta, tau, n, nu):
    """The normalized Wronskian mismatch of each (level, nu) lane, from
    scipy's solve_ivp (DOP853, rtol 1e-13): (F, G) in x = ln rho, outward
    from a two-term series at rho = 1e-6 and inward from (1, -1) at
    rho = 40 + 10 n, both to rho = n + s + 1. Each half is one solve over
    all lanes; t in [0, 1] maps onto each lane's interval."""
    m = len(nu)
    zn, zi = zeta * nu, zeta / nu
    x_match = np.log(n + s + 1.0)

    def half(x_start, y0, atol):
        L = x_match - x_start

        def rhs(t, y):
            f, g = y[:m], y[m:]
            rho = np.exp(x_start + L * t)
            return np.concatenate((L * (-tau * f + (rho + zn) * g),
                                   L * (tau * g + (rho - zi) * f)))

        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-13,
                        atol=atol, t_eval=[1.0])
        assert sol.success, sol.message
        return sol.y[:m, -1], sol.y[m:, -1]

    rho0 = 1e-6
    g0 = (s + tau) / zn
    f1 = ((s + 1 - tau) * g0 + zn) / (2 * s + 1)
    g1 = ((s + 1 + tau) - zi * g0) / (2 * s + 1)
    fo, go = half(np.full(m, math.log(rho0)),
                  np.concatenate((1 + f1 * rho0, g0 + g1 * rho0)), 1e-14)
    fi, gi = half(np.log(40.0 + 10.0 * n), np.concatenate((np.ones(m), -np.ones(m))),
                  1e-300)
    return (fo * gi - fi * go) / (np.hypot(fo, go) * np.hypot(fi, gi))


def test_shoot_matches_the_reference_integration():
    # five trial nu across each level's bracket, ends included, over 252
    # levels; the mismatch lies in [-1, 1], so the bound is absolute
    levels = domain_levels((1, 60, 118))
    assert len(levels) == 252
    s = np.array([float(ch.s.embed(64)) for ch, _ in levels])
    zeta = np.array([float(ch.zeta) for ch, _ in levels])
    tau = np.array([float(ch.tau) for ch, _ in levels])
    n = np.array([float(k) for _, k in levels])
    lo = oracle._nu_of_index(s, zeta, n + 0.5)
    hi = oracle._nu_of_index(s, zeta, n - 0.5)
    nu = (lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 5)).ravel()
    lanes = [v.repeat(5) for v in (s, zeta, tau, n)]
    got, nfev = oracle._shoot(*lanes, nu)
    assert nfev > 0
    want = reference_mismatch(*lanes, nu)
    assert np.max(np.abs(got - want)) <= 1e-12
