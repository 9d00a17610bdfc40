"""Channel construction, closed-form spectrum, limits, serialization."""

from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_su11.params import (
    DomainError,
    channel_slots,
    make_channel,
    make_params,
    nonrelativistic_limit_table,
    spectral_point,
    tower_gap,
    tower_w2,
)
from dirac_su11.qsfield import Quadratic, embed_fraction

C_DEFAULT = Fraction("137.035999084")

# mpf string constants must be parsed at working precision, not at the
# 53-bit ambient default, or the comparisons below are meaningless
HP = 300


def chan(j="1/2", eps=-1, Z=1, c=C_DEFAULT):
    return make_channel(make_params(c, Z), j, eps)


def test_param_validation():
    with pytest.raises(DomainError):
        make_params(Z=0)
    with pytest.raises(DomainError):
        make_params(Z=119)
    with pytest.raises(DomainError):
        make_params(c=0)
    with pytest.raises(DomainError):
        make_channel(make_params(), "1", -1)
    with pytest.raises(DomainError):
        make_channel(make_params(), "1/2", 2)
    # supercritical coupling: zeta > j + 1/2
    with pytest.raises(DomainError):
        make_channel(make_params(c=Fraction(100), Z=118), "1/2", -1)


def test_channel_exact_relations():
    ch = chan("3/2", 1, Z=30)
    assert ch.tau == 2
    assert ch.s2 == 4 - ch.zeta ** 2
    assert ch.xi == ch.s2 - Fraction(1, 4)
    assert ch.xi == Fraction(3, 2) * Fraction(5, 2) - ch.zeta ** 2
    assert (ch.lam * (ch.lam - 1)).a == ch.xi
    assert (ch.s * ch.s).a == ch.s2


def test_s_and_lambda_are_built_once():
    # fields set at construction, outside equality, hash and key()
    ch = chan("3/2", 1, Z=30)
    assert ch.s is ch.s and ch.lam is ch.lam
    assert ch.s == Quadratic.root(ch.s2)
    assert ch.lam == ch.s + Fraction(1, 2)
    twin = replace(ch)
    assert twin == ch and hash(twin) == hash(ch) and twin.key() == ch.key()
    assert twin.s == ch.s and twin.lam == ch.lam
    assert ", s=" not in repr(ch) and ", lam=" not in repr(ch)


def test_ground_binding_frozen_digits():
    # thirty frozen digits of the closed-form hydrogen ground binding
    pt = spectral_point(chan(), 0)
    with mp.workprec(HP):
        ref = mp.mpf("-0.500006656596552625364279041866")
        assert abs(pt.binding - ref) < mp.mpf("1e-28")


def test_fine_structure_splits_j_not_eps():
    # same (N, j), opposite eps: exactly degenerate
    a = spectral_point(chan("1/2", -1), 1)
    b = spectral_point(chan("1/2", 1), 1)
    assert a.N == b.N == 2
    assert a.E == b.E
    # same N, different j: split
    c = spectral_point(chan("3/2", -1), 0)
    assert c.N == 2
    with mp.workprec(HP):
        ref_b = mp.mpf("-0.125002080189192073954410029524")
        ref_c = mp.mpf("-0.125000416028976458804863603251")
        assert abs(b.binding - ref_b) < mp.mpf("1e-28")
        assert abs(c.binding - ref_c) < mp.mpf("1e-28")
    assert b.E < c.E


def test_high_z_binding():
    pt = spectral_point(chan(Z=92), 0)
    with mp.workprec(HP):
        ref = mp.mpf("-4861.19790436971426617158119298")
        assert abs(pt.binding - ref) < mp.mpf("1e-24")


def test_unphysical_bottom_rung_flag():
    # the one rule: only the n = 0 rung of a tau > 0 channel is no bound state
    for j in ("1/2", "3/2", "5/2"):
        for eps in (-1, 1):
            ch = chan(j, eps)
            assert ch.is_bound(0) == (eps == -1)
            assert all(ch.is_bound(n) for n in (1, 2, 7))


def test_mu_and_w2_exact_forms():
    ch = chan("3/2", -1, Z=20)
    pt = spectral_point(ch, 3)
    assert pt.N == 5
    # w^2 = (s+n)^2 + zeta^2 and, on shell, tau^2 + n(n + 2s)
    lhs = tower_w2(ch, 3)
    s = ch.s
    assert lhs == (s + 3) * (s + 3) + ch.qs(ch.zeta ** 2)
    assert lhs == ch.qs(ch.tau ** 2) + tower_gap(ch, 3)
    assert tower_gap(ch, 3) == ch.qs(9, 6)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=4).map(lambda k: Fraction(2 * k + 1, 2)),
    st.sampled_from([-1, 1]),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=118),
)
def test_spectrum_invariants(j, eps, n, Z):
    params = make_params(Z=Z)
    ch = make_channel(params, j, eps)
    pt = spectral_point(ch, n, 128)
    with mp.workprec(160):
        c2 = embed_fraction(params.c2, 160)
        assert 0 < pt.E < c2
        assert pt.binding < 0
        assert abs((pt.E - c2) - pt.binding) < abs(pt.binding) * mp.mpf("1e-30")
        assert pt.eps_j > 0
    if n:
        below = spectral_point(ch, n - 1, 128)
        assert below.E < pt.E


def test_nonrelativistic_limit_exponent():
    table = nonrelativistic_limit_table("1/2", -1, 0)
    assert len(table.rows) == 3
    for row in table.rows:
        assert row.difference < 0  # relativistic depression
    with mp.workprec(HP):
        assert abs(table.fitted_exponent + 2) < mp.mpf("0.01")
    # higher channel, same power law
    table2 = nonrelativistic_limit_table("3/2", 1, 2, Z=3)
    with mp.workprec(HP):
        assert abs(table2.fitted_exponent + 2) < mp.mpf("0.01")



def test_limit_refuses_the_unphysical_bottom_rung():
    # the n = 0 rung of a tau > 0 channel is no bound state at any c
    with pytest.raises(DomainError, match="not a bound state"):
        nonrelativistic_limit_table("1/2", 1, 0)
    assert len(nonrelativistic_limit_table("1/2", 1, 1).rows) == 3


def _channels(params, j_max):
    return [ch for ch, _ in channel_slots(params, j_max, 0)]


def test_channel_grid():
    params = make_params(Z=3)
    grid = _channels(params, Fraction(5, 2))
    assert [(ch.j, ch.eps) for ch in grid] == [
        (Fraction(j, 2), eps) for j in (1, 3, 5) for eps in (-1, 1)]
    assert grid[3] == make_channel(params, "3/2", 1)
    # j_max need not be a half-odd integer itself
    assert len(_channels(params, Fraction(7, 3))) == 4
    assert len(_channels(params, 2)) == 4
    # an empty grid is refused, not returned
    for j_max in (0, Fraction(1, 3), Fraction(-1, 2)):
        with pytest.raises(DomainError):
            _channels(params, j_max)


def test_channel_slots():
    params = make_params(Z=3)
    # one (channel, rungs) pair per channel, channel by channel
    walk = list(channel_slots(params, Fraction(3, 2), 2))
    assert walk == [(ch, range(3)) for ch in _channels(params, Fraction(3, 2))]
    slots = [(ch, n) for ch, rungs in walk for n in rungs]
    assert slots == [(make_channel(params, Fraction(j, 2), eps), n)
                     for j in (1, 3) for eps in (-1, 1) for n in range(3)]
    assert [(ch, n) for ch, rungs in channel_slots(params, Fraction(1, 2), 0)
            for n in rungs] == [
        (make_channel(params, "1/2", -1), 0), (make_channel(params, "1/2", 1), 0)]
    # n_max is refused before j_max is read, with one message for every command
    with pytest.raises(DomainError, match="n_max must be nonnegative"):
        list(channel_slots(params, 0, -1))
    with pytest.raises(DomainError, match="j_max must be at least 1/2"):
        list(channel_slots(params, 0, 0))
