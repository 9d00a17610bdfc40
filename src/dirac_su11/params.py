"""Physical parameters, channels, and the closed-form bound spectrum.

Units are Hartree atomic units with the velocity of light c kept explicit,
so rest energy is c^2 and the coupling is zeta = Z/c. A channel is fixed by
the total angular momentum j and the parity label eps = +-1 (eps = +1 when
the upper component has l = j + 1/2, eps = -1 when l = j - 1/2); its radial
quantum number is tau = eps (j + 1/2) and the defect exponent is the positive
root s of s^2 = tau^2 - zeta^2.

The discrete spectrum in channel (j, eps) is

    E_n = c^2 [1 + zeta^2 / (s + n)^2]^(-1/2),   n = 0, 1, 2, ...

degenerate in the sign of eps at fixed N = j + 1/2 + n. The bottom rung n = 0
solves the coupled first-order system only when tau < 0; the n = 0 entry of a
tau > 0 channel is an algebraic artifact carried by the representation theory
but absent from the physical spectrum, and is flagged as such downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import mpmath as mp
from mpmath.libmp import (from_int, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_pos, mpf_sqrt,
                          mpf_sub, prec_to_dps, round_nearest)

from .qsfield import Quadratic, Rational, _embed_raw, _frac, embed_fraction

DEFAULT_PRECISION = 256
_GUARD = 32
DETUNE = Fraction(1, 1000)  # relative shift of w^2 in every off-shell control

SCHEMA_TAG = "dirac-su11/1"

Z_MIN, Z_MAX = 1, 118  # xi = j(j+1) - zeta^2 stays positive at j = 1/2


class DomainError(ValueError):
    """Raised for parameter values outside the physical domain."""


@dataclass(frozen=True, slots=True)
class PhysicalParams:
    """Speed of light and nuclear charge, both exact."""

    c: Fraction
    Z: int

    @property
    def zeta(self) -> Fraction:
        return Fraction(self.Z) / self.c

    @property
    def c2(self) -> Fraction:
        return self.c * self.c


def make_params(c: Rational | str = "137.035999084", Z: int = 1) -> PhysicalParams:
    c = _frac(c)
    if c <= 0:
        raise DomainError("c must be positive")
    if not isinstance(Z, int) or not (Z_MIN <= Z <= Z_MAX):
        raise DomainError(f"Z must be an integer in [{Z_MIN}, {Z_MAX}]")
    return PhysicalParams(c, Z)


@dataclass(frozen=True, slots=True)
class Channel:
    """A (j, eps) relativistic channel with its exact derived constants."""

    params: PhysicalParams
    j: Fraction
    eps: int
    tau: Fraction
    s2: Fraction
    xi: Fraction
    # s, lambda = s + 1/2 (the Bargmann index of the discrete series) and zeta^2,
    # built once; equality, hash and key() read the fields above
    s: Quadratic = field(init=False, compare=False, repr=False)
    lam: Quadratic = field(init=False, compare=False, repr=False)
    zeta2: Fraction = field(init=False, compare=False, repr=False)
    _embedded: dict = field(init=False, compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "s", Quadratic.root(self.s2))
        object.__setattr__(self, "lam", Quadratic.of(Fraction(1, 2), 1, d=self.s2))
        object.__setattr__(self, "zeta2", self.zeta * self.zeta)

    @property
    def zeta(self) -> Fraction:
        return self.params.zeta

    def embedded(self, work: int) -> tuple:
        """(c^2, zeta, s, j + 1/2) as raw libmp tuples rounded to `work` bits,
        embedded on the first call at each precision; they die with the channel."""
        if work not in self._embedded:
            self._embedded[work] = tuple(_embed_raw(x, work) for x in (
                self.params.c2, self.zeta, self.s, self.j + Fraction(1, 2)))
        return self._embedded[work]

    def qs(self, a: Rational, b: Rational = 0) -> Quadratic:
        return Quadratic.of(a, b, d=self.s2)

    def key(self) -> tuple:
        return (self.params.c, self.params.Z, self.j, self.eps)

    def is_bound(self, n: int) -> bool:
        """The n = 0 rung of a tau > 0 channel solves no radial problem."""
        return not (n == 0 and self.tau > 0)

    def __str__(self) -> str:
        return f"channel(j={self.j}, eps={self.eps:+d}, Z={self.params.Z})"


def make_channel(params: PhysicalParams, j: Rational | str, eps: int) -> Channel:
    j = _frac(j)
    if j.denominator != 2 or j.numerator < 1:
        raise DomainError("j must be a positive half-odd-integer (denominator 2)")
    if eps not in (-1, 1):
        raise DomainError("eps must be +1 or -1")
    tau = eps * (j + Fraction(1, 2))
    zeta = params.zeta
    s2 = tau * tau - zeta * zeta
    if s2 <= 0:
        raise DomainError("tau^2 - zeta^2 <= 0: channel collapses at this coupling")
    xi = j * (j + 1) - zeta * zeta
    if xi != s2 - Fraction(1, 4):  # xi = lambda(lambda - 1) = s^2 - 1/4
        raise AssertionError("Casimir value xi is not s^2 - 1/4")
    return Channel(params, j, eps, tau, s2, xi)


def channel_slots(params: PhysicalParams, j_max: Rational, n_max: int):
    """Yield (channel, range(n_max + 1)) for j = 1/2, 3/2, ... <= j_max,
    eps = -1 before +1: the one channel walk. n_max is checked before j_max."""
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if j_max < Fraction(1, 2):
        raise DomainError("j_max must be at least 1/2")
    for twice_j in range(1, int(2 * j_max) + 1, 2):
        for eps in (-1, 1):
            yield make_channel(params, Fraction(twice_j, 2), eps), range(n_max + 1)


def tower_gap(channel: Channel, n: int) -> Quadratic:
    """mu(mu-1) - lambda(lambda-1) at mu = lambda + n, i.e. n(n + 2s)."""
    return channel.qs(n * n, 2 * n)


def tower_w2(channel: Channel, n: int) -> Quadratic:
    """w^2 = (s + n)^2 + zeta^2 as an element of Q(s).

    On shell this is tau^2 + n(n + 2s); it is built from s^2 itself so
    that checks of that relation decide it rather than restate it.
    """
    sn = channel.s + n
    return sn * sn + channel.zeta2


def off_shell_w2(channel: Channel, n: int) -> Quadratic:
    """w^2 scaled by 1 + DETUNE, read at call time: the one off-shell point
    of every negative control."""
    return tower_w2(channel, n) * (1 + DETUNE)


def exact_w(channel: Channel, n: int) -> Quadratic:
    """The positive root of w^2 = (s+n)^2 + zeta^2 as a tower element.

    At n = 0 the radicand is the perfect square tau^2 and the quotient ring
    Q(s)[w]/(w^2 - tau^2) has zero divisors, so the symbol form would make
    structural zero tests lie; there w is stored by its value |tau|.
    """
    w2 = tower_w2(channel, n)
    if n == 0:
        return Quadratic.of(channel.qs(abs(channel.tau)), d=w2)
    return Quadratic.root(w2)


@dataclass(frozen=True, slots=True)
class SpectralPoint:
    """One bound level: exact mode data plus embedded energy quantities."""

    channel: Channel
    n: int
    precision: int
    N: int                # principal quantum number j + 1/2 + n
    E: mp.mpf
    binding: mp.mpf       # E - c^2, computed cancellation-free
    eps_j: mp.mpf         # quantum defect j + 1/2 - s


def spectral_point(channel: Channel, n: int,
                   precision: int = DEFAULT_PRECISION) -> SpectralPoint:
    """Rung n as a level. c^2, zeta, s and j + 1/2 are embedded at precision
    + _GUARD once per channel (`Channel.embedded`); the level is computed
    from them on raw tuples by the libmp calls that mpmath's operators make
    under workprec, so its bits are theirs, and rounded once to precision."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be a nonnegative integer")
    check_level(channel, n)
    N = (channel.j.numerator + 1) // 2 + n  # j + 1/2 + n, with 2j = j.numerator
    work, rnd = precision + _GUARD, round_nearest
    c2, zeta, s, j_half = channel.embedded(work)
    sn = mpf_add(s, from_int(n), work, rnd)
    w = mpf_sqrt(mpf_add(mpf_mul(sn, sn, work, rnd), mpf_mul(zeta, zeta, work, rnd), work, rnd),
                 work, rnd)
    E = mpf_div(mpf_mul(c2, sn, work, rnd), w, work, rnd)
    # -c^2 zeta^2 / (w (s + n + w)): E - c^2 with no cancellation
    binding = mpf_div(mpf_mul(mpf_mul(mpf_neg(c2), zeta, work, rnd), zeta, work, rnd),
                      mpf_mul(w, mpf_add(sn, w, work, rnd), work, rnd), work, rnd)
    eps_j = mpf_sub(j_half, mpf_sub(sn, from_int(n), work, rnd), work, rnd)
    E, binding, eps_j = (mp.make_mpf(mpf_pos(x, precision, rnd)) for x in (E, binding, eps_j))
    return SpectralPoint(channel, n, precision, N, E, binding, eps_j)


def check_level(channel: Channel, n: int) -> None:
    """Decide in Q(s) that rung n of the channel is a bound level."""
    # E = c^2 (s + n)/w with w > 0, so 0 < E < c^2 iff s + n > 0 and
    # (s + n)^2 < w^2: decided in Q(s), whatever precision embeds E
    sn = channel.s + n
    if sn.sign() <= 0 or (tower_w2(channel, n) - sn * sn).sign() <= 0:
        raise AssertionError("bound-state energy left (0, c^2)")
    # representation bound 2 mu^2 >= xi, strict for bound modes
    mu = channel.lam + n
    if (2 * mu * mu - channel.qs(channel.xi)).sign() <= 0:
        raise AssertionError("representation bound 2 mu^2 >= xi violated")


# -- nonrelativistic limit ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class LimitRow:
    c: Fraction
    binding: mp.mpf
    bohr: mp.mpf
    difference: mp.mpf


@dataclass(frozen=True, slots=True)
class LimitTable:
    rows: tuple
    fitted_exponent: mp.mpf


def nonrelativistic_limit_table(
    j: Rational | str,
    eps: int,
    n: int,
    c_schedule: Sequence[Rational | str] = ("1e2", "1e3", "1e4"),
    Z: int = 1,
    precision: int = DEFAULT_PRECISION,
) -> LimitTable:
    """Binding energies against the Bohr value -Z^2/(2 N^2) along a c schedule.

    The difference is O(c^-2); the returned exponent is the least-squares
    slope of log |difference| against log c, which needs at least two
    distinct values of c. The n = 0 rung of a tau > 0 channel is no bound
    state, so it has no Bohr limit and raises DomainError.
    """
    if len({_frac(c) for c in c_schedule}) < 2:
        raise DomainError("c schedule needs at least two distinct values")
    rows = []
    xs, ys = [], []
    with mp.workprec(precision + _GUARD):
        for c in c_schedule:
            params = make_params(c, Z)
            ch = make_channel(params, j, eps)
            if not ch.is_bound(n):
                raise DomainError("bottom rung with tau > 0 is not a bound state")
            # the difference cancels most of the binding's leading bits, so
            # it is taken from the binding before that is rounded to precision
            pt = spectral_point(ch, n, precision + _GUARD)
            bohr = -mp.mpf(Z) ** 2 / (2 * mp.mpf(pt.N) ** 2)
            diff = pt.binding - bohr
            with mp.workprec(precision):
                binding = +pt.binding
            rows.append(LimitRow(params.c, binding, bohr, diff))
            xs.append(mp.log(embed_fraction(params.c, precision)))
            ys.append(mp.log(abs(diff)))
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        num = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
        den = sum((x - xbar) ** 2 for x in xs)
        slope = num / den
    with mp.workprec(precision):
        return LimitTable(tuple(rows), +slope)


# -- serialization ------------------------------------------------------------


def mp_str(x: mp.mpf, precision: int) -> str:
    """Deterministic decimal form carrying the full precision."""
    return mp.nstr(x, prec_to_dps(precision), strip_zeros=True)


def max_abs_embedded(elements, precision: int) -> mp.mpf:
    """The largest |x| over field elements, embedded at precision + _GUARD
    and rounded once to precision. A decided zero is never embedded, so
    all-zero elements give 0 without touching mpmath's embedding."""
    nonzero = [x for x in elements if not x.is_zero]
    if not nonzero:
        return mp.mpf(0)
    with mp.workprec(precision + _GUARD):
        mx = max(abs(x.embed(precision + _GUARD)) for x in nonzero)
    with mp.workprec(precision):
        return +mx
