"""Lowest-weight tower of radial states built by ladder operators.

A bound channel carries one discrete-series tower: the bottom state has
polynomial part 1 at mode lambda = s + 1/2 and each step up multiplies by
the mode-shift map

    pi_{n+1} = rho pi_n' + (s + mu + 1/2) pi_n - 2 rho pi_n,   mu = lambda + n,

which generates pi_n = n! L_n^{(2s)}(2 rho) with leading coefficient (-2)^n.
States are stored unnormalized with real polynomial parts (the phase i of
each application is bookkept separately); `ladder_norm` tracks the scalar
that makes the state a unit ket for the phase-averaged inner product,

    A_n = N_lam / sqrt(n! (2s+1)_n),    N_lam = 2^s / sqrt(Gamma(2s)).

A state holds the window (psi_plus, psi_minus) = (pi_n, pi_{n-1}): the pair
of adjacent tower polynomials the physical radial solution is assembled
from. Raising shifts the window, so the new psi_minus is the old psi_plus;
for n >= 1 this must agree with stepping the old psi_minus up, and that
route equivalence is asserted on every raise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import mpmath as mp

from .params import (
    DEFAULT_PRECISION,
    _GUARD,
    Channel,
    DomainError,
    SpectralPoint,
    spectral_point,
    tower_gap,
)
from .qsfield import QsNumber, QsPolynomial
from .algebra import (
    FamilyFunction,
    _step_down_poly,
    _step_up_poly,
    apply_casimir,
)

MAX_RUNG = 64


class RepresentationBoundaryError(DomainError):
    """Requested ladder coefficient below the lowest weight."""


@dataclass(frozen=True, slots=True)
class LadderState:
    """Rung n of a channel tower, polynomial parts unnormalized over Q(s)."""

    spectral: SpectralPoint
    psi_plus: QsPolynomial
    psi_minus: QsPolynomial
    ladder_norm: mp.mpf
    norm_constant: Optional[mp.mpf] = None

    @property
    def channel(self) -> Channel:
        return self.spectral.channel

    @property
    def n(self) -> int:
        return self.spectral.n

    @property
    def is_zero(self) -> bool:
        return self.psi_plus.is_zero and self.psi_minus.is_zero

    @property
    def is_physical(self) -> bool:
        return self.spectral.is_physical

    def plus_function(self) -> FamilyFunction:
        return FamilyFunction(self.channel, self.n, self.psi_plus)

    def minus_function(self) -> FamilyFunction:
        return FamilyFunction(self.channel, self.n - 1, self.psi_minus)

    def __str__(self) -> str:
        return f"|n={self.n}> on {self.channel}"


def ladder_coefficient(lam: QsNumber, mu: QsNumber, direction: str,
                       precision: int = DEFAULT_PRECISION) -> mp.mpf:
    """C_mu^+- = +-sqrt(mu(mu+-1) - lambda(lambda-1)).

    The radicand sign is decided exactly; a negative radicand means the
    requested step leaves the representation. The returned sign follows the
    stated convention; the tower code relies only on the magnitude, since
    the unit kets of this realization carry a phase i per raising step that
    makes <Xi+ Xi-> come out positive.
    """
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    step = 1 if direction == "+" else -1
    radicand = mu * (mu + step) - lam * (lam - 1)
    sgn = radicand.sign()
    if sgn < 0:
        raise RepresentationBoundaryError(
            "ladder coefficient radicand is negative: step leaves the tower")
    with mp.workprec(precision + _GUARD):
        root = mp.sqrt(radicand.embed(precision + _GUARD))
    with mp.workprec(precision):
        return +root if direction == "+" else -(+root)


def n_lambda_constant(channel: Channel, precision: int = DEFAULT_PRECISION) -> mp.mpf:
    """Bottom-rung ket normalizer 2^s / sqrt(Gamma(2s))."""
    with mp.workprec(precision + _GUARD):
        s = channel.s.embed(precision + _GUARD)
        val = mp.power(2, s) / mp.sqrt(mp.gamma(2 * s))
    with mp.workprec(precision):
        return +val


def ground_state(channel: Channel, precision: int = DEFAULT_PRECISION) -> LadderState:
    one = QsNumber.one(channel.s2)
    zero = QsNumber.zero(channel.s2)
    pt = spectral_point(channel, 0, precision)
    return LadderState(
        spectral=pt,
        psi_plus=QsPolynomial.from_coeffs([one], zero),
        psi_minus=QsPolynomial.zero_poly(zero),
        ladder_norm=n_lambda_constant(channel, precision),
    )


def _zero_state(channel: Channel, precision: int) -> LadderState:
    zero = QsNumber.zero(channel.s2)
    return LadderState(
        spectral=spectral_point(channel, 0, precision),
        psi_plus=QsPolynomial.zero_poly(zero),
        psi_minus=QsPolynomial.zero_poly(zero),
        ladder_norm=mp.mpf(0),
    )


def raise_state(state: LadderState) -> LadderState:
    ch = state.channel
    if state.is_zero:
        return state
    n = state.n
    if n + 1 > MAX_RUNG:
        raise DomainError(f"rung {n + 1} above the configured cap {MAX_RUNG}")
    new_plus = _step_up_poly(ch, n, state.psi_plus)
    new_minus = state.psi_plus
    if n >= 1:
        # window shift must agree with stepping the old psi_minus up
        routed = _step_up_poly(ch, n - 1, state.psi_minus)
        if not (routed - new_minus).is_zero:
            raise AssertionError("raise route mismatch between window halves")
    prec = state.spectral.precision
    gap = tower_gap(ch, n + 1)  # |C^+_{lam+n}|^2 = (n+1)(n+1+2s)
    with mp.workprec(prec + _GUARD):
        norm = state.ladder_norm / mp.sqrt(gap.embed(prec + _GUARD))
    with mp.workprec(prec):
        norm = +norm
    return LadderState(
        spectral=spectral_point(ch, n + 1, prec),
        psi_plus=new_plus,
        psi_minus=new_minus,
        ladder_norm=norm,
    )


def lower_state(state: LadderState) -> LadderState:
    ch = state.channel
    prec = state.spectral.precision
    if state.is_zero:
        return state
    n = state.n
    if n == 0:
        # annihilation: the step-down map sends the bottom rung to zero
        killed = _step_down_poly(ch, 0, state.psi_plus)
        if not killed.is_zero:
            raise AssertionError("step-down map failed to annihilate the bottom rung")
        return _zero_state(ch, prec)
    scale = tower_gap(ch, n).inverse() * -1  # B_mu pi_n = -n(n+2s) pi_{n-1}
    new_plus = _step_down_poly(ch, n, state.psi_plus).scale(scale)
    if not (new_plus - state.psi_minus).is_zero:
        raise AssertionError("lower route mismatch between window halves")
    zero = QsNumber.zero(ch.s2)
    if n == 1:
        new_minus = QsPolynomial.zero_poly(zero)
    else:
        scale2 = tower_gap(ch, n - 1).inverse() * -1
        new_minus = _step_down_poly(ch, n - 1, state.psi_minus).scale(scale2)
    gap = tower_gap(ch, n)
    with mp.workprec(prec + _GUARD):
        norm = state.ladder_norm * mp.sqrt(gap.embed(prec + _GUARD))
    with mp.workprec(prec):
        norm = +norm
    return LadderState(
        spectral=spectral_point(ch, n - 1, prec),
        psi_plus=new_plus,
        psi_minus=new_minus,
        ladder_norm=norm,
    )


def climb(channel: Channel, n: int, precision: int = DEFAULT_PRECISION) -> list:
    """Rungs 0..n of the channel tower, from one climb; each rung is checked
    once, before the next is raised (leading coefficient, degree, Casimir
    eigenvalue)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("rung index must be a nonnegative integer")
    if n > MAX_RUNG:
        raise DomainError(f"rung {n} above the configured cap {MAX_RUNG}")
    rungs = [ground_state(channel, precision)]
    _check_rung(rungs[0])
    for _ in range(n):
        rungs.append(raise_state(rungs[-1]))
        _check_rung(rungs[-1])
    return rungs


def build_state(channel: Channel, n: int, precision: int = DEFAULT_PRECISION) -> LadderState:
    """Rung n of the channel tower: the top of one climb."""
    return climb(channel, n, precision)[-1]


def _check_rung(state: LadderState) -> None:
    ch = state.channel
    n = state.n
    # leading coefficient of pi_n is (-2)^n exactly
    lead = state.psi_plus.leading
    expected = ch.qs(Fraction((-2) ** n))
    if not (lead - expected).is_zero:
        raise AssertionError(f"rung {n} leading coefficient is not (-2)^n")
    if state.psi_plus.degree != n:
        raise AssertionError(f"rung {n} polynomial degree mismatch")
    scaled = apply_casimir(state.plus_function())
    if not (scaled.scale.re - ch.qs(ch.xi)).is_zero or not scaled.scale.im.is_zero:
        raise AssertionError(f"rung {n} is not a Casimir eigenstate")


def ket_norm_squared(state: LadderState, precision: Optional[int] = None) -> mp.mpf:
    """<psi_plus, psi_plus> under the phase-averaged inner product."""
    from .algebra import inner_product

    prec = precision or state.spectral.precision
    val = inner_product(state.plus_function(), state.plus_function(), prec)
    return val if isinstance(val, mp.mpf) else mp.mpf(val)


def with_norm_constant(state: LadderState, value: mp.mpf) -> LadderState:
    return replace(state, norm_constant=value)
