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
from. Raising shifts the window, so the new psi_minus is the old psi_plus.

The algebra sees a channel only through lambda = s + 1/2, so with s kept
as a symbol the map above has coefficients in Z[s] and so does every pi_n.
One universal tower in Z[s][rho], held as plain Python ints, is climbed
on demand up to MAX_RUNG, and each rung n is decided there once per
process, for every channel at once:

- the window shift: lowering pi_n from mode lambda + n returns
  -n(n+2s) pi_{n-1}, the window's other half;
- the leading coefficient (-2)^n and the degree n;
- the explicit Casimir d^2/dx^2 - e^{2x} - 2i e^x d/dphi - 1/4 equals the
  composed Xi3^2 - Xi1^2 - Xi2^2, both times 4 so they stay integral;
- its eigenvalue: 4 times the Casimir is (4s^2 - 1) pi_n;
- pi_n = n! L_n^{(2s)}(2 rho), against the three-term Laguerre recurrence.

A channel's rungs are the image of the universal ones under the ring map
Z[s] -> Q(s), s^2 -> tau^2 - zeta^2. An identity in Z[s][rho] holds under
every such map, so each is decided for all channels. Per channel there
remains one rational test, xi = s^2 - 1/4, which ties the channel's
Casimir value to the universal eigenvalue; everything that involves tau,
zeta or w (verify, wavefunctions) is decided per channel.
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
from .qsfield import QsPolynomial, Quadratic
from .algebra import FamilyFunction, _step_down_poly, inner_product

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

    def __str__(self) -> str:
        return f"|n={self.n}> on {self.channel}"


def ladder_coefficient(lam: Quadratic, mu: Quadratic, direction: str,
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
    """Rung 0 of the channel tower; every tower of a channel starts here, so
    here the channel's xi is tied to the universal Casimir eigenvalue."""
    if channel.xi != channel.s2 - Fraction(1, 4):
        raise AssertionError(
            f"{channel}: xi is not s^2 - 1/4, the universal Casimir eigenvalue")
    zero = Quadratic.zero(channel.s2)
    pt = spectral_point(channel, 0, precision)
    return LadderState(
        spectral=pt,
        psi_plus=tower_image(channel, 0),
        psi_minus=QsPolynomial.zero_poly(zero),
        ladder_norm=n_lambda_constant(channel, precision),
    )


def _zero_state(channel: Channel, precision: int) -> LadderState:
    zero = Quadratic.zero(channel.s2)
    return LadderState(
        spectral=spectral_point(channel, 0, precision),
        psi_plus=QsPolynomial.zero_poly(zero),
        psi_minus=QsPolynomial.zero_poly(zero),
        ladder_norm=mp.mpf(0),
    )


def raise_state(state: LadderState) -> LadderState:
    """Rung n+1: the window shifts, and its new top half is the image of
    universal rung n+1."""
    ch = state.channel
    if state.is_zero:
        return state
    n = state.n
    if n + 1 > MAX_RUNG:
        raise DomainError(f"rung {n + 1} above the configured cap {MAX_RUNG}")
    prec = state.spectral.precision
    gap = tower_gap(ch, n + 1)  # |C^+_{lam+n}|^2 = (n+1)(n+1+2s)
    with mp.workprec(prec + _GUARD):
        norm = state.ladder_norm / mp.sqrt(gap.embed(prec + _GUARD))
    with mp.workprec(prec):
        norm = +norm
    return LadderState(
        spectral=spectral_point(ch, n + 1, prec),
        psi_plus=tower_image(ch, n + 1),
        psi_minus=state.psi_plus,
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
    zero = Quadratic.zero(ch.s2)
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
    """Rungs 0..n of the channel tower, from one climb. Universal rung k is
    decided before rung k of any channel is built, so a bad rung fails with
    its own message and nothing above it is raised."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("rung index must be a nonnegative integer")
    if n > MAX_RUNG:
        raise DomainError(f"rung {n} above the configured cap {MAX_RUNG}")
    rungs = [ground_state(channel, precision)]
    for _ in range(n):
        rungs.append(raise_state(rungs[-1]))
    return rungs


def build_state(channel: Channel, n: int, precision: int = DEFAULT_PRECISION) -> LadderState:
    """Rung n of the channel tower: the top of one climb."""
    return climb(channel, n, precision)[-1]


# -- the universal tower in Z[s][rho] -----------------------------------------
#
# A polynomial in Z[s][rho] is a dict {(i, k): c} of its nonzero terms
# c rho^i s^k, so two polynomials are equal iff their dicts are.

_TOWER: list = []   # decided universal rungs pi_0, pi_1, ...; never built at import


def _comb(*terms) -> dict:
    """The sum of c rho^i s^k P over the (c, i, k, P) terms."""
    out: dict = {}
    for c, i, k, poly in terms:
        for (a, b), v in poly.items():
            key = (a + i, b + k)
            out[key] = out.get(key, 0) + c * v
    return {key: v for key, v in out.items() if v}


def _euler(poly: dict) -> dict:
    """rho d/drho."""
    return {(i, k): i * v for (i, k), v in poly.items() if i}


def _up(n: int, poly: dict) -> dict:
    """Raise from mode lambda + n: rho q' + (2s + n + 1) q - 2 rho q."""
    return _comb((1, 0, 0, _euler(poly)), (2, 0, 1, poly), (n + 1, 0, 0, poly),
                 (-2, 1, 0, poly))


def _down(n: int, poly: dict) -> dict:
    """Lower from mode lambda + n: rho q' + (s - mu + 1/2) q = rho q' - n q."""
    return _comb((1, 0, 0, _euler(poly)), (-n, 0, 0, poly))


def _casimir_explicit4(n: int, poly: dict) -> dict:
    """4 (D1^2 q - rho^2 q + 2 mu rho q - q/4) at mu = lambda + n, with
    D1 q = rho q' + (s - rho) q, as algebra.casimir_explicit."""
    def d1(q):
        return _comb((1, 0, 0, _euler(q)), (1, 0, 1, q), (-1, 1, 0, q))

    return _comb((4, 0, 0, d1(d1(poly))), (-4, 2, 0, poly), (8, 1, 1, poly),
                 (4 * (2 * n + 1), 1, 0, poly), (-1, 0, 0, poly))


def _casimir_composed4(n: int, poly: dict) -> dict:
    """4 (Xi3^2 - Xi1^2 - Xi2^2) at mode mu = lambda + n. Xi1^2 + Xi2^2 is
    (Xi+ Xi- + Xi- Xi+)/2, and Xi+- carry a factor i each, so 4 times the
    Casimir is (2 mu)^2 q + 2 up(down q) + 2 down(up q)."""
    return _comb((4, 0, 2, poly), (4 * (2 * n + 1), 0, 1, poly), ((2 * n + 1) ** 2, 0, 0, poly),
                 (2, 0, 0, _up(n - 1, _down(n, poly))), (2, 0, 0, _down(n + 1, _up(n, poly))))


def _laguerre_next(k: int, cur: dict, prev: dict) -> dict:
    """(k+1)! L_{k+1} from k! L_k and (k-1)! L_{k-1} at alpha = 2s, y = 2 rho:
    (k+1) L_{k+1} = (2k + 1 + alpha - y) L_k - (k + alpha) L_{k-1}."""
    return _comb((2 * k + 1, 0, 0, cur), (2, 0, 1, cur), (-2, 1, 0, cur),
                 (-k * k, 0, 0, prev), (-2 * k, 0, 1, prev))


def _decide_casimir(n: int, poly: dict) -> None:
    """Both Casimir routes agree on poly at mode lambda + n, and their value
    is (s^2 - 1/4) poly; all times 4."""
    explicit = _casimir_explicit4(n, poly)
    if explicit != _casimir_composed4(n, poly):
        raise AssertionError(f"universal rung {n}: explicit and composed Casimir disagree")
    if explicit != _comb((4, 0, 2, poly), (-1, 0, 0, poly)):
        raise AssertionError(f"universal rung {n} is not a Casimir eigenstate")


def _decide_rung(n: int, poly: dict, below: list) -> None:
    """Decide the identities of universal rung n, given the decided rungs
    below it; raise AssertionError naming the first that fails."""
    if {key: v for key, v in poly.items() if key[0] == n} != {(n, 0): (-2) ** n}:
        raise AssertionError(f"universal rung {n} leading coefficient is not (-2)^n")
    if max(i for i, _ in poly) != n:
        raise AssertionError(f"universal rung {n} polynomial degree mismatch")
    if n >= 1 and _down(n, poly) != _comb((-n * n, 0, 0, below[n - 1]),
                                          (-2 * n, 0, 1, below[n - 1])):
        raise AssertionError(f"universal rung {n} window shift: lowering does "
                             "not return -n(n+2s) pi_(n-1)")
    _decide_casimir(n, poly)
    laguerre = {(0, 0): 1} if n == 0 else _laguerre_next(
        n - 1, below[n - 1], below[n - 2] if n >= 2 else {})
    if poly != laguerre:
        raise AssertionError(f"universal rung {n} is not n! L_n^(2s)(2 rho)")


def _raise_universal(n: int, poly: dict) -> dict:
    """Universal rung n+1 from rung n."""
    return _up(n, poly)


def universal_rung(n: int) -> dict:
    """pi_n in Z[s][rho], decided; the tower is climbed to n on first use."""
    if not 0 <= n <= MAX_RUNG:
        raise DomainError(f"rung {n} outside 0..{MAX_RUNG}")
    while len(_TOWER) <= n:
        k = len(_TOWER)
        poly = {(0, 0): 1} if k == 0 else _raise_universal(k - 1, _TOWER[-1])
        _decide_rung(k, poly, _TOWER)
        _TOWER.append(poly)
    return _TOWER[n]


def tower_image(channel: Channel, n: int) -> QsPolynomial:
    """Universal rung n under s^2 -> s2: the channel's pi_n over Q(s).

    With s2 = p/q, the coefficient sum_k c_k s^k becomes
    (sum_k c_k p^(k//2) q^(top - k//2)) / q^top in the part of s^(k%2),
    handed to Q(s) as that integer triple, with no gcd."""
    poly = universal_rung(n)
    s2 = channel.s2
    p, q = s2.numerator, s2.denominator
    top = max(k for _, k in poly) // 2
    weight = [p ** m * q ** (top - m) for m in range(top + 1)]
    parts = [[0, 0] for _ in range(n + 1)]
    for (i, k), c in poly.items():
        parts[i][k & 1] += c * weight[k >> 1]
    den = q ** top
    # the leading coefficient (-2)^n is decided nonzero: no trailing zeros
    return QsPolynomial(tuple(Quadratic.from_ints(a, b, den, d=s2) for a, b in parts),
                        Quadratic.zero(s2))


def ket_norm_squared(state: LadderState) -> mp.mpf:
    """<psi_plus, psi_plus> under the phase-averaged inner product."""
    val = inner_product(state.plus_function(), state.plus_function(),
                        state.spectral.precision)
    return val if isinstance(val, mp.mpf) else mp.mpf(val)


def with_norm_constant(state: LadderState, value: mp.mpf) -> LadderState:
    return replace(state, norm_constant=value)
