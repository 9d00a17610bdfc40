"""Lowest-weight tower of radial states built by ladder operators.

A bound channel carries one discrete-series tower: the bottom state has
polynomial part 1 at mode lambda = s + 1/2, and each step up from mode
lambda + n applies the real part of Xi+ there (`algebra.GENERATORS`),
which generates pi_n = n! L_n^{(2s)}(2 rho) with leading coefficient
(-2)^n. States are stored unnormalized with real polynomial parts (the
phase i of each application is bookkept separately); the scalar that makes
the state a unit ket for the phase-averaged inner product is

    A_n = N_lam / sqrt(n! (2s+1)_n),    N_lam = 2^s / sqrt(Gamma(2s)),

and `verify` decides in Q(s) that it does (the Gram diagonal).

A state holds the window (psi_plus, psi_minus) = (pi_n, pi_{n-1}): the pair
of adjacent tower polynomials the physical radial solution is assembled
from. Raising shifts the window, so the new psi_minus is the old psi_plus.

The algebra sees a channel only through lambda = s + 1/2, so with s kept
as a symbol the map above has coefficients in Z[s] and so does every pi_n.
One universal tower in Z[s][rho], held as plain Python ints, is climbed
on demand up to MAX_RUNG. Its steps are the decided image of Xi+ from
`algebra.universal_images` (the one transcription of the generators,
whose structure relations and Casimir routes are decided there for every
family member), and each rung n is decided once per process, for every
channel at once:

- the window shift: lowering pi_n from mode lambda + n returns
  -n(n+2s) pi_{n-1}, the window's other half, and lowering pi_0 returns 0;
- the leading coefficient (-2)^n and the degree n;
- the Casimir eigenvalue: 4 times the Casimir is (4s^2 - 1) pi_n;
- pi_n = n! L_n^{(2s)}(2 rho), against the three-term Laguerre recurrence.

A channel's rungs are the image of the universal ones under the ring map
Z[s] -> Q(s), s^2 -> tau^2 - zeta^2. An identity in Z[s][rho] holds under
every such map, so each is decided for all channels; raising a channel
state only moves its window along these images. Per channel there
remains one rational test, xi = s^2 - 1/4, which ties the channel's
Casimir value to the universal eigenvalue. The first-order radial rows,
which involve tau and w, are decided the same way, once per rung on the
universal window in Z[s, tau][w] (`verify.universal_rows`), and a
channel's rows at any w are read off them: on shell a channel decides
only the image of w's relation, and detuned each row is the window's
minus half times DETUNE w^2. A window that is not the image of the
universal one is refused. The rest that involves tau, zeta or w (the Gram
diagonal, wavefunctions) is decided per channel. The images of the last channel's
rungs are kept (`tower_image`), so a check that compares a window with
them finds the very objects the climb built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .params import (
    DEFAULT_PRECISION,
    Channel,
    DomainError,
    check_level,
    tower_gap,
)
from .qsfield import QsPolynomial, Quadratic
from .algebra import FamilyFunction, universal_map

MAX_RUNG = 64


@dataclass(frozen=True, slots=True)
class LadderState:
    """Rung n of a channel tower: the window (pi_n, pi_{n-1}), unnormalized
    over Q(s)."""

    channel: Channel
    n: int
    precision: int
    psi_plus: QsPolynomial
    psi_minus: QsPolynomial

    @property
    def is_physical(self) -> bool:
        return self.channel.is_bound(self.n)

    def plus_function(self) -> FamilyFunction:
        return FamilyFunction(self.channel, self.n, self.psi_plus)

    def __str__(self) -> str:
        return f"|n={self.n}> on {self.channel}"


def square_moment(channel: Channel, n: int, shift: int = 0) -> Quadratic:
    """The field moment of pi_n^2 (`algebra.field_moment`) by Laguerre
    orthogonality under rho^(2s) e^(-2 rho) (DLMF 18.3): n!(2s+1)_n, the
    product of the gaps k(k+2s) that the ket norms divide out, at shift 0;
    n!(2s)_(n+1)/2 = s n!(2s+1)_n at shift 1."""
    if shift not in (0, 1):
        raise ValueError("the square moment of pi_n has a closed form at shift 0 or 1")
    out = channel.s if shift else channel.qs(1)
    for k in range(1, n + 1):
        out = out * tower_gap(channel, k)
    return out


def ground_state(channel: Channel, precision: int = DEFAULT_PRECISION) -> LadderState:
    """Rung 0 of the channel tower, the window (pi_0, pi_(-1)) with pi_(-1)
    zero; every tower of a channel starts here, so here the channel's xi is
    tied to the universal Casimir eigenvalue."""
    if channel.xi != channel.s2 - Fraction(1, 4):
        raise AssertionError(
            f"{channel}: xi is not s^2 - 1/4, the universal Casimir eigenvalue")
    check_level(channel, 0)
    return LadderState(channel, 0, precision, tower_image(channel, 0),
                       QsPolynomial.zero_poly(Quadratic.zero(channel.s2)))


def raise_state(state: LadderState) -> LadderState:
    """Rung n+1: the window shifts, so the new psi_minus is the old
    psi_plus, and the new psi_plus is the image of universal rung n+1."""
    n = state.n + 1
    if n > MAX_RUNG:
        raise DomainError(f"rung {n} above the configured cap {MAX_RUNG}")
    check_level(state.channel, n)
    return LadderState(state.channel, n, state.precision,
                       tower_image(state.channel, n), state.psi_plus)


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


def _laguerre_next(k: int, cur: dict, prev: dict) -> dict:
    """(k+1)! L_{k+1} from k! L_k and (k-1)! L_{k-1} at alpha = 2s, y = 2 rho:
    (k+1) L_{k+1} = (2k + 1 + alpha - y) L_k - (k + alpha) L_{k-1}."""
    return _comb((2 * k + 1, 0, 0, cur), (2, 0, 1, cur), (-2, 1, 0, cur),
                 (-k * k, 0, 0, prev), (-2 * k, 0, 1, prev))


def _decide_casimir(n: int, poly: dict) -> None:
    """4 times the Casimir at mode lambda + n is (4s^2 - 1) poly."""
    if universal_map("casimir", n, poly) != _comb((4, 0, 2, poly), (-1, 0, 0, poly)):
        raise AssertionError(f"universal rung {n} is not a Casimir eigenstate")


def _decide_rung(n: int, poly: dict, below: list) -> None:
    """Decide the identities of universal rung n, given the decided rungs
    below it; raise AssertionError naming the first that fails."""
    if {key: v for key, v in poly.items() if key[0] == n} != {(n, 0): (-2) ** n}:
        raise AssertionError(f"universal rung {n} leading coefficient is not (-2)^n")
    if max(i for i, _ in poly) != n:
        raise AssertionError(f"universal rung {n} polynomial degree mismatch")
    lowered = _comb((-n * n, 0, 0, below[n - 1]), (-2 * n, 0, 1, below[n - 1])) if n else {}
    if universal_map("-", n, poly) != lowered:
        raise AssertionError(f"universal rung {n} window shift: lowering does "
                             "not return -n(n+2s) pi_(n-1)")
    _decide_casimir(n, poly)
    laguerre = {(0, 0): 1} if n == 0 else _laguerre_next(
        n - 1, below[n - 1], below[n - 2] if n >= 2 else {})
    if poly != laguerre:
        raise AssertionError(f"universal rung {n} is not n! L_n^(2s)(2 rho)")


def _raise_universal(n: int, poly: dict) -> dict:
    """Universal rung n+1 from rung n: the real part of Xi+ at mode lambda + n."""
    return universal_map("+", n, poly)


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


# the images of one channel's tower, the last channel asked for: each is
# kept with the universal rung it came from and served only while that rung
# is the one in _TOWER, so a state from the ladder holds the very image
# that `tower_image` returns again
_IMAGES: dict = {"channel": None, "rungs": {}}


def tower_image(channel: Channel, n: int) -> QsPolynomial:
    """Universal rung n under s^2 -> s2: the channel's pi_n over Q(s).

    With s2 = p/q, the coefficient sum_k c_k s^k becomes
    (sum_k c_k p^(k//2) q^(top - k//2)) / q^top in the part of s^(k%2),
    handed to Q(s) as that integer triple, with no gcd."""
    poly = universal_rung(n)
    if _IMAGES["channel"] != channel:
        _IMAGES["channel"], _IMAGES["rungs"] = channel, {}
    kept = _IMAGES["rungs"].get(n)
    if kept is not None and kept[0] is poly:
        return kept[1]
    s2 = channel.s2
    p, q = s2.numerator, s2.denominator
    top = max(k for _, k in poly) // 2
    weight = [p ** m * q ** (top - m) for m in range(top + 1)]
    parts = [[0, 0] for _ in range(n + 1)]
    for (i, k), c in poly.items():
        parts[i][k & 1] += c * weight[k >> 1]
    den = q ** top
    # the leading coefficient (-2)^n is decided nonzero: no trailing zeros
    image = QsPolynomial(tuple(Quadratic.from_ints(a, b, den, d=s2) for a, b in parts),
                         Quadratic.zero(s2))
    _IMAGES["rungs"][n] = (poly, image)
    return image
