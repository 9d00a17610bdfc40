"""Johnson-Lippmann operator: the scalar invariant that grades the towers.

The operator anticommutes with the parity-like invariant of the Coulomb-
Dirac problem and commutes with the Hamiltonian, so on a bound channel it
acts inside the (F, iG) doublet as a 2x2 matrix

    M = [ zeta                 -i tau (c^2+E)/c^2 ]
        [ i tau (c^2-E)/c^2     zeta              ]

with zeta = Z/c and tau the signed angular invariant. The similarity
transform built from the tower decomposition F, G ~ (psi_minus +- psi_plus)
diagonalizes M identically:

    S = [ p   p  ]      S^-1 M S = diag( zeta(1 - tau/w), zeta(1 + tau/w) )
        [ -iq  iq ]

with p = sqrt(c^2+E), q = sqrt(c^2-E) and w = sqrt((s+n)^2 + zeta^2), since
pq/c^2 = zeta/w: with u = E/c^2 = (s+n)/w this is u^2 + (zeta/w)^2 = 1,
the definition of w. A state is an eigenvector precisely when one half of
its window (pi_n, -(w + tau) pi_(n-1)) is zero. pi_n never is; the minus
half is zero at n = 0, where pi_(-1) = 0, and above it iff w + tau = 0,
which the scan decides in Q(s)[w]. The tau > 0 bottoms carry no bound
state, so the diagonal bound states are the lowest rung of each tau < 0
channel: 1s, 2p, 3d, ...
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .params import (
    DEFAULT_PRECISION,
    _GUARD,
    SCHEMA_TAG,
    Channel,
    DomainError,
    PhysicalParams,
    channel_slots,
    exact_w,
    mp_str,
)
from .qsfield import embed_fraction

_ORBITAL_LETTERS = "spdfghik"


@dataclass(frozen=True, slots=True)
class DiagonalityRecord:
    channel: Channel
    n: int
    coeff_minus: mp.mpf          # zeta(1 - tau/w), multiplies psi_plus
    coeff_plus: mp.mpf           # zeta(1 + tau/w), multiplies psi_minus
    is_diagonal: bool
    physical: bool
    spectroscopic_label: str


def spectroscopic_label(channel: Channel, n: int) -> str:
    """N ell with N = j + 1/2 + n and the orbital letter of ell = j + eps/2."""
    ell = channel.j + Fraction(channel.eps, 2)
    big_n = channel.j + Fraction(1, 2) + n
    if ell.denominator != 1 or big_n.denominator != 1:
        raise DomainError("malformed channel labels")
    ell = int(ell)
    letter = _ORBITAL_LETTERS[ell] if ell < len(_ORBITAL_LETTERS) else f"[l={ell}]"
    return f"{int(big_n)}{letter}"


def diagonality_scan(params: PhysicalParams, j_max: Fraction = Fraction(5, 2),
                     n_max: int = 3, precision: int = DEFAULT_PRECISION):
    """Classify every tower slot with j <= j_max, n <= n_max.

    A slot is diagonal when it is a bound state and the operator maps it to
    a multiple of itself, that is, when the minus half of its window is
    zero (module docstring). The coefficients zeta(1 -+ tau/w) are embedded
    from one exact w per slot, the one the decision reads.
    """
    work = precision + _GUARD
    records = []
    for ch, slots in channel_slots(params, j_max, n_max):
        tau = ch.qs(ch.tau)
        zeta_mp, tau_mp = embed_fraction(ch.zeta, work), embed_fraction(ch.tau, work)
        for n in slots:
            w = exact_w(ch, n)
            with mp.workprec(work):
                ratio = tau_mp / w.embed(work)
                minus, plus = zeta_mp * (1 - ratio), zeta_mp * (1 + ratio)
            with mp.workprec(precision):
                minus, plus = +minus, +plus
            physical = ch.is_bound(n)
            records.append(DiagonalityRecord(
                channel=ch,
                n=n,
                coeff_minus=minus,
                coeff_plus=plus,
                is_diagonal=physical and (n == 0 or (w + tau).is_zero),
                physical=physical,
                spectroscopic_label=spectroscopic_label(ch, n),
            ))
    return records


def scan_to_dict(records, precision: int = DEFAULT_PRECISION) -> dict:
    rows = []
    for r in records:
        rows.append({
            "j": str(r.channel.j),
            "eps": r.channel.eps,
            "n": r.n,
            "label": r.spectroscopic_label,
            "coeff_minus": mp_str(r.coeff_minus, precision),
            "coeff_plus": mp_str(r.coeff_plus, precision),
            "is_diagonal": r.is_diagonal,
            "physical": r.physical,
        })
    return {
        "schema": SCHEMA_TAG,
        "kind": "diagonality-scan",
        "diagonal_labels": sorted(
            r.spectroscopic_label for r in records if r.is_diagonal),
        "rows": rows,
    }
