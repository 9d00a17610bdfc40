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
tau k / c^2 = tau zeta / w exactly. A state is an eigenvector precisely
when one window half is absent, which happens only on a bottom rung; the
tau > 0 bottoms carry no bound state, so the diagonal bound states are
exactly the lowest rung of each tau < 0 channel: 1s, 2p, 3d, ...
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
    SpectralPoint,
    channel_slots,
    exact_w,
    mp_str,
)

_ORBITAL_LETTERS = "spdfghik"


@dataclass(frozen=True, slots=True)
class JLMatrix:
    """2x2 complex matrix, on the (F, iG) doublet or on the window halves."""

    entries: tuple  # ((m11, m12), (m21, m22)) of mpc

    def determinant(self, precision: int = DEFAULT_PRECISION) -> mp.mpc:
        (a, b), (c, d) = self.entries
        with mp.workprec(precision + _GUARD):
            det = a * d - b * c
        with mp.workprec(precision):
            return +det


def jl_fg_matrix(point: SpectralPoint) -> JLMatrix:
    """Operator matrix on the (F, iG) doublet of a spectral point."""
    prec = point.precision
    ch = point.channel
    with mp.workprec(prec + _GUARD):
        c2 = ch.params.c2_mp(prec + _GUARD)
        zeta = mp.mpf(ch.zeta.numerator) / ch.zeta.denominator
        tau = mp.mpf(ch.tau.numerator) / ch.tau.denominator
        m11 = mp.mpc(zeta, 0)
        m12 = mp.mpc(0, -tau * (c2 + point.E) / c2)
        m21 = mp.mpc(0, tau * (c2 - point.E) / c2)
    with mp.workprec(prec):
        return JLMatrix(((+m11, +m12), (+m21, +m11)))


def jl_similarity(point: SpectralPoint) -> JLMatrix:
    """S^-1 M S computed numerically; must come out diagonal."""
    prec = point.precision
    ch = point.channel
    m = jl_fg_matrix(point)
    with mp.workprec(prec + _GUARD):
        c2 = ch.params.c2_mp(prec + _GUARD)
        p = mp.sqrt(c2 + point.E)
        q = mp.sqrt(c2 - point.E)
        i = mp.mpc(0, 1)
        s = ((mp.mpc(p), mp.mpc(p)), (-i * q, i * q))
        det_s = s[0][0] * s[1][1] - s[0][1] * s[1][0]
        s_inv = ((s[1][1] / det_s, -s[0][1] / det_s),
                 (-s[1][0] / det_s, s[0][0] / det_s))

        def matmul(a, b):
            return tuple(
                tuple(sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2))
                for r in range(2))

        out = matmul(s_inv, matmul(m.entries, s))
    with mp.workprec(prec):
        out = tuple(tuple(+x for x in row) for row in out)
    return JLMatrix(out)


def jl_eigencoefficients(channel: Channel, n: int,
                         precision: int = DEFAULT_PRECISION):
    """(zeta(1 - tau/w), zeta(1 + tau/w)): the exact diagonal of the operator
    in the tower basis; the first multiplies psi_plus, the second psi_minus."""
    with mp.workprec(precision + _GUARD):
        zeta = mp.mpf(channel.zeta.numerator) / channel.zeta.denominator
        tau = mp.mpf(channel.tau.numerator) / channel.tau.denominator
        w = exact_w(channel, n).embed(precision + _GUARD)
        minus = zeta * (1 - tau / w)
        plus = zeta * (1 + tau / w)
    with mp.workprec(precision):
        return +minus, +plus


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

    A slot is diagonal when the operator maps the state to a multiple of
    itself. Only a bottom rung is one-component, and a bottom rung with
    tau > 0 is not a bound state at all (its window never solves the
    coupled system), so the diagonal bound states are the n = 0 rungs of
    the tau < 0 channels.
    """
    records = []
    for ch, n in channel_slots(params, j_max, n_max):
        cm, cp = jl_eigencoefficients(ch, n, precision)
        records.append(DiagonalityRecord(
            channel=ch,
            n=n,
            coeff_minus=cm,
            coeff_plus=cp,
            is_diagonal=(n == 0 and ch.is_bound(n)),
            physical=ch.is_bound(n),
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
