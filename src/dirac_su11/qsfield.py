"""Exact arithmetic for the quadratic field Q(s) and its tower Q(s)(w).

Everything algebraic in this package lives in Q(s)[rho]: s is the positive
root of s^2 = tau^2 - zeta^2, which is rational once the coupling zeta and
the angular eigenvalue tau are rational, but s itself is not. Keeping (a, b)
rational pairs for a + b*s avoids every rounding question until a number is
deliberately embedded into mpmath floats.

The first-order radial system additionally involves
w = sqrt((s + n)^2 + zeta^2), whose square is in Q(s) but which is not.
TowerNumber represents u + v*w with u, v in Q(s), giving a second quadratic
extension in which those residuals reduce to exact zeros.

Signs of nonzero elements are decidable exactly (compare a^2 against b^2 s^2
when a and b disagree in sign), so root isolation over these fields needs no
floating point at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp

Rational = Union[int, Fraction]

_EMBED_GUARD_BITS = 8


def _frac(x: Rational | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def _frac_sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def embed_fraction(x: Fraction, precision: int) -> mp.mpf:
    """Round a rational to the nearest float at the given precision."""
    with mp.workprec(precision):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)


@dataclass(frozen=True, slots=True)
class QsNumber:
    """Element a + b*s of Q(s), where s is the positive root of s^2 = s2.

    All elements entering an operation must share the modulus s2; mixing
    channels is a bug, not a conversion.
    """

    a: Fraction
    b: Fraction
    s2: Fraction

    def __post_init__(self) -> None:
        if self.s2 <= 0:
            raise ValueError("s2 must be positive (closed channel otherwise)")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(a: Rational, b: Rational = 0, *, s2: Rational) -> "QsNumber":
        return QsNumber(_frac(a), _frac(b), _frac(s2))

    @staticmethod
    def zero(s2: Rational) -> "QsNumber":
        return QsNumber(Fraction(0), Fraction(0), _frac(s2))

    @staticmethod
    def one(s2: Rational) -> "QsNumber":
        return QsNumber(Fraction(1), Fraction(0), _frac(s2))

    @staticmethod
    def s_root(s2: Rational) -> "QsNumber":
        """The generator s itself."""
        return QsNumber(Fraction(0), Fraction(1), _frac(s2))

    def _lift(self, other) -> "QsNumber | None":
        if isinstance(other, QsNumber):
            if other.s2 != self.s2:
                raise ValueError("modulus mismatch between Q(s) elements")
            return other
        if isinstance(other, (int, Fraction)):
            return QsNumber(_frac(other), Fraction(0), self.s2)
        return None

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QsNumber(self.a + o.a, self.b + o.b, self.s2)

    __radd__ = __add__

    def __neg__(self):
        return QsNumber(-self.a, -self.b, self.s2)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QsNumber(self.a - o.a, self.b - o.b, self.s2)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return QsNumber(
            self.a * o.a + self.b * o.b * self.s2,
            self.a * o.b + self.b * o.a,
            self.s2,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QsNumber":
        return QsNumber(self.a, -self.b, self.s2)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 s^2; zero iff the element is zero."""
        return self.a * self.a - self.b * self.b * self.s2

    def inverse(self) -> "QsNumber":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(s)")
        return QsNumber(self.a / n, -self.b / n, self.s2)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = QsNumber.one(self.s2)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> int:
        """Exact sign, with s taken as the positive root."""
        sa, sb = _frac_sign(self.a), _frac_sign(self.b)
        if sb == 0:
            return sa
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # a and b*s compete; |a| vs |b| s decides, squared to stay rational
        cmp = self.a * self.a - self.b * self.b * self.s2
        return sa * _frac_sign(cmp)

    # -- embedding ----------------------------------------------------------

    def embed(self, precision: int = 256) -> mp.mpf:
        """a + b*sqrt(s2) rounded to `precision` bits (error within 1 ulp)."""
        with mp.workprec(precision + _EMBED_GUARD_BITS):
            val = (
                embed_fraction(self.a, precision + _EMBED_GUARD_BITS)
                + embed_fraction(self.b, precision + _EMBED_GUARD_BITS)
                * mp.sqrt(embed_fraction(self.s2, precision + _EMBED_GUARD_BITS))
            )
        with mp.workprec(precision):
            return +val

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return f"{self.a} + ({self.b})s [s^2={self.s2}]"

    def __repr__(self) -> str:
        return f"QsNumber({self.a}, {self.b}, s2={self.s2})"


_QS_TEXT = re.compile(
    r"^\s*(?P<a>-?\d+(?:/\d+)?)\s*\+\s*\((?P<b>-?\d+(?:/\d+)?)\)s\s*"
    r"\[s\^2=(?P<s2>-?\d+(?:/\d+)?)\]\s*$"
)


def parse_qs(text: str) -> QsNumber:
    """Inverse of str(QsNumber)."""
    m = _QS_TEXT.match(text)
    if not m:
        raise ValueError(f"not a Q(s) literal: {text!r}")
    return QsNumber(Fraction(m["a"]), Fraction(m["b"]), Fraction(m["s2"]))


@dataclass(frozen=True, slots=True)
class TowerNumber:
    """Element u + v*w of Q(s)(w), with w the positive root of w^2 = w2 in Q(s)."""

    u: QsNumber
    v: QsNumber
    w2: QsNumber

    @staticmethod
    def of(u, v=0, *, w2: QsNumber) -> "TowerNumber":
        s2 = w2.s2
        uu = u if isinstance(u, QsNumber) else QsNumber.of(_frac(u), s2=s2)
        vv = v if isinstance(v, QsNumber) else QsNumber.of(_frac(v), s2=s2)
        return TowerNumber(uu, vv, w2)

    @staticmethod
    def zero(w2: QsNumber) -> "TowerNumber":
        z = QsNumber.zero(w2.s2)
        return TowerNumber(z, z, w2)

    @staticmethod
    def one(w2: QsNumber) -> "TowerNumber":
        return TowerNumber(QsNumber.one(w2.s2), QsNumber.zero(w2.s2), w2)

    @staticmethod
    def w_root(w2: QsNumber) -> "TowerNumber":
        return TowerNumber(QsNumber.zero(w2.s2), QsNumber.one(w2.s2), w2)

    def _lift(self, other) -> "TowerNumber | None":
        if isinstance(other, TowerNumber):
            if other.w2 != self.w2:
                raise ValueError("modulus mismatch between tower elements")
            return other
        if isinstance(other, (int, Fraction)):
            other = QsNumber.of(_frac(other), s2=self.w2.s2)
        if isinstance(other, QsNumber):
            if other.s2 != self.w2.s2:
                raise ValueError("modulus mismatch lifting Q(s) into the tower")
            return TowerNumber(other, QsNumber.zero(other.s2), self.w2)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TowerNumber(self.u + o.u, self.v + o.v, self.w2)

    __radd__ = __add__

    def __neg__(self):
        return TowerNumber(-self.u, -self.v, self.w2)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TowerNumber(self.u - o.u, self.v - o.v, self.w2)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return TowerNumber(
            self.u * o.u + self.v * o.v * self.w2,
            self.u * o.v + self.v * o.u,
            self.w2,
        )

    __rmul__ = __mul__

    def conjugate_w(self) -> "TowerNumber":
        return TowerNumber(self.u, -self.v, self.w2)

    def norm_qs(self) -> QsNumber:
        return self.u * self.u - self.v * self.v * self.w2

    def inverse(self) -> "TowerNumber":
        n = self.norm_qs()
        if n.is_zero:
            raise ZeroDivisionError("division by zero in Q(s)(w)")
        ninv = n.inverse()
        return TowerNumber(self.u * ninv, -self.v * ninv, self.w2)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = TowerNumber.one(self.w2)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    @property
    def is_zero(self) -> bool:
        return self.u.is_zero and self.v.is_zero

    def sign(self) -> int:
        su, sv = self.u.sign(), self.v.sign()
        if sv == 0:
            return su
        if su == 0:
            return sv
        if su == sv:
            return su
        return su * (self.u * self.u - self.v * self.v * self.w2).sign()

    def embed(self, precision: int = 256) -> mp.mpf:
        with mp.workprec(precision + _EMBED_GUARD_BITS):
            val = self.u.embed(precision + _EMBED_GUARD_BITS) + self.v.embed(
                precision + _EMBED_GUARD_BITS
            ) * mp.sqrt(self.w2.embed(precision + _EMBED_GUARD_BITS))
        with mp.workprec(precision):
            return +val

    def __str__(self) -> str:
        return f"({self.u}) + ({self.v})w [w^2={self.w2}]"


FieldElement = Union[QsNumber, TowerNumber]


@dataclass(frozen=True, slots=True)
class QsPolynomial:
    """Dense polynomial in rho over Q(s) (or over the tower Q(s)(w)).

    Coefficients are stored low degree first with exact trailing-zero trim;
    the `zero` field pins the coefficient field and its modulus so the zero
    polynomial still knows where it lives.
    """

    coeffs: tuple
    zero: FieldElement

    @staticmethod
    def from_coeffs(coeffs: Sequence, zero: FieldElement) -> "QsPolynomial":
        cs = [zero + c for c in coeffs]  # lifts ints/Fractions, checks modulus
        while cs and cs[-1].is_zero:
            cs.pop()
        return QsPolynomial(tuple(cs), zero)

    @staticmethod
    def constant(c, zero: FieldElement) -> "QsPolynomial":
        return QsPolynomial.from_coeffs([c], zero)

    @staticmethod
    def zero_poly(zero: FieldElement) -> "QsPolynomial":
        return QsPolynomial((), zero)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.zero

    @property
    def leading(self):
        if self.is_zero:
            return self.zero
        return self.coeffs[-1]

    def __add__(self, other):
        if isinstance(other, QsPolynomial):
            n = max(len(self.coeffs), len(other.coeffs))
            return QsPolynomial.from_coeffs(
                [self.coeff(k) + other.coeff(k) for k in range(n)], self.zero
            )
        return NotImplemented

    def __neg__(self):
        return QsPolynomial(tuple(-c for c in self.coeffs), self.zero)

    def __sub__(self, other):
        if isinstance(other, QsPolynomial):
            return self + (-other)
        return NotImplemented

    def scale(self, k) -> "QsPolynomial":
        return QsPolynomial.from_coeffs([c * k for c in self.coeffs], self.zero)

    def __mul__(self, other):
        if not isinstance(other, QsPolynomial):
            return self.scale(other)
        if self.is_zero or other.is_zero:
            return QsPolynomial.zero_poly(self.zero)
        out = [self.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                out[i + j] = out[i + j] + ci * cj
        return QsPolynomial.from_coeffs(out, self.zero)

    __rmul__ = __mul__

    def mul_rho(self, power: int = 1) -> "QsPolynomial":
        """Multiply by rho^power."""
        if self.is_zero:
            return self
        return QsPolynomial((self.zero,) * power + self.coeffs, self.zero)

    def derivative(self) -> "QsPolynomial":
        if self.degree < 1:
            return QsPolynomial.zero_poly(self.zero)
        return QsPolynomial.from_coeffs(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))], self.zero
        )

    def eval_exact(self, x):
        """Horner evaluation at a field element (or rational)."""
        acc = self.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_mp(self, x, precision: int = 256) -> mp.mpf:
        return horner_mp(self.embed_coeffs(precision + _EMBED_GUARD_BITS), x, precision)

    def embed_coeffs(self, precision: int = 256) -> list:
        return [c.embed(precision) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({c})*rho^{k}" for k, c in enumerate(self.coeffs))


def horner_mp(embedded: Sequence, x, precision: int) -> mp.mpf:
    """eval_mp on coefficients embedded at precision + _EMBED_GUARD_BITS."""
    with mp.workprec(precision + _EMBED_GUARD_BITS):
        acc = mp.mpf(0)
        for c in reversed(embedded):
            acc = acc * x + c
    with mp.workprec(precision):
        return +acc


def polynomial_divmod(f: QsPolynomial, g: QsPolynomial):
    """Euclidean division over the coefficient field: f = q*g + r, deg r < deg g."""
    if g.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    q = QsPolynomial.zero_poly(f.zero)
    r = f
    ginv = g.leading.inverse()
    while not r.is_zero and r.degree >= g.degree:
        shift = r.degree - g.degree
        factor = r.leading * ginv
        term = QsPolynomial.from_coeffs(
            [f.zero] * shift + [factor], f.zero
        )
        q = q + term
        r = r - (g * term)
    return q, r


def sturm_positive_roots(p: QsPolynomial) -> int:
    """Count distinct real roots of p in the open interval (0, +inf), exactly.

    Standard Sturm chain, feasible here because coefficient signs are exactly
    decidable in Q(s) and its tower. Each nonzero member is divided by its
    |leading coefficient|, which keeps every sign and stops coefficient growth.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined root count")

    def unit_lead(q: QsPolynomial) -> QsPolynomial:  # p' is zero for a constant p
        return q if q.is_zero else q.scale(q.leading.inverse() * q.leading.sign())

    chain = [unit_lead(p), unit_lead(p.derivative())]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        _, r = polynomial_divmod(chain[-2], chain[-1])
        chain.append(unit_lead(-r))
    if chain[-1].is_zero:
        chain.pop()

    def sign_changes(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)

    # every member left is nonzero; just right of 0 its sign is that of
    # its first nonzero coefficient
    at_zero_plus = [next(c.sign() for c in q.coeffs if not c.is_zero) for q in chain]
    at_inf = [q.leading.sign() for q in chain]
    return sign_changes(at_zero_plus) - sign_changes(at_inf)
