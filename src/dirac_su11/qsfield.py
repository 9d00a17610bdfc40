"""Exact arithmetic for the quadratic field Q(s) and the extensions over it.

Everything algebraic in this package lives in Q(s)[rho]: s is the positive
root of s^2 = tau^2 - zeta^2, which is rational once the coupling zeta and
the angular eigenvalue tau are rational, but s itself is not. Keeping (a, b)
rational pairs for a + b*s avoids every rounding question until a number is
deliberately embedded into mpmath floats.

The same construction over Q(s) gives the two other fields. The first-order
radial system involves w = sqrt((s + n)^2 + zeta^2), whose square is in Q(s)
but which is not; in the tower Q(s)(w) those residuals reduce to exact
zeros. The su(1,1) generators carry a factor i, and Gaussian scalars over
Q(s) keep it exact. One class, Quadratic, represents a + b*sqrt(d) over
either base.

Signs of nonzero elements are decidable exactly (compare a^2 against b^2 d
when a and b disagree in sign), so root isolation over these fields needs no
floating point at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import mpmath as mp

Rational = Union[int, Fraction]

_EMBED_GUARD_BITS = 8

_ZERO = Fraction(0)


def _frac(x: Rational | str) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def embed_fraction(x: Fraction, precision: int) -> mp.mpf:
    """Round a rational to the nearest float at the given precision."""
    with mp.workprec(precision):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _is_zero(x) -> bool:
    return x.is_zero if isinstance(x, Quadratic) else x == 0


def _sign(x) -> int:
    return x.sign() if isinstance(x, Quadratic) else (x > 0) - (x < 0)


def _embed(x, precision: int) -> mp.mpf:
    return x.embed(precision) if isinstance(x, Quadratic) else embed_fraction(x, precision)


def _in_base(x, d):
    """x as an element of the base field under the modulus d: Q when d is a
    Fraction, Q(s) when d is an element of Q(s)."""
    base = d.d if isinstance(d, Quadratic) else None
    if isinstance(x, Quadratic):
        if base is None or not (x.d is base or x.d == base):
            raise ValueError("modulus mismatch between quadratic field elements")
        return x
    return _frac(x) if base is None else Quadratic(_frac(x), _ZERO, base)


@dataclass(frozen=True, slots=True)
class Quadratic:
    """Element a + b*sqrt(d) of a quadratic extension K(sqrt(d)).

    K is Q when d is a Fraction: the field Q(s), with d = s^2 > 0. K is
    Q(s) when d is itself an element of Q(s): the tower Q(s)(w), with
    d = w^2, or the Gaussian scalars, with d = -1. Ints, Fractions and
    elements of K lift into K(sqrt(d)). All elements entering an operation
    must share d; mixing channels is a bug, not a conversion.
    """

    a: Fraction | Quadratic
    b: Fraction | Quadratic
    d: Fraction | Quadratic

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(a, b=0, *, d) -> "Quadratic":
        """a + b*sqrt(d); every modulus enters here, since arithmetic only
        reuses the moduli of its operands."""
        if not isinstance(d, Quadratic):
            d = _frac(d)
            if d <= 0:
                raise ValueError("s2 must be positive (closed channel otherwise)")
        return Quadratic(_in_base(a, d), _in_base(b, d), d)

    @staticmethod
    def zero(d) -> "Quadratic":
        return Quadratic.of(0, d=d)

    @staticmethod
    def one(d) -> "Quadratic":
        return Quadratic.of(1, d=d)

    @staticmethod
    def root(d) -> "Quadratic":
        """The generator sqrt(d) itself: s, w or i."""
        return Quadratic.of(0, 1, d=d)

    def _lift(self, other):
        """(self, other) as elements of one field, the lower operand lifted
        into the other's; None when other is no field element. Python calls
        no reflected operator between two operands of one class, so an
        element one level up lifts self here."""
        d = self.d
        if isinstance(other, Quadratic):
            if other.d is d or other.d == d:
                return self, other
            if isinstance(other.d, Quadratic) and other.d.d == d:
                return Quadratic(self, _in_base(0, other.d), other.d), other
        elif not isinstance(other, (int, Fraction)):
            return None
        return self, Quadratic(_in_base(other, d), _in_base(0, d), d)

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(x.a + y.a, x.b + y.b, x.d)

    __radd__ = __add__

    def __neg__(self):
        return Quadratic(-self.a, -self.b, self.d)

    def __sub__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(x.a - y.a, x.b - y.b, x.d)

    def __rsub__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(y.a - x.a, y.b - x.b, x.d)

    def __mul__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return Quadratic(x.a * y.a + x.b * y.b * x.d, x.a * y.b + x.b * y.a, x.d)

    __rmul__ = __mul__

    def conjugate(self) -> "Quadratic":
        return Quadratic(self.a, -self.b, self.d)

    def norm(self):
        """Field norm a^2 - b^2 d, in the base field; zero iff the element is."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "Quadratic":
        n = self.norm()
        if _is_zero(n):
            raise ZeroDivisionError("division by zero in a quadratic field")
        ninv = n.inverse() if isinstance(n, Quadratic) else 1 / n
        return Quadratic(self.a * ninv, -self.b * ninv, self.d)

    def __truediv__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x * y.inverse()

    def __rtruediv__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return y * x.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = Quadratic.one(self.d)
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
        return _is_zero(self.a) and _is_zero(self.b)

    def sign(self) -> int:
        """Exact sign, with sqrt(d) taken as the positive root (d > 0)."""
        sa, sb = _sign(self.a), _sign(self.b)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # a and b*sqrt(d) compete; |a| vs |b| sqrt(d) decides, squared to
        # stay in the base field
        return sa * _sign(self.norm())

    # -- embedding and text form ----------------------------------------------

    def embed(self, precision: int = 256) -> mp.mpf:
        """a + b*sqrt(d) rounded to `precision` bits (error within 1 ulp)."""
        guarded = precision + _EMBED_GUARD_BITS
        with mp.workprec(guarded):
            val = _embed(self.a, guarded) + _embed(self.b, guarded) * mp.sqrt(
                _embed(self.d, guarded))
        with mp.workprec(precision):
            return +val

    def __str__(self) -> str:
        if isinstance(self.d, Quadratic):
            return f"({self.a}) + ({self.b})w [w^2={self.d}]"
        return f"{self.a} + ({self.b})s [s^2={self.d}]"


@dataclass(frozen=True, slots=True)
class QsPolynomial:
    """Dense polynomial in rho over Q(s) (or over the tower Q(s)(w)).

    Coefficients are stored low degree first with exact trailing-zero trim;
    the `zero` field pins the coefficient field and its modulus so the zero
    polynomial still knows where it lives.
    """

    coeffs: tuple
    zero: Quadratic

    @staticmethod
    def from_coeffs(coeffs: Sequence, zero: Quadratic) -> "QsPolynomial":
        cs = [zero + c for c in coeffs]  # lifts ints/Fractions, checks modulus
        while cs and cs[-1].is_zero:
            cs.pop()
        return QsPolynomial(tuple(cs), zero)

    @staticmethod
    def zero_poly(zero: Quadratic) -> "QsPolynomial":
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
    q = [f.zero] * max(f.degree - g.degree + 1, 0)
    r = f
    ginv = g.leading.inverse()
    while not r.is_zero and r.degree >= g.degree:
        shift = r.degree - g.degree
        q[shift] = r.leading * ginv
        r = r - g.scale(q[shift]).mul_rho(shift)
    return QsPolynomial.from_coeffs(q, f.zero), r


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
