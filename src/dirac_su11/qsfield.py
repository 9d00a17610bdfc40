"""Exact arithmetic for the quadratic field Q(s) and the extensions over it.

Everything algebraic in this package lives in Q(s)[rho]: s is the positive
root of s^2 = tau^2 - zeta^2, which is rational once the coupling zeta and
the angular eigenvalue tau are rational, but s itself is not. Exact
arithmetic in Q(s) avoids every rounding question until a number is
deliberately embedded into mpmath floats.

An element of Q(s) is three plain ints (x, y, den), meaning (x + y*s)/den
with den > 0, and s^2 = p/q is kept as its two ints. A sum over one
denominator takes no gcd, a sum over two takes the gcd of the two
denominators, and a product or an inverse is reduced by the one gcd of its
three ints. So the triple need not be in lowest terms, and nothing inside
the field needs it to be: zero is x = y = 0, equality cross-multiplies, and
the sign compares x^2 q with y^2 p. What leaves the field is reduced at the
edge: the read-only parts `a` and `b` are Fractions in lowest terms, and
`embed`, `str` and `hash` go through them, so every triple that stands for
one element rounds, prints and hashes alike. (mpmath rounds a numerator to
the working precision before it divides, so an unreduced one could round
differently.)

The same construction over Q(s) gives the tower. The first-order radial
system involves w = sqrt((s + n)^2 + zeta^2), whose square is in Q(s) but
which is not; in the tower Q(s)(w) those residuals reduce to exact zeros.
An element of the tower is a pair of elements of Q(s). One class,
Quadratic, represents a + b*sqrt(d) over either base. Every modulus is
positive (s^2 of an open channel, w^2 > 0 decided in Q(s)), so every
element is real: `sign` and `embed` hold for all of them.

Signs of nonzero elements are decidable exactly (compare a^2 against b^2 d
when a and b disagree in sign), so root counting over these fields decides
with no floating point at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

import mpmath as mp
from mpmath.libmp import (fzero, from_int, mpf_add, mpf_div, mpf_mul, mpf_pos, mpf_sqrt,
                          round_nearest)

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
    return mp.make_mpf(_embed_raw(x, precision))


def _embed_raw(x, precision: int) -> tuple:
    """x, a Fraction or a field element, rounded to nearest at `precision`
    bits as a raw libmp tuple, by the libmp calls mpmath's operators make
    under workprec. A Fraction is mpf(numerator) / mpf(denominator), each
    int rounded before the division. a + b*sqrt(d) embeds its parts and d
    at precision + _EMBED_GUARD_BITS, sums there and rounds once to
    precision; a b that embeds to zero skips the root and the product, an
    a that does skips the sum, and both shortcuts are exact."""
    if not isinstance(x, Quadratic):
        return mpf_div(from_int(x.numerator, precision, round_nearest),
                       from_int(x.denominator, precision, round_nearest),
                       precision, round_nearest)
    g = precision + _EMBED_GUARD_BITS
    val, b = _embed_raw(x.a, g), _embed_raw(x.b, g)
    if b != fzero:
        b = mpf_mul(b, mpf_sqrt(_embed_raw(x.d, g), g, round_nearest), g, round_nearest)
        val = b if val == fzero else mpf_add(val, b, g, round_nearest)
    return mpf_pos(val, precision, round_nearest)


def _modulus(d):
    """d as the modulus of a field, only if positive: a rational s^2 of an
    open channel, or an element w^2 of Q(s), whose sign is decided exactly."""
    if isinstance(d, Quadratic):
        if d.sign() <= 0:
            raise ValueError("a modulus over Q(s) must be positive")
        return d
    d = _frac(d)
    if d <= 0:
        raise ValueError("s2 must be positive (closed channel otherwise)")
    return d


def _in_base(x, d):
    """x as an element of the base field under the modulus d: Q when d is a
    Fraction, Q(s) when d is an element of Q(s)."""
    base = d.d if isinstance(d, Quadratic) else None
    if isinstance(x, Quadratic):
        if base is None or not (x.d is base or x.d == base):
            raise ValueError("modulus mismatch between quadratic field elements")
        return x
    return _frac(x) if base is None else Quadratic(_frac(x), _ZERO, base)


_new = object.__new__


def _qs(x: int, y: int, den: int, like: "Quadratic") -> "Quadratic":
    """(x + y*s)/den, den > 0, in the Q(s) of `like`, as it stands."""
    e = _new(Quadratic)
    e._x, e._y, e._den, e._pq, e.d = x, y, den, like._pq, like.d
    return e


def _qs_reduced(x: int, y: int, den: int, like: "Quadratic") -> "Quadratic":
    """_qs divided by the gcd of the three ints: the one reduction a product
    or an inverse takes."""
    g = gcd(x, y, den)
    if g != 1:
        x, y, den = x // g, y // g, den // g
    return _qs(x, y, den, like)


def _sum(u: "Quadratic", x: int, y: int, den: int) -> "Quadratic":
    """u + (x + y*s)/den in the Q(s) of u; one gcd at most, none when the
    denominators agree."""
    du = u._den
    if du == den:
        return _qs(u._x + x, u._y + y, den, u)
    g = gcd(du, den)
    if g == 1:
        return _qs(u._x * den + x * du, u._y * den + y * du, du * den, u)
    du, den = du // g, den // g
    return _qs(u._x * den + x * du, u._y * den + y * du, u._den * den, u)


def _pair(a: "Quadratic", b: "Quadratic", d: "Quadratic") -> "Quadratic":
    """a + b*sqrt(d) for a, b and d in one field: a tower element."""
    e = _new(Quadratic)
    e._x, e._y, e._den, e._pq, e.d = a, b, None, None, d
    return e


class Quadratic:
    """Element a + b*sqrt(d) of a quadratic extension K(sqrt(d)).

    K is Q when d is a Fraction: the field Q(s), with d = s^2 > 0. K is
    Q(s) when d is itself an element of Q(s): the tower Q(s)(w), with
    d = w^2 > 0. A modulus that is not positive is refused, so every
    element is real. Ints, Fractions and elements of K lift into
    K(sqrt(d)). All elements entering an operation must share d; mixing
    channels is a bug, not a conversion.

    An element of Q(s) keeps ints (x, y, den) for (x + y*s)/den, den > 0,
    not necessarily in lowest terms, and s^2 = p/q as the ints (p, q); an
    element one level up keeps its parts a and b, two elements of Q(s).
    These fields are private. `a` and `b` read the parts, in Q(s) as
    Fractions in lowest terms, and `d` the modulus. Equality is equality
    of the numbers, whatever triples stand for them. Treat an element as
    immutable: its hash is that of (a, b, d).
    """

    __slots__ = ("_x", "_y", "_den", "_pq", "d")

    def __init__(self, a, b, d):
        """a + b*sqrt(d) with a and b already in the base field of d;
        `of` is the constructor that checks and lifts."""
        self.d = d
        if isinstance(d, Quadratic):
            self._x, self._y, self._den, self._pq = a, b, None, None
            return
        a, b = _frac(a), _frac(b)
        ad, bd = a.denominator, b.denominator
        g = gcd(ad, bd)
        self._x, self._y = a.numerator * (bd // g), b.numerator * (ad // g)
        self._den, self._pq = ad // g * bd, (d.numerator, d.denominator)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(a, b=0, *, d) -> "Quadratic":
        """a + b*sqrt(d); every modulus enters here or in from_ints, since
        arithmetic only reuses the moduli of its operands."""
        d = _modulus(d)
        return Quadratic(_in_base(a, d), _in_base(b, d), d)

    @staticmethod
    def from_ints(x: int, y: int, den: int, *, d) -> "Quadratic":
        """(x + y*s)/den in Q(s) with s^2 = d, from integer parts as they
        stand (no gcd is taken); den must be positive."""
        d = _modulus(d)
        if isinstance(d, Quadratic):
            raise TypeError("from_ints builds elements of Q(s), over a rational s^2")
        if den <= 0:
            raise ValueError("the denominator must be positive")
        e = _new(Quadratic)
        e._x, e._y, e._den, e._pq, e.d = x, y, den, (d.numerator, d.denominator), d
        return e

    @staticmethod
    def zero(d) -> "Quadratic":
        return Quadratic.of(0, d=d)

    @staticmethod
    def root(d) -> "Quadratic":
        """The generator sqrt(d) itself: s or w."""
        return Quadratic.of(0, 1, d=d)

    def _rational(self, r) -> "Quadratic":
        """The rational r as an element of self's field."""
        if self._den is None:
            base = self.d
            return _pair(base._rational(r), base._rational(0), base)
        if isinstance(r, int):
            return _qs(r, 0, 1, self)
        return _qs(r.numerator, 0, r.denominator, self)

    def _lift(self, other):
        """(self, other) as elements of one field, the lower operand lifted
        into the other's; None when other is no field element. Python calls
        no reflected operator between two operands of one class, so an
        element one level up lifts self here."""
        d = self.d
        if isinstance(other, Quadratic):
            # moduli of two kinds never agree; Fraction.__eq__ is not asked
            if other.d is d or (other.d.__class__ is d.__class__ and other.d == d):
                return self, other
            if isinstance(other.d, Quadratic) and other.d.d == d:
                return _pair(self, self._rational(0), other.d), other
            other = _in_base(other, d)  # raises unless other is in the base field
            return self, _pair(other, d._rational(0), d)
        if isinstance(other, (int, Fraction)):
            return self, self._rational(other)
        return None

    # -- ring/field operations --------------------------------------------

    def __add__(self, other):
        if other.__class__ is not Quadratic or other.d is not self.d:
            pair = self._lift(other)
            if pair is None:
                return NotImplemented
            self, other = pair
        if self._den is None:
            return _pair(self._x + other._x, self._y + other._y, self.d)
        return _sum(self, other._x, other._y, other._den)

    __radd__ = __add__

    def __neg__(self):
        if self._den is None:
            return _pair(-self._x, -self._y, self.d)
        return _qs(-self._x, -self._y, self._den, self)

    def __sub__(self, other):
        if other.__class__ is not Quadratic or other.d is not self.d:
            pair = self._lift(other)
            if pair is None:
                return NotImplemented
            self, other = pair
        if self._den is None:
            return _pair(self._x - other._x, self._y - other._y, self.d)
        return _sum(self, -other._x, -other._y, other._den)

    def __rsub__(self, other):
        pair = self._lift(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return y - x

    def __mul__(self, other):
        if other.__class__ is not Quadratic or other.d is not self.d:
            if isinstance(other, (int, Fraction)):
                return self._scale(other)
            pair = self._lift(other)
            if pair is None:
                return NotImplemented
            self, other = pair
        if self._den is None:
            a, b, c, e = self._x, self._y, other._x, other._y
            return _pair(a * c + b * e * self.d, a * e + b * c, self.d)
        p, q = self._pq
        xa, ya, xb, yb = self._x, self._y, other._x, other._y
        return _qs_reduced(xa * xb * q + ya * yb * p, (xa * yb + xb * ya) * q,
                           self._den * other._den * q, self)

    __rmul__ = __mul__

    def _scale(self, r):
        """self times the rational r, part by part: in the tower two Q(s)
        parts scaled, not r lifted for a full product. The triple is the
        one that product reduces to."""
        if self._den is None:
            return _pair(self._x._scale(r), self._y._scale(r), self.d)
        num = r.numerator
        return _qs_reduced(self._x * num, self._y * num, self._den * r.denominator, self)

    def norm(self):
        """Field norm a^2 - b^2 d, in the base field; zero iff the element is."""
        if self._den is None:
            return self._x * self._x - self._y * self._y * self.d
        p, q = self._pq
        return Fraction(self._x * self._x * q - self._y * self._y * p,
                        self._den * self._den * q)

    def inverse(self) -> "Quadratic":
        if self._den is None:
            n = self.norm()
            if n.is_zero:
                raise ZeroDivisionError("division by zero in a quadratic field")
            ninv = n.inverse()
            return _pair(self._x * ninv, -self._y * ninv, self.d)
        x, y = self._x, self._y
        p, q = self._pq
        n = x * x * q - y * y * p
        if not n:
            raise ZeroDivisionError("division by zero in a quadratic field")
        t = self._den * q
        if n < 0:
            n, t = -n, -t
        return _qs_reduced(x * t, -y * t, n, self)

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
        out = self._rational(1)
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
        if self._den is None:
            return self._x.is_zero and self._y.is_zero
        return not self._x and not self._y

    def sign(self) -> int:
        """Exact sign, with sqrt(d) the positive root of the positive d."""
        if self._den is None:
            sa, sb = self._x.sign(), self._y.sign()
        else:
            x, y = self._x, self._y
            sa, sb = (x > 0) - (x < 0), (y > 0) - (y < 0)
        if sb == 0:
            return sa
        if sa == 0 or sa == sb:
            return sb
        # a and b*sqrt(d) compete; |a| vs |b| sqrt(d) decides, squared to
        # stay in the base field (in Q(s), x^2 q against y^2 p)
        if self._den is None:
            return sa * self.norm().sign()
        p, q = self._pq
        n = x * x * q - y * y * p
        return sa * ((n > 0) - (n < 0))

    def __eq__(self, other):
        if other.__class__ is not Quadratic:
            return NotImplemented
        if (self._den is None) != (other._den is None):
            return False
        if not (self.d is other.d or self.d == other.d):
            return False
        if self._den is None:
            return self._x == other._x and self._y == other._y
        return (self._x * other._den == other._x * self._den
                and self._y * other._den == other._y * self._den)

    # -- reads at the edge: parts, embedding, text form ----------------------

    @property
    def a(self):
        """The rational part: a Fraction in lowest terms in Q(s), an element
        of Q(s) one level up."""
        return self._x if self._den is None else Fraction(self._x, self._den)

    @property
    def b(self):
        """The part of sqrt(d), like `a`."""
        return self._y if self._den is None else Fraction(self._y, self._den)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def embed(self, precision: int = 256) -> mp.mpf:
        """a + b*sqrt(d) rounded to `precision` bits (error within 1 ulp)."""
        return mp.make_mpf(_embed_raw(self, precision))

    def __str__(self) -> str:
        if isinstance(self.d, Quadratic):
            return f"({self.a}) + ({self.b})w [w^2={self.d}]"
        return f"{self.a} + ({self.b})s [s^2={self.d}]"

    def __repr__(self) -> str:
        return f"Quadratic(a={self.a!r}, b={self.b!r}, d={self.d!r})"


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
        if self.zero._den is not None:
            return _qs_product(self, other)
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

    def eval_mp(self, x, precision: int = 256) -> mp.mpf:
        return horner_mp(self.embed_coeffs(precision + _EMBED_GUARD_BITS), x, precision)

    def embed_coeffs(self, precision: int = 256) -> list:
        return [c.embed(precision) for c in self.coeffs]

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({c})*rho^{k}" for k, c in enumerate(self.coeffs))


def _over_one_denominator(coeffs):
    """(xs, ys, den): Q(s) coefficients (xs[k] + ys[k] s)/den over one
    denominator, the lcm of theirs."""
    dens = {c._den for c in coeffs}
    den = dens.pop() if len(dens) == 1 else lcm(*dens)
    xs, ys = [], []
    for c in coeffs:
        m = den // c._den
        xs.append(c._x * m)
        ys.append(c._y * m)
    return xs, ys, den


def _qs_product(f: QsPolynomial, g: QsPolynomial) -> QsPolynomial:
    """f g over Q(s) as one integer convolution: with s^2 = p/q,
    (a + b s)(c + e s) = (q ac + p be + q(ae + bc) s)/q, so each product
    coefficient is left over the one denominator q den_f den_g, with no gcd
    inside."""
    p, q = f.zero._pq
    fx, fy, fd = _over_one_denominator(f.coeffs)
    gx, gy, gd = _over_one_denominator(g.coeffs)
    size = len(fx) + len(gx) - 1
    xx, yy, xy = [0] * size, [0] * size, [0] * size
    for i, (a, b) in enumerate(zip(fx, fy)):
        for j, (c, e) in enumerate(zip(gx, gy)):
            xx[i + j] += a * c
            yy[i + j] += b * e
            xy[i + j] += a * e + b * c
    den = q * fd * gd
    like = f.zero
    out = [_qs(q * u + p * v, q * t, den, like) for u, v, t in zip(xx, yy, xy)]
    while out and out[-1].is_zero:
        out.pop()
    return QsPolynomial(tuple(out), like)


def horner_mp(embedded: Sequence, x, precision: int) -> mp.mpf:
    """eval_mp on coefficients embedded at precision + _EMBED_GUARD_BITS.

    The loop runs on mpmath's raw tuples with the calls mpf's * and + make
    at that working precision, rounding to nearest, so every bit is the
    one the mpf loop gives; an x that is no mpf is made one first."""
    work = precision + _EMBED_GUARD_BITS
    if not isinstance(x, mp.mpf):
        with mp.workprec(work):
            x = mp.mpf(x)
    x = x._mpf_
    acc = fzero
    for c in reversed(embedded):
        acc = mpf_add(mpf_mul(acc, x, work, round_nearest), c._mpf_, work, round_nearest)
    return mp.make_mpf(mpf_pos(acc, precision, round_nearest))


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

    # every member left is nonzero; just right of 0 its sign is that of
    # its first nonzero coefficient
    at_zero_plus = [next(c.sign() for c in q.coeffs if not c.is_zero) for q in chain]
    at_inf = [q.leading.sign() for q in chain]
    return _sign_variations(at_zero_plus) - _sign_variations(at_inf)


def _sign_variations(signs) -> int:
    """Sign changes along a sequence of signs, zeros skipped."""
    signs = [s for s in signs if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

