"""su(1,1) generators realized on a weighted polynomial family.

The radial problem is extended by a phase variable phi and solved on the
function family

    V(x, phi) = e^{i mu phi} rho^s e^{-rho} q(rho),    rho = e^x,

with q a polynomial over Q(s) and mu = lambda + k an integer offset above
the lowest weight lambda = s + 1/2. The generators are

    Xi3       = -i d/dphi                     (multiplication by mu here)
    Xi_plus   = i e^{+i phi} (d/dx - e^x - i d/dphi + 1/2)
    Xi_minus  = i e^{-i phi} (d/dx + e^x + i d/dphi + 1/2)

and substituting the family form turns Xi_plus/Xi_minus into the exact
polynomial maps

    q  |->  rho q' + (s + mu + 1/2) q - 2 rho q      (mode mu -> mu+1)
    q  |->  rho q' + (s - mu + 1/2) q                (mode mu -> mu-1)

with an overall factor i. Everything here stays exact: the phase never
becomes a grid, phi-derivatives act algebraically through the stored mode,
and the imaginary units live in Gaussian scalars over Q(s) so polynomial
coefficients never leave the field.

The inner product is the phase average times the x-integral,
int dphi/2pi int dx; on the family the phi average kills any cross-mode
pairing exactly and the x-integral reduces to Gamma moments
int_0^inf rho^{2s+m} e^{-2rho} drho/rho = Gamma(2s+m)/2^{2s+m}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .params import DEFAULT_PRECISION, Channel, _GUARD
from .qsfield import QsPolynomial, Quadratic, Rational

HALF = Fraction(1, 2)


def gauss(channel: Channel, re: Rational | Quadratic, im: Rational | Quadratic = 0) -> Quadratic:
    """The Gaussian scalar re + i*im over Q(s), with i^2 = -1."""
    return Quadratic.of(re, im, d=channel.qs(-1))


def gauss_i(channel: Channel) -> Quadratic:
    return gauss(channel, 0, 1)


@dataclass(frozen=True, slots=True)
class FamilyFunction:
    """One member of the family: mode lambda + offset, polynomial part q."""

    channel: Channel
    offset: int
    poly: QsPolynomial

    @property
    def mu(self) -> Quadratic:
        return self.channel.lam + self.offset

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __str__(self) -> str:
        return f"[mode lam{self.offset:+d}] {self.poly}"


def family(channel: Channel, offset: int, coeffs) -> FamilyFunction:
    zero = Quadratic.zero(channel.s2)
    poly = QsPolynomial.from_coeffs([zero + c for c in coeffs], zero)
    return FamilyFunction(channel, offset, poly)


@dataclass(frozen=True, slots=True)
class ScaledFamilyFunction:
    scale: Quadratic  # Gaussian scalar
    func: FamilyFunction

    @property
    def is_zero(self) -> bool:
        return self.scale.is_zero or self.func.is_zero


@dataclass(frozen=True, slots=True)
class FamilySum:
    """Finite complex combination of family members, one (re, im) polynomial
    pair per mode. Canonical: offsets sorted, all-zero pairs dropped."""

    channel: Channel
    parts: tuple  # of (offset, re_poly, im_poly)

    @staticmethod
    def of(channel: Channel, raw: dict) -> "FamilySum":
        parts = []
        for k in sorted(raw):
            re, im = raw[k]
            if not (re.is_zero and im.is_zero):
                parts.append((k, re, im))
        return FamilySum(channel, tuple(parts))

    @staticmethod
    def from_function(f: FamilyFunction) -> "FamilySum":
        zero = QsPolynomial.zero_poly(Quadratic.zero(f.channel.s2))
        return FamilySum.of(f.channel, {f.offset: (f.poly, zero)})

    @staticmethod
    def from_scaled(sf: ScaledFamilyFunction) -> "FamilySum":
        return FamilySum.from_function(sf.func).scaled(sf.scale)

    def _raw(self) -> dict:
        return {k: (re, im) for k, re, im in self.parts}

    def __add__(self, other: "FamilySum") -> "FamilySum":
        if self.channel.key() != other.channel.key():
            raise ValueError("cannot mix channels in a family sum")
        raw = self._raw()
        for k, re, im in other.parts:
            if k in raw:
                raw[k] = (raw[k][0] + re, raw[k][1] + im)
            else:
                raw[k] = (re, im)
        return FamilySum.of(self.channel, raw)

    def __sub__(self, other: "FamilySum") -> "FamilySum":
        return self + other.scaled(gauss(self.channel, -1))

    def scaled(self, c: Quadratic | Rational) -> "FamilySum":
        c = gauss(self.channel, 0) + c  # a rational or Q(s) scale lifts
        raw = {}
        for k, re, im in self.parts:
            raw[k] = (re.scale(c.a) - im.scale(c.b), re.scale(c.b) + im.scale(c.a))
        return FamilySum.of(self.channel, raw)

    @property
    def is_zero(self) -> bool:
        return not self.parts


# -- generator closed forms --------------------------------------------------


def _mode(channel: Channel, offset: int) -> Quadratic:
    return channel.lam + offset


def _step_up_poly(channel: Channel, offset: int, q: QsPolynomial) -> QsPolynomial:
    # rho q' + (s + mu + 1/2) q - 2 rho q  at  mu = lam + offset
    coeff = channel.s + _mode(channel, offset) + HALF
    return q.derivative().mul_rho() + q.scale(coeff) - q.mul_rho().scale(channel.qs(2))


def _step_down_poly(channel: Channel, offset: int, q: QsPolynomial) -> QsPolynomial:
    # rho q' + (s - mu + 1/2) q
    coeff = channel.s - _mode(channel, offset) + HALF
    return q.derivative().mul_rho() + q.scale(coeff)


def apply_xi3(f: FamilyFunction) -> ScaledFamilyFunction:
    return ScaledFamilyFunction(gauss(f.channel, f.mu), f)


def apply_xi_plus(f: FamilyFunction) -> ScaledFamilyFunction:
    out = FamilyFunction(f.channel, f.offset + 1, _step_up_poly(f.channel, f.offset, f.poly))
    return ScaledFamilyFunction(gauss_i(f.channel), out)


def apply_xi_minus(f: FamilyFunction) -> ScaledFamilyFunction:
    out = FamilyFunction(f.channel, f.offset - 1, _step_down_poly(f.channel, f.offset, f.poly))
    return ScaledFamilyFunction(gauss_i(f.channel), out)


# FamilySum-level actions: each part is mapped with the i prefactor folded
# into the (re, im) pair, i(a + ib) = -b + ia.


def xi3(F: FamilySum) -> FamilySum:
    raw = {}
    for k, re, im in F.parts:
        mu = _mode(F.channel, k)
        raw[k] = (re.scale(mu), im.scale(mu))
    return FamilySum.of(F.channel, raw)


def _shift(F: FamilySum, step: int, poly_map) -> FamilySum:
    raw = {}
    for k, re, im in F.parts:
        new_re = -poly_map(F.channel, k, im)
        new_im = poly_map(F.channel, k, re)
        kk = k + step
        if kk in raw:
            raw[kk] = (raw[kk][0] + new_re, raw[kk][1] + new_im)
        else:
            raw[kk] = (new_re, new_im)
    return FamilySum.of(F.channel, raw)


def xi_plus(F: FamilySum) -> FamilySum:
    return _shift(F, +1, _step_up_poly)


def xi_minus(F: FamilySum) -> FamilySum:
    return _shift(F, -1, _step_down_poly)


def xi1(F: FamilySum) -> FamilySum:
    return (xi_plus(F) + xi_minus(F)).scaled(HALF)


def xi2(F: FamilySum) -> FamilySum:
    # (Xi+ - Xi-) / 2i = -(i/2)(Xi+ - Xi-)
    half_i = gauss(F.channel, 0, Fraction(-1, 2))
    return (xi_plus(F) - xi_minus(F)).scaled(half_i)


_OPS = {"1": xi1, "2": xi2, "3": xi3, "+": xi_plus, "-": xi_minus}


def casimir_composed(F: FamilySum) -> FamilySum:
    """-Xi1^2 - Xi2^2 + Xi3^2 by literal operator composition."""
    out = xi3(xi3(F))
    out = out - xi1(xi1(F))
    out = out - xi2(xi2(F))
    return out


def casimir_explicit(F: FamilySum) -> FamilySum:
    """d^2/dx^2 - e^{2x} - 2i e^x d/dphi - 1/4 on the family.

    With D1 q = rho q' + (s - rho) q (the x-derivative pushed onto the
    polynomial part) this is D1^2 q - rho^2 q + 2 mu rho q - q/4, all in Q(s).
    """
    ch = F.channel

    def d1(q):
        return q.derivative().mul_rho() + q.scale(ch.s) - q.mul_rho()

    raw = {}
    for k, re, im in F.parts:
        mu = _mode(ch, k)
        quarter = ch.qs(Fraction(1, 4))

        def act(q):
            return (
                d1(d1(q))
                - q.mul_rho(2)
                + q.mul_rho().scale(2 * mu)
                - q.scale(quarter)
            )

        raw[k] = (act(re), act(im))
    return FamilySum.of(ch, raw)


def apply_casimir(f: FamilyFunction) -> ScaledFamilyFunction:
    """Casimir action; the composed and explicit routes must agree exactly."""
    F = FamilySum.from_function(f)
    composed = casimir_composed(F)
    explicit = casimir_explicit(F)
    if not (composed - explicit).is_zero:
        raise AssertionError("Casimir composition disagrees with its explicit form")
    xi = f.channel.qs(f.channel.xi)
    if (composed - FamilySum.from_function(f).scaled(xi)).is_zero:
        return ScaledFamilyFunction(gauss(f.channel, xi), f)
    # not in the lowest-weight tower: hand back the action itself; the
    # mu+-2 pieces of Xi1^2 + Xi2^2 cancel, so exactly one mode survives
    ((k, re, im),) = composed.parts
    if not im.is_zero:
        raise AssertionError("Casimir must act real on a real family member")
    return ScaledFamilyFunction(gauss(f.channel, 1), FamilyFunction(f.channel, k, re))


COMMUTATORS = ("3+", "3-", "+-", "12", "23", "31")


def commutator_check(f: FamilyFunction, pair: str) -> FamilySum:
    """Residual of one structure relation applied to f; zero iff it holds.

    3+ : [Xi3, Xi+] - Xi+          12 : [Xi1, Xi2] + iXi3
    3- : [Xi3, Xi-] + Xi-          23 : [Xi2, Xi3] - iXi1
    +- : [Xi+, Xi-] + 2Xi3         31 : [Xi3, Xi1] - iXi2
    """
    F = FamilySum.from_function(f)
    ch = f.channel
    i = gauss_i(ch)

    def comm(a, b):
        return _OPS[a](_OPS[b](F)) - _OPS[b](_OPS[a](F))

    if pair == "3+":
        return comm("3", "+") - xi_plus(F)
    if pair == "3-":
        return comm("3", "-") + xi_minus(F)
    if pair == "+-":
        return comm("+", "-") + xi3(F).scaled(2)
    if pair == "12":
        return comm("1", "2") + xi3(F).scaled(i)
    if pair == "23":
        return comm("2", "3") - xi1(F).scaled(i)
    if pair == "31":
        return comm("3", "1") - xi2(F).scaled(i)
    raise ValueError(f"unknown commutator tag {pair!r}")


# -- inner product ------------------------------------------------------------

_MOMENT_CACHE: dict = {}


def gamma_weighted_moments(channel: Channel, count: int, precision: int) -> list:
    """[Gamma(2s+m)/2^(2s+m) for m in range(count)], extended on demand.

    Values carry precision + guard bits; callers round at their own level.
    They depend on s alone, so the cache is keyed by s^2, not by the
    channel's labels.
    """
    key = (channel.s2, precision)
    cached = _MOMENT_CACHE.get(key)
    if cached is None:
        cached = []
        _MOMENT_CACHE[key] = cached
    if count > len(cached):
        with mp.workprec(precision + 2 * _GUARD):
            two_s = channel.s.embed(precision + 2 * _GUARD) * 2
            if not cached:
                cached.append(mp.gamma(two_s) / mp.power(2, two_s))
            while len(cached) < count:
                m = len(cached) - 1
                cached.append(cached[-1] * (two_s + m) / 2)
    return cached[:count]


def moment_sum(poly: QsPolynomial, channel: Channel, precision: int,
               shift: int = 0) -> mp.mpf:
    """sum_m c_m Gamma(2s+m+shift)/2^(2s+m+shift) over the coefficients c_m
    of poly; shift 0 is the measure d rho/rho of the inner product, shift 1
    the radial measure d rho. Carries precision + guard bits."""
    moments = gamma_weighted_moments(channel, poly.degree + 1 + shift, precision)
    with mp.workprec(precision + _GUARD):
        acc = mp.mpf(0)
        for c, moment in zip(poly.coeffs, moments[shift:]):
            if not c.is_zero:
                acc += c.embed(precision + _GUARD) * moment
        return acc


def inner_product(f: FamilyFunction, g: FamilyFunction, precision: int = DEFAULT_PRECISION):
    """Phase average times x-integral; exact integer 0 across modes."""
    if f.channel.key() != g.channel.key():
        raise ValueError("inner product requires a common channel")
    if f.offset != g.offset:
        return 0
    prod = f.poly * g.poly
    if prod.is_zero:
        return 0
    with mp.workprec(precision):
        return +moment_sum(prod, f.channel, precision)


def inner_product_sums(A: FamilySum, B: FamilySum, precision: int = DEFAULT_PRECISION) -> mp.mpc:
    """Sesquilinear extension to sums (first argument conjugated)."""
    if A.channel.key() != B.channel.key():
        raise ValueError("inner product requires a common channel")
    braw, out_re, out_im = B._raw(), mp.mpf(0), mp.mpf(0)
    with mp.workprec(precision + _GUARD):
        for k, are, aim in A.parts:
            if k not in braw:
                continue
            bre, bim = braw[k]
            ch = A.channel

            def pairing(p, q):
                f = FamilyFunction(ch, k, p)
                g = FamilyFunction(ch, k, q)
                v = inner_product(f, g, precision + _GUARD)
                return v if isinstance(v, mp.mpf) else mp.mpf(v)

            # (are - i aim)(bre + i bim)
            out_re += pairing(are, bre) + pairing(aim, bim)
            out_im += pairing(are, bim) - pairing(aim, bre)
    with mp.workprec(precision):
        return mp.mpc(+out_re, +out_im)
