"""su(1,1) generators realized on a weighted polynomial family.

The radial problem is extended by a phase variable phi and solved on the
function family

    V(x, phi) = e^{i mu phi} rho^s e^{-rho} q(rho),    rho = e^x,

with q a polynomial over Q(s) and mu = lambda + k an integer offset above
the lowest weight lambda = s + 1/2. The generators are

    Xi3       = -i d/dphi                     (multiplication by mu here)
    Xi_plus   = i e^{+i phi} (d/dx - e^x - i d/dphi + 1/2)
    Xi_minus  = i e^{-i phi} (d/dx + e^x + i d/dphi + 1/2)

with Xi1 = (Xi+ + Xi-)/2 and Xi2 = (Xi+ - Xi-)/2i. Written once, on one
monomial rho^i at mode lambda + k, each maps to at most two monomials, and
after scaling Xi3 (and with it Xi1, Xi2) by 2 its coefficients lie in
Z[I][i, s, k], I^2 = -1:

    Xi+    rho^i -> I[(i + 2s + k + 1) rho^i - 2 rho^(i+1)]    mode +1
    Xi-    rho^i -> I(i - k) rho^i                              mode -1
    2 Xi3  rho^i -> (2s + 2k + 1) rho^i

GENERATORS is this table, with d/dx and e^x, the pieces of the explicit
Casimir d^2/dx^2 - e^{2x} - 2i e^x d/dphi - 1/4. The six structure
relations and the equality of that explicit Casimir with the composed
Xi3^2 - Xi1^2 - Xi2^2 are decided on the generic monomial once per process,
on first use (`universal_images`). By linearity they then hold for every
family member, and the ring map s^2 -> tau^2 - zeta^2 carries them to
every channel. An image is held as a polynomial in the symbolic exponent
i and the mode k, not in rho, since the relations are decided on the
generic monomial. The rest of the package reads the decided images of
Xi+, Xi-, 2 Xi3 and 4 times the Casimir, specialized: `universal_map` at
one mode on the universal layer (the ladder's tower) and `apply` on one
channel's family member over Q(s). Both give the real part: Xi+ and Xi-
are I times it, and the caller tracks that factor.

The universal layer Z[s, tau][w][rho] has one form: {(k, t, e): [c_0, ...]},
the coefficient of s^k tau^t w^e as a dense list of ints in rho, with no
trailing zero and no all-zero list (`trim`), so two elements are equal iff
their dicts are; `comb` adds and shifts them. The ladder's tower is its
part with t = e = 0, and `verify` builds the first-order rows from it.

The inner product is the phase average times the x-integral,
int dphi/2pi int dx; on the family the phi average kills any cross-mode
pairing exactly and the x-integral reduces to Gamma moments
int_0^inf rho^{2s+m} e^{-2rho} drho/rho = Gamma(2s+m)/2^{2s+m}. Each is
Gamma(2s)/2^{2s} times (2s)_m/2^m, an element of Q(s), so a moment is
decided exactly in the field (`field_moment`) and embedded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .params import DEFAULT_PRECISION, Channel, _GUARD
from .qsfield import QsPolynomial, Quadratic


@dataclass(frozen=True, slots=True)
class FamilyFunction:
    """One member of the family: mode lambda + offset, polynomial part q."""

    channel: Channel
    offset: int
    poly: QsPolynomial

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def __str__(self) -> str:
        return f"[mode lam{self.offset:+d}] {self.poly}"


@dataclass(frozen=True, slots=True)
class ScaledFamilyFunction:
    scale: Quadratic  # in Q(s)
    func: FamilyFunction


# -- the generators, decided once on a generic family member ------------------
#
# name: (mode step, power of I, {rho step b: (c_i, c_s, c_k, c_1)}). On
# rho^i at mode lambda + k the generator gives the sum over b of
# I^power (c_i i + c_s s + c_k k + c_1) rho^(i+b), at mode lambda + k + step.
GENERATORS = {
    "+": (1, 1, {0: (1, 2, 1, 1), 1: (0, 0, 0, -2)}),    # Xi+
    "-": (-1, 1, {0: (1, 0, -1, 0)}),                    # Xi-
    "3": (0, 0, {0: (0, 2, 2, 1)}),                      # 2 Xi3 = 2 mu
    "x": (0, 0, {0: (1, 1, 0, 0), 1: (0, 0, 0, -1)}),    # d/dx
    "r": (0, 0, {1: (0, 0, 0, 1)}),                      # e^x = rho
}

# 2 Xi1 = Xi+ + Xi- and 2 Xi2 = (Xi+ - Xi-)/I = I(Xi- - Xi+); a term
# (c, e, word) is c I^e times the word, whose letters act right to left
_DERIVED = {"1": ((1, 0, "+"), (1, 0, "-")), "2": ((1, 1, "-"), (-1, 1, "+"))}

# 4 times d^2/dx^2 - e^{2x} - 2i e^x d/dphi - 1/4, with -2i d/dphi = 2 Xi3
CASIMIR4 = ((4, 0, "xx"), (-4, 0, "rr"), (4, 0, "3r"), (-1, 0, ""))

# each must vanish on every family member; the commutators are times 2 or 4
RELATIONS = {
    "3+": ((1, 0, "3+"), (-1, 0, "+3"), (-2, 0, "+")),   # [Xi3, Xi+] = Xi+
    "3-": ((1, 0, "3-"), (-1, 0, "-3"), (2, 0, "-")),    # [Xi3, Xi-] = -Xi-
    "+-": ((1, 0, "+-"), (-1, 0, "-+"), (1, 0, "3")),    # [Xi+, Xi-] = -2 Xi3
    "12": ((1, 0, "12"), (-1, 0, "21"), (2, 1, "3")),    # [Xi1, Xi2] = -i Xi3
    "23": ((1, 0, "23"), (-1, 0, "32"), (-2, 1, "1")),   # [Xi2, Xi3] = i Xi1
    "31": ((1, 0, "31"), (-1, 0, "13"), (-2, 1, "2")),   # [Xi3, Xi1] = i Xi2
    # explicit Casimir = Xi3^2 - Xi1^2 - Xi2^2
    "Casimir routes": CASIMIR4 + ((-1, 0, "33"), (1, 0, "11"), (1, 0, "22")),
}

# An image is a dict {(m, a): P}: the image of rho^i at mode lambda + k has
# the term P rho^(i+a) at mode lambda + k + m. P is a polynomial in
# Z[I][i, s, k], a dict {(e_I, e_i, e_s, e_k): c} of its nonzero terms.
_IMAGES: dict = {}   # the decided images; never built at import


def _add(out: dict, image: dict, c: int, e: int) -> None:
    """out += c I^e image, in place; I^2 = -1."""
    for mode_rho, poly in image.items():
        acc = out.setdefault(mode_rho, {})
        for (eI, ei, es, ek), v in poly.items():
            flips, eI = divmod(eI + e, 2)
            key = (eI, ei, es, ek)
            acc[key] = acc.get(key, 0) + (-1) ** flips * c * v


def _clean(image: dict) -> dict:
    out = {}
    for mode_rho, poly in image.items():
        poly = {key: v for key, v in poly.items() if v}
        if poly:
            out[mode_rho] = poly
    return out


def _act(name: str, image: dict) -> dict:
    """One table generator on an image."""
    step, power, terms = GENERATORS[name]
    out: dict = {}
    for (m, a), poly in image.items():
        for b, (ci, cs, ck, c1) in terms.items():
            # the coefficient at rho^(i+a), mode lambda + k + m
            linear = {(0, 1, 0, 0): ci, (0, 0, 1, 0): cs, (0, 0, 0, 1): ck,
                      (0, 0, 0, 0): c1 + ci * a + ck * m}
            for key, v in linear.items():
                if v:
                    shifted = {(eI, ei + key[1], es + key[2], ek + key[3]): u
                               for (eI, ei, es, ek), u in poly.items()}
                    _add(out, {(m + step, a + b): shifted}, v, power)
    return _clean(out)


def _words(terms, image: dict) -> dict:
    """The sum of c I^e word(image) over the terms (c, e, word)."""
    out: dict = {}
    for c, e, word in terms:
        x = image
        for letter in reversed(word):
            x = _words(_DERIVED[letter], x) if letter in _DERIVED else _act(letter, x)
        _add(out, x, c, e)
    return _clean(out)


def universal_images() -> dict:
    """The images of Xi+ ("+"), Xi- ("-"), 2 Xi3 ("3") and 4 times the
    Casimir ("casimir") on rho^i at mode lambda + k, after every relation is
    decided there; once per process, on first use. A relation that fails
    raises AssertionError naming it."""
    if not _IMAGES:
        monomial = {(0, 0): {(0, 0, 0, 0): 1}}
        for name, terms in RELATIONS.items():
            if _words(terms, monomial):
                raise AssertionError(
                    f"su(1,1) relation {name} fails on the generic family member")
        images = {name: _act(name, monomial) for name in "+-3"}
        images["casimir"] = _words(CASIMIR4, monomial)
        _IMAGES.update(images)
    return _IMAGES


def _at(poly: dict, i: int, k: int) -> dict:
    """An image coefficient at rho^i and mode lambda + k, as {e: c} for the
    sum of c s^e; the power of I is dropped."""
    out: dict = {}
    for (_, ei, es, ek), v in poly.items():
        out[es] = out.get(es, 0) + v * i ** ei * k ** ek
    return out


def trim(poly: dict) -> dict:
    """poly in normal form, its lists cut in place: no trailing zero in a
    list and no all-zero list."""
    for coeffs in poly.values():
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    return {key: coeffs for key, coeffs in poly.items() if coeffs}


def comb(*terms) -> dict:
    """The sum of c rho^i s^k tau^t w^e P over the terms (c, (i, k, t, e), P)
    of the universal layer, in normal form."""
    out: dict = {}
    for c, (i, k, t, e), poly in terms:
        for (a, b, d), coeffs in poly.items():
            acc = out.setdefault((a + k, b + t, d + e), [])
            if len(acc) < i + len(coeffs):
                acc.extend([0] * (i + len(coeffs) - len(acc)))
            for m, v in enumerate(coeffs, i):
                acc[m] += c * v
    return trim(out)


def universal_map(name: str, k: int, poly: dict) -> dict:
    """The real part of a decided image at mode lambda + k on an element of
    the universal layer; tau and w are left alone."""
    size = max(map(len, poly.values()), default=0)
    terms = []
    for (_, a), coeff in universal_images()[name].items():
        at = [_at(coeff, i, k) for i in range(size)]
        for es in {es for row in at for es in row}:   # the s^es part, at each i
            scale = [row.get(es, 0) for row in at]
            terms.append((1, (a, es, 0, 0), {key: [c * v for c, v in zip(coeffs, scale)]
                                             for key, coeffs in poly.items()}))
    return comb(*terms)


def apply(name: str, f: FamilyFunction) -> FamilyFunction:
    """The real part of a decided image on f, over f's channel: Xi+ f and
    Xi- f are I times it."""
    ch, q = f.channel, f.poly
    out = QsPolynomial.zero_poly(q.zero)
    for (step, a), coeff in universal_images()[name].items():   # one step each
        scalars = []
        for i in range(len(q.coeffs)):
            parts = [0, 0]   # rational and s parts, with s^2 = s2
            for e, v in _at(coeff, i, f.offset).items():
                parts[e % 2] += v * ch.s2 ** (e // 2)
            scalars.append(ch.qs(*parts))
        out = out + QsPolynomial.from_coeffs(
            [c * x for c, x in zip(q.coeffs, scalars)], q.zero).mul_rho(a)
    return FamilyFunction(ch, f.offset + step, out)


def apply_casimir(f: FamilyFunction) -> ScaledFamilyFunction:
    """The Casimir on f: xi times f when f is an eigenfunction, as every
    member of the lowest-weight tower is; otherwise its image, scale 1."""
    ch = f.channel
    image = apply("casimir", f)
    xi = ch.qs(ch.xi)
    if (image.poly - f.poly.scale(xi * 4)).is_zero:
        return ScaledFamilyFunction(xi, f)
    return ScaledFamilyFunction(ch.qs(1), FamilyFunction(
        ch, image.offset, image.poly.scale(Fraction(1, 4))))


# -- inner product ------------------------------------------------------------

_GAMMA_CACHE: dict = {}


def gamma_factor(channel: Channel, precision: int) -> mp.mpf:
    """Gamma(2s)/2^(2s), the moment of rho^0 under the inner product.

    The value carries precision + guard bits; callers round at their own
    level. It depends on s alone, so the cache is keyed by s^2, not by the
    channel's labels.
    """
    key = (channel.s2, precision)
    value = _GAMMA_CACHE.get(key)
    if value is None:
        with mp.workprec(precision + 2 * _GUARD):
            two_s = channel.s.embed(precision + 2 * _GUARD) * 2
            value = _GAMMA_CACHE[key] = mp.gamma(two_s) / mp.power(2, two_s)
    return value


def field_moment(poly: QsPolynomial, channel: Channel, shift: int = 0) -> Quadratic:
    """sum_m c_m (2s)_(m+shift)/2^(m+shift) over the coefficients c_m of
    poly, exact in poly's field: its moment over Gamma(2s)/2^(2s), since
    Gamma(2s+m)/2^(2s+m) = Gamma(2s)/2^(2s) (2s)_m/2^m. Shift 0 is the
    measure d rho/rho of the inner product, shift 1 the radial measure
    d rho. A Horner pass: the ratio of adjacent moments is (2s+m)/2."""
    acc = poly.zero
    for m in range(poly.degree, -1, -1):
        acc = acc * Quadratic.from_ints(m + shift, 2, 2, d=channel.s2) + poly.coeffs[m]
    for m in range(shift):
        acc = acc * Quadratic.from_ints(m, 2, 2, d=channel.s2)
    return acc


def moment_sum(poly: QsPolynomial, channel: Channel, precision: int,
               shift: int = 0) -> mp.mpf:
    """sum_m c_m Gamma(2s+m+shift)/2^(2s+m+shift) over the coefficients c_m
    of poly: the exact field moment, embedded once, times the Gamma factor,
    so nothing cancels in floats. Carries precision + guard bits."""
    moment = field_moment(poly, channel, shift)
    with mp.workprec(precision + _GUARD):
        return gamma_factor(channel, precision) * moment.embed(precision + _GUARD)


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
