"""Exact arithmetic layer: field axioms, signs, embeddings, polynomials."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_su11.qsfield import (
    QsPolynomial,
    Quadratic,
    polynomial_divmod,
    sturm_positive_roots,
)

S2 = Fraction(3, 4)  # generic irrational case: s = sqrt(3)/2


def rationals(max_num=30, max_den=8):
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_den
    )


def qs_numbers(s2=S2):
    return st.builds(lambda a, b: Quadratic.of(a, b, d=s2), rationals(), rationals())


@st.composite
def tower_triples(draw):
    # w2 = tau^2 + n^2 + 2 n s is the shape that actually occurs; sharing n
    # keeps the three values in one quadratic extension
    n = draw(st.integers(min_value=0, max_value=4))
    w2 = Quadratic.of(Fraction(4) + n * n, 2 * n, d=S2)

    def one_value():
        u = Quadratic.of(draw(rationals(15, 5)), draw(rationals(15, 5)), d=S2)
        v = Quadratic.of(draw(rationals(15, 5)), draw(rationals(15, 5)), d=S2)
        return Quadratic.of(u, v, d=w2)

    return one_value(), one_value(), one_value()


@settings(max_examples=50, deadline=None)
@given(qs_numbers(), qs_numbers(), qs_numbers())
def test_qs_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x


@settings(max_examples=50, deadline=None)
@given(st.one_of(qs_numbers(), st.builds(lambda t: t[0], tower_triples())),
       st.one_of(st.integers(-50, 50), rationals()))
def test_rational_scalar_scales_the_parts(e, r):
    # a rational factor scales the parts directly; what leaves the field is
    # that of the product with r lifted into it
    lifted = e * Quadratic.of(r, d=e.d)
    for product in (e * r, r * e):
        assert product == lifted and product.d is e.d
        assert str(product) == str(lifted)
        assert product.embed(256) == lifted.embed(256)


@settings(max_examples=50, deadline=None)
@given(qs_numbers(), qs_numbers())
def test_qs_division_and_inverse(x, y):
    if not y.is_zero:
        assert (x / y) * y == x
        assert y * y.inverse() == Quadratic.one(S2)


@settings(max_examples=30, deadline=None)
@given(qs_numbers())
def test_qs_pow_and_conjugate(x):
    assert x ** 3 == x * x * x
    prod = x * x.conjugate()
    assert prod.b == 0
    assert prod.a == x.norm()


@settings(max_examples=60, deadline=None)
@given(qs_numbers())
def test_qs_sign_matches_embedding(x):
    sgn = x.sign()
    if x.is_zero:
        assert sgn == 0
    else:
        emb = x.embed(128)
        assert sgn == (1 if emb > 0 else -1)


@settings(max_examples=40, deadline=None)
@given(qs_numbers())
def test_qs_embed_two_ulp(x):
    prec = 80
    lo = x.embed(prec)
    hi = x.embed(prec + 64)
    with mp.workprec(prec + 64):
        if hi == 0:
            assert lo == 0
        else:
            assert abs(lo - hi) <= abs(hi) * mp.mpf(2) ** (1 - prec) * 2


def test_qs_rejects_mixed_modulus():
    x = Quadratic.of(1, 1, d=Fraction(3, 4))
    y = Quadratic.of(1, 1, d=Fraction(5, 4))
    with pytest.raises(ValueError):
        _ = x + y


def test_nonpositive_modulus_rejected():
    # every modulus enters through Quadratic.of, which zero, one and root call
    with pytest.raises(ValueError, match="s2 must be positive"):
        Quadratic.of(1, d=Fraction(-1))
    with pytest.raises(ValueError, match="s2 must be positive"):
        Quadratic.root(Fraction(0))


def test_nonpositive_modulus_over_qs_rejected():
    # no Gaussian level: a modulus in Q(s) must be positive, decided
    # exactly, so sign() and the real embed() hold for every element
    for d in (Quadratic.of(-1, d=S2), Quadratic.zero(S2),
              Quadratic.of(Fraction(866, 1000), -1, d=S2)):   # just below 0
        with pytest.raises(ValueError, match="modulus over Q\\(s\\) must be positive"):
            Quadratic.of(1, 1, d=d)
        with pytest.raises(ValueError, match="modulus over Q\\(s\\) must be positive"):
            Quadratic.root(d)
    assert Quadratic.root(Quadratic.of(Fraction(867, 1000), -1, d=S2)).embed(64) > 0


def test_qs_sign_near_cancellation():
    # a + b s with a = -floor(b s) - style near misses: sign must be exact
    # sqrt(3)/2 = 0.86602540378...; 86602540378/10**11 is just below
    b = Fraction(10) ** 11
    a = -Fraction(86602540378)
    assert Quadratic.of(a, b, d=S2).sign() == 1
    assert Quadratic.of(-a, -b, d=S2).sign() == -1
    assert Quadratic.of(a - 1, b, d=S2).sign() == -1


@settings(max_examples=25, deadline=None)
@given(tower_triples())
def test_tower_ring_axioms(triple):
    x, y, z = triple
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=25, deadline=None)
@given(tower_triples())
def test_tower_inverse_and_sign(triple):
    x, _, _ = triple
    if not x.is_zero:
        one = x * x.inverse()
        assert one == x.inverse() * x
        assert (one - 1).is_zero
        emb = x.embed(128)
        if emb != 0:
            assert x.sign() == (1 if emb > 0 else -1)


@settings(max_examples=20, deadline=None)
@given(tower_triples())
def test_tower_conjugate_norm_descends(triple):
    x, _, _ = triple
    nq = x.norm()
    assert isinstance(nq, Quadratic) and nq.d == S2
    prod = x * x.conjugate()
    assert prod.b.is_zero
    assert prod.a == nq


# -- one class across the levels ------------------------------------------------

W2 = Quadratic.of(4, 2, d=S2)        # w^2 = 4 + 2s, a tower over Q(s)


def test_qs_element_lifts_from_either_side():
    x = Quadratic.of(Fraction(-3, 7), 5, d=S2)
    y = Quadratic.of(Fraction(1, 2), x, d=W2)
    lifted = Quadratic.of(x, d=W2)
    assert x + y == y + x == lifted + y
    assert x - y == -(y - x) == lifted - y
    assert x * y == y * x == lifted * y
    assert x / y == lifted / y
    assert (y / x) * x == y
    assert (x + y).d == W2


def test_levels_with_other_moduli_raise():
    tower = Quadratic.of(1, 1, d=W2)
    other_s = Quadratic.of(1, 1, d=Fraction(5, 4))
    other_w = Quadratic.of(1, 1, d=Quadratic.of(5, 2, d=S2))
    for x, y in ((tower, other_s), (tower, other_w)):
        for op in (lambda p, q: p + q, lambda p, q: p * q):
            with pytest.raises(ValueError):
                op(x, y)
            with pytest.raises(ValueError):
                op(y, x)


def test_text_forms_are_unchanged():
    x = Quadratic.of(Fraction(-3, 7), 5, d=S2)
    assert str(x) == "-3/7 + (5)s [s^2=3/4]"
    t = Quadratic.of(Quadratic.of(1, -2, d=S2), Fraction(1, 2), d=W2)
    assert str(t) == ("(1 + (-2)s [s^2=3/4]) + (1/2 + (0)s [s^2=3/4])w "
                      "[w^2=4 + (2)s [s^2=3/4]]")


def test_tower_sign_near_cancellation():
    # u + w with u a 40-digit truncation of -w: nonzero, and the sign
    # decision goes through the norm u^2 - w^2 in Q(s)
    with mp.workprec(300):
        w = mp.sqrt(4 + mp.sqrt(3))
        digits = int(mp.floor(w * mp.mpf(10) ** 40))
    for u in (Fraction(-digits, 10 ** 40), Fraction(-digits - 1, 10 ** 40)):
        for x in (Quadratic.of(u, 1, d=W2), Quadratic.of(-u, -1, d=W2)):
            assert not x.is_zero
            assert x.sign() == (1 if x.embed(256) > 0 else -1)
    assert Quadratic.of(Fraction(-digits, 10 ** 40), 1, d=W2).sign() == 1


# -- polynomials --------------------------------------------------------------


def poly(coeffs):
    return QsPolynomial.from_coeffs(
        [Quadratic.of(c, 0, d=S2) for c in coeffs], Quadratic.zero(S2)
    )


def qs_polys():
    return st.lists(rationals(12, 4), min_size=0, max_size=4).map(poly)


@settings(max_examples=30, deadline=None)
@given(qs_polys(), qs_polys())
def test_poly_product_rule(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert (lhs - rhs).is_zero


@settings(max_examples=30, deadline=None)
@given(st.lists(qs_numbers(), max_size=5), st.lists(qs_numbers(), max_size=5))
def test_qs_product_is_the_schoolbook_sum(f, g):
    # over Q(s) the product is one integer convolution over a common
    # denominator; each coefficient is the sum of the field products
    zero = Quadratic.zero(S2)
    fp, gp = (QsPolynomial.from_coeffs(c, zero) for c in (f, g))
    expect = [zero] * max(len(fp.coeffs) + len(gp.coeffs) - 1, 0)
    for i, a in enumerate(fp.coeffs):
        for j, b in enumerate(gp.coeffs):
            expect[i + j] = expect[i + j] + a * b
    assert fp * gp == QsPolynomial.from_coeffs(expect, zero)


@settings(max_examples=30, deadline=None)
@given(qs_polys(), qs_polys(), qs_numbers())
def test_poly_eval_is_homomorphism(f, g, x):
    assert (f * g).eval_exact(x) == f.eval_exact(x) * g.eval_exact(x)
    assert (f + g).eval_exact(x) == f.eval_exact(x) + g.eval_exact(x)


@settings(max_examples=30, deadline=None)
@given(qs_polys(), qs_polys())
def test_poly_divmod_identity(f, g):
    if g.is_zero:
        return
    q, r = polynomial_divmod(f, g)
    assert (q * g + r - f).is_zero
    assert r.degree < g.degree or r.is_zero


def test_poly_mul_rho_and_degree():
    f = poly([1, 2])
    assert f.degree == 1
    assert f.mul_rho(2).degree == 3
    assert f.mul_rho(2).coeff(0).is_zero
    assert poly([]).degree == -1


def test_sturm_counts_known_roots():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6: two positive roots
    assert sturm_positive_roots(poly([6, -7, 0, 1])) == 2
    # x^2 + 1: none
    assert sturm_positive_roots(poly([1, 0, 1])) == 0
    # roots at s and s+1 with s = sqrt(3)/2: (x-s)(x-s-1)
    s = Quadratic.root(S2)
    one = Quadratic.one(S2)
    x_minus_s = QsPolynomial.from_coeffs([-s, one], Quadratic.zero(S2))
    x_minus_s1 = QsPolynomial.from_coeffs([-s - 1, one], Quadratic.zero(S2))
    assert sturm_positive_roots(x_minus_s * x_minus_s1) == 2
    # content scaling does not change the count
    assert sturm_positive_roots((x_minus_s * x_minus_s1).scale(s)) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(rationals(6, 3), max_size=3), st.integers(-2, 2),
       st.integers(1, 3), qs_numbers())
def test_sturm_counts_constructed_roots(roots, b, c, scale):
    # scale (x^2 + b x + b^2 + c) prod (x - r): the quadratic has no real
    # root, so the count is the number of distinct positive r
    if scale.is_zero:
        return
    p = poly([b * b + c, b, 1]).scale(scale)
    for r in roots:
        p = p * poly([-r, 1])
    assert sturm_positive_roots(p) == len({r for r in roots if r > 0})


@settings(max_examples=40, deadline=None)
@given(st.lists(qs_numbers(), min_size=1, max_size=5))
def test_sturm_count_ignores_negative_scale(coeffs):
    # the chain is normalised by |leading coefficient|; a negative scale
    # flips every member and must leave the count alone
    p = QsPolynomial.from_coeffs(coeffs, Quadratic.zero(S2))
    if p.is_zero:
        return
    s = Quadratic.root(S2)
    assert sturm_positive_roots(p.scale(-s)) == sturm_positive_roots(p)


# -- the integer representation against Fraction pairs -----------------------
#
# An element of Q(s) is an integer triple (x, y, den) for (x + y s)/den, in
# lowest terms or not. The reference below keeps the rational pair (a, b) in
# Fractions and is the arithmetic the triple replaces; every operation, read
# and embedding of an element must agree with it, and two triples of one
# number must not be told apart by anything that leaves the field.

_GUARD = 8  # qsfield._EMBED_GUARD_BITS, restated so the reference is independent


class Ref:
    """a + b sqrt(d) on Fraction pairs; d a Fraction, or a Ref one level down."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def __add__(self, o):
        return Ref(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return Ref(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        return Ref(self.a * o.a + self.b * o.b * self.d, self.a * o.b + self.b * o.a, self.d)

    def norm(self):
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self):
        n = self.norm()
        ninv = n.inverse() if isinstance(n, Ref) else 1 / n
        return Ref(self.a * ninv, -(self.b * ninv), self.d)

    def __neg__(self):
        return Ref(-self.a, -self.b, self.d)

    @property
    def is_zero(self):
        return _ref_zero(self.a) and _ref_zero(self.b)

    def embed(self, precision):
        guarded = precision + _GUARD
        with mp.workprec(guarded):
            val = (_ref_embed(self.a, guarded)
                   + _ref_embed(self.b, guarded) * mp.sqrt(_ref_embed(self.d, guarded)))
        with mp.workprec(precision):
            return +val

    def sign(self):
        # from a wide embedding: a nonzero element of these fields is far
        # larger than 2^-2000 for the sizes drawn here
        with mp.workprec(2000):
            v = self.embed(2000)
        return (v > 0) - (v < 0)

    def __str__(self):
        if isinstance(self.d, Ref):
            return f"({self.a}) + ({self.b})w [w^2={self.d}]"
        return f"{self.a} + ({self.b})s [s^2={self.d}]"


def _ref_zero(x):
    return x.is_zero if isinstance(x, Ref) else x == 0


def _ref_embed(x, precision):
    if isinstance(x, Ref):
        return x.embed(precision)
    with mp.workprec(precision):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def same_number(q, r):
    """q (a Quadratic) and r (a Ref) are one number, part by part."""
    if isinstance(r.d, Ref):
        return same_number(q.a, r.a) and same_number(q.b, r.b) and same_number(q.d, r.d)
    return q.a == r.a and q.b == r.b and q.d == r.d


@st.composite
def triples(draw, s2=S2, big=10 ** 40):
    """(reduced element, an unreduced twin k times it, its Ref) of Q(s):
    negative values, large parts and denominators sharing factors."""
    x = draw(st.integers(-big, big))
    y = draw(st.integers(-big, big))
    den = draw(st.integers(1, 10 ** 6)) * draw(st.sampled_from((1, 2, 3, 4, 12)))
    k = draw(st.integers(2, 10 ** 12))
    ref = Ref(Fraction(x, den), Fraction(y, den), s2)
    g = math.gcd(x, y, den)
    x, y, den = x // g, y // g, den // g
    return (Quadratic.from_ints(x, y, den, d=s2),
            Quadratic.from_ints(k * x, k * y, k * den, d=s2), ref)


@st.composite
def near_cancellations(draw):
    """(x + y s)/den with x within a few units of -y s: the sign is decided
    by the last bits of x^2 q against y^2 p."""
    p, q = S2.numerator, S2.denominator
    y = draw(st.integers(1, 10 ** 30)) * draw(st.sampled_from((-1, 1)))
    root = math.isqrt(y * y * p // q)
    x = (root if y < 0 else -root) + draw(st.integers(-2, 2))
    den = draw(st.integers(1, 1000))
    k = draw(st.integers(2, 10 ** 6))
    return (Quadratic.from_ints(k * x, k * y, k * den, d=S2),
            Ref(Fraction(x, den), Fraction(y, den), S2))


def assert_edges_agree(q, twin, r):
    """What leaves the field: parts, text, hash and embeddings, for q, its
    twin and the reference."""
    assert same_number(q, r) and same_number(twin, r)
    assert q == twin and not q != twin
    assert hash(q) == hash(twin) == hash((q.a, q.b, q.d))
    assert str(q) == str(twin) == str(r)
    assert q.is_zero == twin.is_zero == r.is_zero
    assert q.sign() == twin.sign() == r.sign()
    for bits in (53, 256, 1000):
        e = q.embed(bits)
        assert e == twin.embed(bits) == r.embed(bits)


@settings(max_examples=60, deadline=None)
@given(triples(), triples())
def test_triples_agree_with_fraction_pairs(u, v):
    (x, x2, rx), (y, y2, ry) = u, v
    assert_edges_agree(x, x2, rx)
    for a, b in ((x, y), (x2, y2), (x, y2), (x2, y)):
        assert_edges_agree(a + b, b + a, rx + ry)
        assert_edges_agree(a - b, -(b - a), rx - ry)
        assert_edges_agree(a * b, b * a, rx * ry)
        if not ry.is_zero:
            assert_edges_agree(a / b, a * b.inverse(), rx * ry.inverse())
            assert_edges_agree(b.inverse(), 1 / b, ry.inverse())
    assert (x - x2).is_zero and x - x2 == Quadratic.zero(S2)
    assert (x == y) == (rx.a == ry.a and rx.b == ry.b)


@settings(max_examples=60, deadline=None)
@given(near_cancellations())
def test_sign_near_cancellation_of_triples(pair):
    x, r = pair
    assert x.sign() == r.sign()
    assert (-x).sign() == -r.sign()
    assert (x * x).sign() == (1 if not r.is_zero else 0)


@settings(max_examples=40, deadline=None)
@given(triples(big=10 ** 12), triples(big=10 ** 12), triples(big=10 ** 12),
       triples(big=10 ** 12), st.integers(0, 4))
def test_tower_over_triples_agrees_with_fraction_pairs(u, v, w, t, n):
    # tower elements whose Q(s) parts are unreduced triples, over the
    # modulus w^2 = 4 + n^2 + 2 n s as in the first-order system
    w2 = Quadratic.of(4 + n * n, 2 * n, d=S2)
    rw2 = Ref(Fraction(4 + n * n), Fraction(2 * n), S2)
    (a, a2, ra), (b, b2, rb), (c, c2, rc), (e, e2, re) = u, v, w, t
    x, x2, rx = Quadratic.of(a, b, d=w2), Quadratic.of(a2, b2, d=w2), Ref(ra, rb, rw2)
    y, y2, ry = Quadratic.of(c, e, d=w2), Quadratic.of(c2, e2, d=w2), Ref(rc, re, rw2)
    assert_edges_agree(x, x2, rx)
    assert_edges_agree(x + y2, y + x2, rx + ry)
    assert_edges_agree(x2 - y, -(y2 - x), rx - ry)
    assert_edges_agree(x * y2, y * x2, rx * ry)
    if ry.norm().is_zero:
        # at n = 0 the modulus 4 is a square, so y = c (1 - w/2) and its
        # like are zero divisors: both sides refuse to divide by them
        for divide in (lambda: x / y2, y2.inverse, lambda: 1 / y, ry.inverse):
            with pytest.raises(ZeroDivisionError):
                divide()
    else:
        assert_edges_agree(x / y2, x2 * y.inverse(), rx * ry.inverse())
        assert_edges_agree(y2.inverse(), 1 / y, ry.inverse())


def test_from_ints_checks_its_inputs():
    assert Quadratic.from_ints(6, -4, 8, d=S2) == Quadratic.of(Fraction(3, 4), Fraction(-1, 2), d=S2)
    with pytest.raises(ValueError, match="denominator must be positive"):
        Quadratic.from_ints(1, 1, 0, d=S2)
    with pytest.raises(ValueError, match="denominator must be positive"):
        Quadratic.from_ints(1, 1, -2, d=S2)
    with pytest.raises(ValueError, match="s2 must be positive"):
        Quadratic.from_ints(1, 1, 1, d=Fraction(-3, 4))
    with pytest.raises(TypeError):
        Quadratic.from_ints(1, 1, 1, d=Quadratic.of(4, 2, d=S2))


@pytest.mark.parametrize("x, den, k, bits", [
    (-7395413833116453493314848921838296975448, 193603, 416390898122, 53),
    (int("14847016657167996374525245439906129327242163990722999061524649201921959323898"
         "26621461045751415653730727988039151847239966"), 356102418539, 16184143790, 256),
], ids=["53 bits", "256 bits"])
def test_unreduced_twin_rounds_like_the_reduced_one(x, den, k, bits):
    # rounding k x and k den to the working precision before dividing
    # lands one ulp away from rounding x and den in these cases, so the
    # embedding must reduce first
    q = Quadratic.from_ints(x, 0, den, d=S2)
    twin = Quadratic.from_ints(k * x, 0, k * den, d=S2)
    assert twin.embed(bits) == q.embed(bits) == Ref(Fraction(x, den), Fraction(0), S2).embed(bits)
    assert str(twin) == str(q)
