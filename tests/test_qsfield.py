"""Exact arithmetic layer: field axioms, signs, embeddings, polynomials."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_su11.qsfield import (
    QsNumber,
    QsPolynomial,
    TowerNumber,
    polynomial_divmod,
    sturm_positive_roots,
)

S2 = Fraction(3, 4)  # generic irrational case: s = sqrt(3)/2


def rationals(max_num=30, max_den=8):
    return st.fractions(
        min_value=-max_num, max_value=max_num, max_denominator=max_den
    )


def qs_numbers(s2=S2):
    return st.builds(lambda a, b: QsNumber.of(a, b, s2=s2), rationals(), rationals())


@st.composite
def tower_triples(draw):
    # w2 = tau^2 + n^2 + 2 n s is the shape that actually occurs; sharing n
    # keeps the three values in one quadratic extension
    n = draw(st.integers(min_value=0, max_value=4))
    w2 = QsNumber.of(Fraction(4) + n * n, 2 * n, s2=S2)

    def one_value():
        u = QsNumber.of(draw(rationals(15, 5)), draw(rationals(15, 5)), s2=S2)
        v = QsNumber.of(draw(rationals(15, 5)), draw(rationals(15, 5)), s2=S2)
        return TowerNumber.of(u, v, w2=w2)

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
@given(qs_numbers(), qs_numbers())
def test_qs_division_and_inverse(x, y):
    if not y.is_zero:
        assert (x / y) * y == x
        assert y * y.inverse() == QsNumber.one(S2)


@settings(max_examples=30, deadline=None)
@given(qs_numbers())
def test_qs_pow_and_conjugate(x):
    assert x ** 3 == x * x * x
    prod = x * x.conjugate()
    assert prod.is_rational
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
    x = QsNumber.of(1, 1, s2=Fraction(3, 4))
    y = QsNumber.of(1, 1, s2=Fraction(5, 4))
    with pytest.raises(ValueError):
        _ = x + y


def test_qs_sign_near_cancellation():
    # a + b s with a = -floor(b s) - style near misses: sign must be exact
    # sqrt(3)/2 = 0.86602540378...; 86602540378/10**11 is just below
    b = Fraction(10) ** 11
    a = -Fraction(86602540378)
    assert QsNumber.of(a, b, s2=S2).sign() == 1
    assert QsNumber.of(-a, -b, s2=S2).sign() == -1
    assert QsNumber.of(a - 1, b, s2=S2).sign() == -1


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
    nq = x.norm_qs()
    assert isinstance(nq, QsNumber)
    prod = x * x.conjugate_w()
    assert prod.v.is_zero
    assert prod.u == nq


# -- polynomials --------------------------------------------------------------


def poly(coeffs):
    return QsPolynomial.from_coeffs(
        [QsNumber.of(c, 0, s2=S2) for c in coeffs], QsNumber.zero(S2)
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
    s = QsNumber.s_root(S2)
    one = QsNumber.one(S2)
    x_minus_s = QsPolynomial.from_coeffs([-s, one], QsNumber.zero(S2))
    x_minus_s1 = QsPolynomial.from_coeffs([-s - 1, one], QsNumber.zero(S2))
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
    p = QsPolynomial.from_coeffs(coeffs, QsNumber.zero(S2))
    if p.is_zero:
        return
    s = QsNumber.s_root(S2)
    assert sturm_positive_roots(p.scale(-s)) == sturm_positive_roots(p)
