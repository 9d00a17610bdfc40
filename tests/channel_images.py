"""Per-channel real images of the su(1,1) generators, shared by the tests.

`algebra.apply` gives the real part of a generator on one family member:
Xi+ = I P, Xi- = I M and 2 Xi3 = T, with I^2 = -1, so 2 Xi1 = I(P + M)
and 2 Xi2 = P - M. Each structure relation, times 2 or 4 and with an
overall power of I dropped, is then a real word sum in P, M and T, and so
is the agreement of the two Casimir routes, with C = 4 times the explicit
Casimir. The sums are reduced by hand from the relations, not read from
the package.
"""

from dirac_su11 import algebra as al
from dirac_su11.qsfield import QsPolynomial, Quadratic

LETTERS = {"P": "+", "M": "-", "T": "3", "C": "casimir"}

# word -> coefficient; a word's letters act right to left
REAL_RELATIONS = {
    # [Xi3, Xi+] - Xi+, times 2: I([T, P] - 2P)
    "3+": {"TP": 1, "PT": -1, "P": -2},
    # [Xi3, Xi-] + Xi-, times 2: I([T, M] + 2M)
    "3-": {"TM": 1, "MT": -1, "M": 2},
    # [Xi+, Xi-] + 2 Xi3: -[P, M] + T
    "+-": {"PM": -1, "MP": 1, "T": 1},
    # [Xi1, Xi2] + i Xi3, times 4: I([P + M, P - M] + 2T)
    "12": {"MP": 2, "PM": -2, "T": 2},
    # [Xi2, Xi3] - i Xi1, times 4: [P - M, T] + 2(P + M)
    "23": {"PT": 1, "MT": -1, "TP": -1, "TM": 1, "P": 2, "M": 2},
    # [Xi3, Xi1] - i Xi2, times 4: I([T, P + M] - 2(P - M))
    "31": {"TP": 1, "TM": 1, "PT": -1, "MT": -1, "P": -2, "M": 2},
    # explicit minus composed Casimir, times 4: C - T^2 - (P + M)^2 + (P - M)^2
    "Casimir routes": {"C": 1, "TT": -1, "PM": -2, "MP": -2},
}
COMMUTATORS = ("3+", "3-", "+-", "12", "23", "31")


def member(channel, offset, coeffs):
    """The family member of the given mode offset and polynomial part."""
    zero = Quadratic.zero(channel.s2)
    return al.FamilyFunction(channel, offset, QsPolynomial.from_coeffs(coeffs, zero))


def word(letters, f):
    """The word in P, M, T and C applied to f, right to left."""
    for letter in reversed(letters):
        f = al.apply(LETTERS[letter], f)
    return f


def residual(relation, f):
    """{offset: polynomial} of the relation's real word sum on f, nonzero
    parts only: empty iff the relation holds on f."""
    out = {}
    for letters, c in REAL_RELATIONS[relation].items():
        g = word(letters, f)
        term = g.poly.scale(c)
        out[g.offset] = out[g.offset] + term if g.offset in out else term
    return {k: p for k, p in out.items() if not p.is_zero}
