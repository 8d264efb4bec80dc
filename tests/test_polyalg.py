"""factor_rat, the monic factoring bridge over Q, against sympy factoring the
rational polynomial directly; the product and ratio polynomials built from
power sums against bivariate resultants as the oracle; the integer
cyclotomic polynomials and their identification against sympy's
``cyclotomic_poly`` and ``totient``; the exterior-power polynomials against
the characteristic polynomial of the explicit matrix of minors."""

from fractions import Fraction
from itertools import combinations

import sympy
from hypothesis import given, settings, strategies as st

from tdyn import polyalg
from tdyn.exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    RatPolynomial,
    char_poly,
    det_exact,
)
from tdyn.polyalg import (
    cyclotomic,
    cyclotomic_order,
    exterior_power_polynomials,
    factor_int,
    factor_rat,
    product_polynomial,
    ratio_polynomial,
    totients,
)

_X = sympy.Symbol("x")


def _sympy_monic_factors(p: RatPolynomial):
    """Monic factors from sympy's factorization over QQ."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], _X, domain=sympy.QQ)
    out = []
    for f, mult in poly.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())]
        out.append((RatPolynomial.of(coeffs), mult))
    return out


def _mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def rational_polynomials(draw):
    """A rational constant times one to three small factors of degree 1-2,
    each squared or not: reducible, repeated and non-monic cases."""
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    nonzero = coeff.filter(bool)
    acc = [draw(nonzero)]
    for _ in range(draw(st.integers(1, 3))):
        factor = [draw(coeff) for _ in range(draw(st.integers(1, 2)))] + [draw(nonzero)]
        for _ in range(draw(st.integers(1, 2))):
            acc = _mul(acc, factor)
    return RatPolynomial.of(acc)


@settings(max_examples=200, deadline=None)
@given(rational_polynomials())
def test_factor_rat_matches_sympy_over_q(p):
    assert factor_rat(p) == _sympy_monic_factors(p)


# ---------------------------------------------------------------- composed products

_Y = sympy.Symbol("y")


def _from_resultant(res) -> IntPolynomial:
    primitive = sympy.Poly(res, _X).primitive()[1]
    return IntPolynomial.of(int(c) for c in reversed(primitive.all_coeffs()))


def _product_by_resultant(v: IntPolynomial) -> IntPolynomial:
    """Res_y(v(y), y^d v(x/y)): roots r_i r_j over ordered pairs (oracle)."""
    d = v.degree
    vy = sum(c * _Y ** i for i, c in enumerate(v.coeffs))
    vxy = sum(c * _X ** i * _Y ** (d - i) for i, c in enumerate(v.coeffs))
    return _from_resultant(sympy.resultant(vy, sympy.expand(vxy), _Y))


def _ratio_by_resultant(v: IntPolynomial) -> IntPolynomial:
    """Res_y(v(y), v(xy)) / (x - 1)^d: roots r_i / r_j, i != j (oracle)."""
    vy = sum(c * _Y ** i for i, c in enumerate(v.coeffs))
    vxy = sum(c * (_X * _Y) ** i for i, c in enumerate(v.coeffs))
    res = sympy.Poly(sympy.resultant(vy, sympy.expand(vxy), _Y), _X)
    quo, rem = sympy.div(res, sympy.Poly((_X - 1) ** v.degree, _X))
    assert rem.is_zero
    return _from_resultant(quo)


@st.composite
def integer_polynomials(draw, zero_constant=True):
    """Degree 1-6, monic or not; a zero constant term only when allowed."""
    d = draw(st.integers(1, 6))
    constant = st.integers(-4, 4) if zero_constant else st.integers(-4, 4).filter(bool)
    coeffs = [draw(constant)] + [draw(st.integers(-4, 4)) for _ in range(d - 1)]
    lead = draw(st.sampled_from([1, 1, -1, 2, 3, -5]))
    return IntPolynomial.of(coeffs + [lead])


@settings(max_examples=150, deadline=None)
@given(integer_polynomials())
def test_product_polynomial_matches_resultant(v):
    got, oracle = product_polynomial(v), _product_by_resultant(v)
    if v.constant != 0:
        assert got == oracle
    else:
        assert got in (oracle, -oracle)
    assert got.leading > 0
    assert factor_int(got)[1] == factor_int(oracle)[1]


@settings(max_examples=150, deadline=None)
@given(integer_polynomials(zero_constant=False))
def test_ratio_polynomial_matches_resultant(v):
    got, oracle = ratio_polynomial(v), _ratio_by_resultant(v)
    assert got.leading > 0
    assert got in (oracle, -oracle)
    assert factor_int(got)[1] == factor_int(oracle)[1]


# ---------------------------------------------------------------- cyclotomics

def _sympy_cyclotomic(m: int) -> IntPolynomial:
    poly = sympy.Poly(sympy.cyclotomic_poly(m, _X), _X)
    return IntPolynomial.of(int(c) for c in reversed(poly.all_coeffs()))


def _sympy_cyclotomic_order(p: IntPolynomial):
    """The identification through sympy's totient and cyclotomic_poly
    (oracle)."""
    if p.is_zero or not p.is_monic:
        return None
    d = p.degree
    for m in range(1, 2 * d * d + 2):
        if sympy.totient(m) == d and _sympy_cyclotomic(m) == p:
            return m
    return None


def test_cyclotomic_matches_sympy_and_is_identified():
    for m in range(1, 201):
        assert cyclotomic(m) == _sympy_cyclotomic(m), m
    for m in range(1, 61):
        assert cyclotomic_order(cyclotomic(m)) == m
    assert totients(200) == [0] + [int(sympy.totient(m)) for m in range(1, 201)]


def test_cyclotomic_order_rejects_products_and_non_cyclotomics():
    # Phi_3 Phi_4 has degree 4 = phi(12), and x^n = 1 on its roots first at
    # n = 12, but it is not Phi_12
    assert cyclotomic(3) * cyclotomic(4) != cyclotomic(12)
    assert cyclotomic_order(cyclotomic(3) * cyclotomic(4)) is None
    assert cyclotomic_order(cyclotomic(1) * cyclotomic(2)) is None   # x^2 - 1
    assert cyclotomic_order(IntPolynomial.of([1, -3, 1])) is None    # x^2 - 3x + 1
    assert cyclotomic_order(IntPolynomial.of([2, 2, 2])) is None     # 2 Phi_3
    assert cyclotomic_order(IntPolynomial.of([-1, 2])) is None       # 2x - 1


def test_cyclotomic_order_sieves_only_for_a_unit_constant_term(monkeypatch):
    # Phi_1(0) = -1 and Phi_m(0) = 1 for m >= 2, so x^200 + 2 needs no sieve
    # up to 2 * 200^2 + 1
    sieved = []
    monkeypatch.setattr(polyalg, "totients",
                        lambda limit: sieved.append(limit) or totients(limit))
    assert cyclotomic_order(IntPolynomial.of([2] + [0] * 199 + [1])) is None
    assert sieved == []
    assert cyclotomic_order(cyclotomic(7)) == 7
    assert sieved == [73]


@st.composite
def monic_polynomials(draw):
    """Monic, degree 0-6: products of up to three cyclotomic polynomials of
    degree <= 2, times a random monic factor or not."""
    p = IntPolynomial.of([1])
    for m in draw(st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=3)):
        p = p * cyclotomic(m)
    if draw(st.booleans()):
        d = draw(st.integers(0, 6 - p.degree))
        p = p * IntPolynomial.of([draw(st.integers(-2, 2)) for _ in range(d)] + [1])
    return p


@settings(max_examples=150, deadline=None)
@given(st.one_of(monic_polynomials(),
                 st.integers(1, 30).map(cyclotomic).filter(lambda p: p.degree <= 6)))
def test_cyclotomic_order_matches_the_sympy_route(p):
    assert cyclotomic_order(p) == _sympy_cyclotomic_order(p)


def _exterior_power(rows, k):
    """The matrix of wedge^k A on the basis e_I, I a k-subset in
    lexicographic order: entry (I, J) is the minor det A[I, J]."""
    subsets = list(combinations(range(len(rows)), k))
    return BigIntMatrix.from_rows([
        [det_exact(BigIntMatrix.from_rows([[rows[i][j] for j in J] for i in I]))
         if k else 1 for J in subsets] for I in subsets])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_exterior_power_polynomials_match_the_minor_matrices(rows):
    cp = char_poly(BigIntMatrix.from_rows(rows)).to_int()
    assert exterior_power_polynomials(cp) == [
        char_poly(_exterior_power(rows, k)).to_int() for k in range(len(rows) + 1)]
