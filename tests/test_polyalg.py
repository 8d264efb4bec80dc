"""factor_rat, the monic factoring bridge over Q, against sympy factoring the
rational polynomial directly; the product and ratio polynomials built from
power sums against bivariate resultants as the oracle."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from tdyn.exact_linalg import IntPolynomial, RatPolynomial
from tdyn.polyalg import factor_int, factor_rat, product_polynomial, ratio_polynomial

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
