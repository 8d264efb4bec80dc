"""factor_rat, the monic factoring bridge over Q, against sympy factoring the
rational polynomial directly."""

from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from tdyn.exact_linalg import RatPolynomial
from tdyn.polyalg import factor_rat

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
