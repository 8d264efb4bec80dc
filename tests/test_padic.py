import random
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from tdyn.errors import InputError, UnsupportedPairingError
from tdyn.exact_linalg import IntPolynomial, char_poly
from tdyn.group_model import section
from tdyn.padic import (
    newton_polygon,
    ord_p,
    padic_growth_factor,
    root_valuations,
)


def test_ord_p_examples():
    assert ord_p(12, 2) == 2
    assert ord_p(Fraction(1, 9), 3) == -2
    assert ord_p(5, 2) == 0


def _ord_by_division(q, p):
    """The valuation by one division per unit, the loop ord_p replaces."""
    def ord_int(n):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        return k
    q = Fraction(q)
    return ord_int(q.numerator) - ord_int(q.denominator)


@given(st.sampled_from([2, 3, 5, 7, 101]),
       st.integers(min_value=1, max_value=10 ** 40),
       st.integers(min_value=0, max_value=700),
       st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=0, max_value=60),
       st.booleans())
def test_ord_p_matches_the_division_loop(p, m, k, den, j, negative):
    value = (-1 if negative else 1) * m * p ** k
    assert ord_p(value, p) == _ord_by_division(value, p)
    q = Fraction(value, den * p ** j)
    assert ord_p(q, p) == _ord_by_division(q, p)


def test_ord_p_errors():
    with pytest.raises(InputError):
        ord_p(0, 2)
    with pytest.raises(InputError):
        ord_p(3, 4)


def test_ord_p_additive_on_quotients():
    assert ord_p(Fraction(8, 3), 2) == 3
    assert ord_p(Fraction(3, 8), 2) == -3
    assert ord_p(Fraction(-12, 18), 3) == -1


@given(st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0),
       st.integers(min_value=1, max_value=10**6),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_ord_p_of_quotient_is_difference(a, b, p):
    assert ord_p(Fraction(a, b), p) == ord_p(a, p) - ord_p(b, p)


def adelic_product(q: Fraction) -> Fraction:
    import sympy
    primes = set(sympy.factorint(abs(q.numerator)).keys()) | set(
        sympy.factorint(q.denominator).keys())
    total = abs(q)
    for p in primes:
        total *= Fraction(p) ** (-ord_p(q, p))
    return total


@given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                    max_denominator=10**6).filter(lambda q: q != 0))
def test_adelic_product_formula(q):
    assert adelic_product(q) == 1


def test_newton_polygon_sqrt2():
    np_ = newton_polygon(IntPolynomial.of([-2, 0, 1]), 2)
    assert np_.segments == ((Fraction(-1, 2), 2),)
    assert root_valuations(IntPolynomial.of([-2, 0, 1]), 2) == [Fraction(1, 2)] * 2


def test_newton_polygon_unit_root():
    np_ = newton_polygon(IntPolynomial.of([-1, 1]), 7)
    assert np_.segments == ((Fraction(0), 1),)


def test_newton_polygon_flat_for_unit_ends():
    np_ = newton_polygon(IntPolynomial.of([1, -3, 1]), 5)
    assert np_.segments == ((Fraction(0), 2),)


def test_newton_polygon_mixed_slopes():
    # (x - 2)(2x - 1) = 2x^2 - 5x + 2: valuations 1 and -1 at p=2
    f = IntPolynomial.of([2, -5, 2])
    assert sorted(root_valuations(f, 2)) == [Fraction(-1), Fraction(1)]


def test_newton_polygon_zero_roots_excluded():
    f = IntPolynomial.of([0, 0, 4, 2])  # x^2 (2x + 4)... ascending: 4x^2 + 2x^3
    vals = root_valuations(f, 2)
    assert vals[:2] == [inf, inf]
    assert vals[2:] == [Fraction(1)]


def test_newton_polygon_bookkeeping_random():
    rng = random.Random(31)
    for _ in range(120):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-40, 40) for _ in range(deg)] + [rng.randint(1, 40)]
        f = IntPolynomial.of(coeffs)
        for p in (2, 3, 5):
            zeros = 0
            while f.coeffs[zeros] == 0:
                zeros += 1
            rise = sum(-s * l for s, l in newton_polygon(f, p).segments)
            assert rise == ord_p(f.coeffs[zeros], p) - ord_p(f.leading, p)


def test_newton_polygon_rational_root_valuations():
    rng = random.Random(77)
    for _ in range(60):
        deg = rng.randint(1, 4)
        roots = []
        poly = IntPolynomial.of([1])
        for _ in range(deg):
            num = rng.randint(-9, 9)
            den = rng.randint(1, 9)
            if num == 0:
                num = 1
            roots.append(Fraction(num, den))
            poly = poly * IntPolynomial.of([-num, den])
        for p in (2, 3, 5):
            expected = sorted(ord_p(r, p) for r in roots)
            got = sorted(root_valuations(poly, p))
            assert got == [Fraction(v) for v in expected]


# ------------------------------------------------------- growth factors

def test_padic_growth_factor_integer_section_is_one():
    sec = section(1, [[2]], primes=[2])
    assert padic_growth_factor(sec, 2).exponent == 0


def test_padic_growth_factor_half():
    sec = section(1, [[Fraction(1, 2)]], primes=[2])
    f = padic_growth_factor(sec, 2)
    assert f.exponent == 1 and f.value == 2.0


def test_padic_growth_factor_unit_eigenvalue():
    sec = section(1, [[3]], primes=[])
    assert padic_growth_factor(sec, 5).exponent == 0


def test_padic_growth_factor_scalar_pair():
    # phi = x/2, psi = 3x/2 over Z[1/2]: equal valuations, term |eta|_2 = 2
    sec = section(1, [[Fraction(1, 2)]], [[Fraction(3, 2)]], primes=[2])
    assert padic_growth_factor(sec, 2).exponent == 1


def test_padic_growth_factor_scalar_vs_matrix():
    # phi diag-like with mixed valuations, psi = 2*I
    sec = section(2, [[Fraction(1, 2), 0], [0, 4]], [[2, 0], [0, 2]], primes=[2])
    # pairs (1/2, 2) and (4, 2): -min(-1,1) - min(2,1) = 1 - 1 = 0
    assert padic_growth_factor(sec, 2).exponent == 0


def test_padic_growth_factor_commuting_diagonalizable():
    sec = section(2, [[Fraction(1, 2), 0], [0, 3]], [[2, 0], [0, 5]], primes=[2])
    f = padic_growth_factor(sec, 2)
    # blocks pair (1/2 with 2) and (3 with 5): -min(-1,1) - min(0,0) = 1
    assert f.exponent == 1


def test_padic_growth_factor_noncommuting_rejected():
    sec = section(2, [[1, 1], [0, 2]], [[2, 0], [1, 3]], primes=[2])
    with pytest.raises(UnsupportedPairingError):
        padic_growth_factor(sec, 2)


_entry = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda d: st.lists(st.lists(_entry, min_size=d, max_size=d),
                              min_size=d, max_size=d)),
       st.sampled_from([0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-4, 9), 6, 12]),
       st.sampled_from([[2], [3], [2, 3]]),
       st.booleans())
def test_scalar_side_pairs_each_eigenvalue_with_the_scalar(rows, s, primes, swap):
    # oracle: sum over the eigenvalues xi_i of phi of -min(v(xi_i), ord_p s),
    # with v(0) = inf; min = inf is a common zero, the pair is not tame
    d = len(rows)
    scalar = [[s if i == j else 0 for j in range(d)] for i in range(d)]
    sec = (section(d, scalar, rows, primes=primes) if swap
           else section(d, rows, scalar, primes=primes))
    matrix = sec.psi if swap else sec.phi
    for p in primes:
        w = inf if s == 0 else Fraction(ord_p(s, p))
        mins = [min(v, w) for v in root_valuations(char_poly(matrix), p)]
        if inf in mins:
            with pytest.raises(UnsupportedPairingError):
                padic_growth_factor(sec, p)
        else:
            assert padic_growth_factor(sec, p).exponent == -sum(mins)


def test_integer_matrix_polygon_slopes_nonpositive_contribution():
    # integral char poly -> all |xi|_p <= 1 -> factor exactly 1 (psi = id)
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 3)
        rows = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        sec = section(d, rows, primes=[2])
        assert padic_growth_factor(sec, 2).exponent == 0


def test_a_prime_too_long_to_print_is_an_input_error():
    # 10^5000 has more digits than str() converts; the message must not
    # print it
    with pytest.raises(InputError, match="^p is not prime$"):
        ord_p(12, 10 ** 5000)
