"""The in-tree kernels over GF(p) and Z, and is_prime, against the sympy
kernels they replace; factor_int, gcd_int and exact_quotient against the
``Poly``-level calls; the mod-p certificate of factor_int against
dup_factor_list; is_squarefree against ``Poly.is_sqf``; factor_int of a
rational polynomial with its denominators cleared against sympy factoring
it over QQ; the composed products and the product and ratio polynomials
built from power sums against bivariate resultants and against Newton's
identities over Q as oracles; the integer cyclotomic polynomials and their
identification against sympy's ``cyclotomic_poly`` and ``totient``; the
exterior-power polynomials against the characteristic polynomial of the
explicit matrix of minors."""

from fractions import Fraction
from itertools import combinations, islice
from math import lcm

import sympy
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from sympy.polys import factortools
from sympy.polys.densearith import dup_div
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_gcd, dup_inner_gcd
from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_irreducible_p, gf_sqf_p
from sympy.polys.sqfreetools import dup_sqf_list

from tdyn import polyalg
from tdyn.exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    char_poly,
    det_exact,
    exterior_power_polynomials,
)
from tdyn.errors import InputError
from tdyn.polyalg import (
    composed_product,
    coprime_base,
    cyclotomic,
    cyclotomic_factors,
    cyclotomic_order,
    exact_quotient,
    factor_int,
    gcd_int,
    is_squarefree,
    product_polynomial,
    ratio_polynomial,
    squarefree_parts,
    symmetric_galois_group,
    to_sympy,
    totients,
)

_X = sympy.Symbol("x")


# ---------------------------------------------------------------- the in-tree kernels

def _dense(coeffs) -> list:
    """Ascending ints as sympy's dense ZZ list, highest degree first."""
    return [ZZ(c) for c in reversed(polyalg._strip(list(coeffs)))]


def _ascending(f) -> list:
    return [int(c) for c in reversed(f)]


def _times(f: list, g: list) -> list:
    return polyalg._coeffs(polyalg._poly(f) * polyalg._poly(g)) if f and g else []


# degree 0-12, coefficients small or up to 2^64: zero, constant and non-monic
kernel_lists = st.lists(st.integers(-3, 3) | st.integers(-2 ** 64, 2 ** 64),
                        max_size=13).map(polyalg._strip)
small_lists = st.lists(st.integers(-4, 4), max_size=5).map(polyalg._strip)
kernel_primes = st.sampled_from([2, 3, 5, 7, 13, 101, 65537])


def _monic_mod(f: list, p: int) -> list:
    f = polyalg._strip([c % p for c in f])
    return [c * pow(f[-1], -1, p) % p for c in f] if f else f


@settings(max_examples=300, deadline=None)
@given(kernel_lists, small_lists, kernel_primes)
def test_ben_or_matches_gf_irreducible_p(f, g, p):
    # times a small factor, so that reducible reductions are common
    for h in (f, _times(f, g)):
        h = _monic_mod(h, p)
        assert polyalg._irreducible_mod(h, p) == gf_irreducible_p(h[::-1], p, ZZ)


@settings(max_examples=300, deadline=None)
@given(kernel_lists, small_lists, kernel_primes)
def test_the_cycle_types_match_gf_ddf_zassenhaus(f, g, p):
    h = _monic_mod(_times(f, g) or f, p)
    assume(len(h) > 1 and gf_sqf_p(h[::-1], p, ZZ))
    expected = sorted(k for factor, k in gf_ddf_zassenhaus(h[::-1], p, ZZ)
                      for _ in range((len(factor) - 1) // k))
    assert polyalg._cycle_type(h, p) == expected


@settings(max_examples=300, deadline=None)
@given(kernel_lists)
def test_the_discriminant_matches_dup_discriminant(f):
    assert polyalg._discriminant(f) == int(dup_discriminant(_dense(f), ZZ))


@settings(max_examples=300, deadline=None)
@given(kernel_lists, kernel_lists, small_lists)
def test_the_gcd_matches_dup_gcd(f, g, common):
    # with the same sign and content, and dup_inner_gcd's cofactors; the
    # remainder sequence behind the heuristic gcd agrees on its own
    for a, b in ((f, g), (_times(f, common), _times(g, common))):
        h, cff, cfg = polyalg._gcd(a, b)
        assert h == _ascending(dup_gcd(_dense(a), _dense(b), ZZ))
        assert (h, cff, cfg) == tuple(map(_ascending, dup_inner_gcd(_dense(a), _dense(b), ZZ)))
        if len(a) > 1 and len(b) > 1:
            c = h[-1] // polyalg._primitive(h)[-1]
            primitive = [[v // c for v in a], [v // c for v in b]]
            assert polyalg._remainder_sequence_gcd(*primitive) == (
                polyalg._primitive(h), cff, cfg)


@settings(max_examples=300, deadline=None)
@given(kernel_lists, st.lists(small_lists, max_size=2))
def test_yun_matches_dup_sqf_list(f, repeated):
    # small factors, some squared, give repeated factors; same order and
    # normalization
    for g in repeated:
        f = _times(f, _times(g, g))
    assume(f)
    assert polyalg._squarefree_decomposition(f) == [
        (_ascending(part), k) for part, k in dup_sqf_list(_dense(f), ZZ)[1]]


@settings(max_examples=300, deadline=None)
@given(kernel_lists, kernel_lists)
def test_division_matches_dup_div(f, g):
    assume(g)
    for a in (f, _times(f, g)):
        assert polyalg._divmod(a, g) == tuple(map(_ascending, dup_div(_dense(a), _dense(g), ZZ)))


_BOUND = polyalg._MILLER_RABIN_BOUND


@pytest.mark.parametrize("n", [
    0, 1, -1, -2, -7, 2, 3, 4, 41, 43, 561, 41041, 2047, 3215031751, 2 ** 61 - 1,
    # the strong pseudoprime to the first 12 prime bases, and the bound
    318665857834031151167461, _BOUND - 2, _BOUND - 1, _BOUND, _BOUND + 1, _BOUND + 2,
])
def test_is_prime_matches_sympy_isprime(n):
    assert polyalg.is_prime(n) == sympy.isprime(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10, 10 ** 6) | st.integers(_BOUND - 10 ** 6, _BOUND + 10 ** 6)
       | st.integers(2, 2 ** 64).map(lambda n: n | 1))
def test_is_prime_matches_sympy_isprime_on_random_integers(n):
    assert polyalg.is_prime(n) == sympy.isprime(n)


# ---------------------------------------------------------------- the dense bridge

def _from_poly(poly: sympy.Poly) -> IntPolynomial:
    return IntPolynomial.of(int(c) for c in reversed(poly.all_coeffs()))


def _poly_factor_int(p: IntPolynomial):
    """factor_int through Poly.factor_list (oracle)."""
    unit, factors = to_sympy(p).factor_list()
    return int(unit), [(_from_poly(f), m) for f, m in factors]


def _poly_exact_quotient(p: IntPolynomial, q: IntPolynomial):
    """p / q through sympy.div over QQ, or None unless it is exact over Z
    (oracle)."""
    quo, rem = sympy.div(to_sympy(p), to_sympy(q))
    if not rem.is_zero or any(not c.is_integer for c in quo.all_coeffs()):
        return None
    return _from_poly(quo)


# degree 0-5 with small or 200-bit coefficients, times a content and a sign:
# zero, constants, negative leading coefficients and non-primitive content
_coefficient = st.integers(-6, 6) | st.integers(-2 ** 200, 2 ** 200)
bridge_polynomials = st.builds(
    lambda cs, content: IntPolynomial.of([content * c for c in cs] or [0]),
    st.lists(_coefficient, max_size=6),
    st.sampled_from([1, -1, 2, -6, 2 ** 200]))
small_factors = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    IntPolynomial.of).filter(lambda p: not p.is_zero)


def _ints(p: IntPolynomial) -> bool:
    return all(type(c) is int for c in p.coeffs)


@settings(max_examples=150, deadline=None)
@given(bridge_polynomials, st.lists(small_factors, max_size=3))
def test_factor_int_matches_poly_factor_list(p, repeated):
    # small factors, some of them twice, give repeated and shared factors
    for f in repeated:
        p = p * f * f
    if p.is_zero:
        with pytest.raises(InputError):
            factor_int(p)
        return
    unit, factors = factor_int(p)
    assert (unit, factors) == _poly_factor_int(p)
    assert type(unit) is int and all(_ints(f) for f, _ in factors)


@settings(max_examples=150, deadline=None)
@given(bridge_polynomials, bridge_polynomials, small_factors)
def test_gcd_int_matches_sympy_gcd(p, q, common):
    for a, b in ((p, q), (p * common, q * common)):
        g = gcd_int(a, b)
        assert g == _from_poly(sympy.gcd(to_sympy(a), to_sympy(b)))
        assert _ints(g)


@settings(max_examples=150, deadline=None)
@given(bridge_polynomials, bridge_polynomials)
def test_exact_quotient_matches_sympy_div(p, q):
    if q.is_zero:
        with pytest.raises(InputError):
            exact_quotient(p, q)
        return
    assert exact_quotient(p * q, q) == p
    expected = _poly_exact_quotient(p, q)
    if expected is None:
        with pytest.raises(InputError):
            exact_quotient(p, q)
    else:
        quo = exact_quotient(p, q)
        assert quo == expected and _ints(quo)


def test_the_dense_bridge_builds_no_poly(monkeypatch):
    p = IntPolynomial.of([-1, -1, 0, 0, 1]) * IntPolynomial.of([3, 0, 2])
    q = IntPolynomial.of([3, 0, 2]) * IntPolynomial.of([1, 1])
    built = []
    new = sympy.Poly.__new__
    monkeypatch.setattr(sympy.Poly, "__new__",
                        lambda cls, *a, **k: built.append(cls) or new(cls, *a, **k))
    to_sympy(p)
    assert built == [sympy.Poly]  # the counter sees a Poly being built
    built.clear()
    factor_int(p)
    gcd_int(p, q)
    exact_quotient(p, IntPolynomial.of([3, 0, 2]))
    assert built == []


# ---------------------------------------------------------------- the mod-p certificate

# products of one to three pieces, each a small polynomial, a cyclotomic
# polynomial or x, some squared, times a content and a sign: irreducible,
# reducible, repeated-factor, cyclotomic, zero-constant, non-primitive and
# negative-leading cases
_pieces = st.tuples(
    st.lists(st.integers(-4, 4), min_size=2, max_size=6).map(IntPolynomial.of).filter(
        lambda p: p.degree >= 1)
    | st.integers(1, 12).map(cyclotomic)
    | st.just(IntPolynomial.of([0, 1])),
    st.integers(1, 2))


def _product(pieces, content):
    p = IntPolynomial.of([content])
    for f, k in pieces:
        p = p * f.pow(k)
    return p


certificate_polynomials = st.builds(
    _product, st.lists(_pieces, min_size=1, max_size=3), st.sampled_from([1, -1, 2, -6]))


@pytest.fixture
def zassenhaus_calls(monkeypatch):
    """The polynomials factor_int hands to sympy's dup_factor_list."""
    calls = []
    factor_list = factortools.dup_factor_list
    monkeypatch.setattr(factortools, "dup_factor_list",
                        lambda f, K: calls.append(f) or factor_list(f, K))
    return calls


def test_primes_are_the_primes_in_order():
    assert list(islice(polyalg.primes(), 200)) == list(sympy.primerange(2, sympy.prime(200) + 1))


@settings(max_examples=300, deadline=None)
@given(certificate_polynomials)
def test_factor_int_matches_dup_factor_list(p):
    unit, factors = factortools.dup_factor_list(_dense(p.coeffs), ZZ)
    assert factor_int(p) == (int(unit), [(IntPolynomial.of(_ascending(f)), m)
                                         for f, m in factors])


@settings(max_examples=300, deadline=None)
@given(certificate_polynomials)
# the discriminant of x (x - 9699690) is 9699690^2, the product of the
# primes up to 19 squared, so it is x^2 modulo each of them; and a product
# of two distinct irreducible polynomials
@example(IntPolynomial.of([0, -9699690, 1]))
@example(IntPolynomial.of([-1, 1]).pow(2) * IntPolynomial.of([0, -9699690, 1]))
@example(IntPolynomial.of([-1, -1, 0, 0, 0, 0, 0, 1]) * IntPolynomial.of([-1, -1, 0, 0, 0, 1]))
def test_is_squarefree_matches_sympy_is_sqf(p):
    assert is_squarefree(p) == to_sympy(p).is_sqf


@pytest.mark.parametrize("r", range(2, 13))
def test_an_irreducible_polynomial_with_a_d_cycle_skips_zassenhaus(r, zassenhaus_calls):
    # x^r - x - 1 has Galois group S_r, whose r-cycles show modulo a small prime
    p = _selmer_poly(r)
    assert factor_int(p) == (1, [(p, 1)])
    assert factor_int(IntPolynomial.of([-2]) * p) == (-2, [(p, 1)])
    assert zassenhaus_calls == []


@pytest.mark.parametrize("coeffs, why", [
    ([1, 0, 0, 0, 1], "x^4 + 1: reducible modulo every prime"),
    ([1, 0, -10, 0, 1], "x^4 - 10x^2 + 1: reducible modulo every prime"),
    ([1, 2, 0, -1, -1, -1, 1], "(x^2 - x - 1)(x^4 - x - 1)"),
])
def test_a_polynomial_with_no_certificate_falls_back_to_zassenhaus(coeffs, why,
                                                                   zassenhaus_calls):
    p = IntPolynomial.of(coeffs)
    assert not any(polyalg._irreducible_mod(f, q) for q, f in polyalg._reductions(p.coeffs))
    expected = _poly_factor_int(p)
    zassenhaus_calls.clear()  # the oracle's own call
    assert factor_int(p) == expected, why
    assert len(zassenhaus_calls) == 1, why


def _sympy_monic_factors(p: list):
    """Monic factors, as ascending Fraction lists, from sympy's
    factorization over QQ of the polynomial with ascending coefficients p."""
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], _X, domain=sympy.QQ)
    out = []
    for f, mult in poly.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())]
        out.append((coeffs, mult))
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
    return acc


@settings(max_examples=200, deadline=None)
@given(rational_polynomials())
def test_factor_rat_matches_sympy_over_q(p):
    # the primitive factors of the polynomial with its denominators
    # cleared, made monic, are its monic irreducible factors over QQ
    L = lcm(*(c.denominator for c in p))
    _, factors = factor_int(IntPolynomial.of(c * L for c in p))
    assert [([Fraction(c, f.leading) for c in f.coeffs], m) for f, m in factors] == \
        _sympy_monic_factors(p)


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


def _composed_by_resultant(f: IntPolynomial, g: IntPolynomial, c: int) -> IntPolynomial:
    """Res_y(f(y), y^m g(x/y)) at c x, m = deg g: roots r r' / c (oracle)."""
    m = g.degree
    fy = sum(a * _Y ** i for i, a in enumerate(f.coeffs))
    gxy = sum(a * _X ** i * _Y ** (m - i) for i, a in enumerate(g.coeffs))
    res = sympy.resultant(fy, sympy.expand(gxy), _Y).subs(_X, c * _X)
    oracle = _from_resultant(sympy.expand(res))
    return oracle if oracle.leading > 0 else -oracle


monic_polynomials = st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(
    lambda cs: cs[0] != 0).map(lambda cs: IntPolynomial.of(cs + [1]))


@settings(max_examples=100, deadline=None)
@given(monic_polynomials, monic_polynomials, st.sampled_from([1, 2, -3]))
def test_composed_product_matches_resultant(f, g, c):
    assert composed_product(f, g, c) == _composed_by_resultant(f, g, c)


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


def _power_sums_over_q(v: IntPolynomial, N: int) -> list:
    """p_1, ..., p_N of the roots of v by Newton's identities on the monic
    v / lc over Q, with every coefficient a Fraction (oracle)."""
    a = [Fraction(c, v.leading) for c in v.coeffs]
    d = v.degree
    ps = []
    for k in range(1, N + 1):
        acc = -k * a[d - k] if k <= d else Fraction(0)
        for i in range(1, min(k - 1, d) + 1):
            acc -= a[d - i] * ps[k - i - 1]
        ps.append(acc)
    return ps


def _from_power_sums_over_q(sums) -> IntPolynomial:
    """The monic polynomial with these power sums by Newton's identities
    over Q, with its denominators cleared (oracle)."""
    e = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        e.append(-sum(e[i] * sums[k - 1 - i] for i in range(k)) / k)
    L = lcm(*(c.denominator for c in e))
    return IntPolynomial.of(c * L for c in reversed(e))


def _product_over_q(v: IntPolynomial) -> IntPolynomial:
    """Power sums of the roots of v, squared, through Newton's identities
    over Q (the Fraction route, oracle)."""
    sums = _power_sums_over_q(v, v.degree ** 2)
    return _from_power_sums_over_q([p * p for p in sums])


def _ratio_over_q(v: IntPolynomial) -> IntPolynomial:
    d = v.degree
    n = d * (d - 1)
    sums = zip(_power_sums_over_q(v, n), _power_sums_over_q(v.reverse(), n))
    return _from_power_sums_over_q([p * q - d for p, q in sums])


# degree 1-8 with negative and non-unit leading and constant coefficients
scaled_polynomials = st.builds(
    lambda cs, lead: IntPolynomial.of(cs + [lead]),
    st.lists(st.integers(-30, 30), min_size=1, max_size=8).filter(lambda cs: cs[0] != 0),
    st.sampled_from([1, -1, 2, -3, 6, -12, 2 ** 40]))


@settings(max_examples=150, deadline=None)
@given(scaled_polynomials)
def test_integer_product_and_ratio_polynomials_match_the_fraction_route(v):
    assert product_polynomial(v) == _product_over_q(v)
    assert ratio_polynomial(v) == _ratio_over_q(v)
    assert all(type(c) is int for c in product_polynomial(v).coeffs)


@pytest.mark.parametrize("coeffs", [(-3, 1, 2), (5, 0, 0, -4), (6, -1, 3, -12),
                                    (1, 2, 3, 4, 5, -6)])
def test_integer_product_and_ratio_polynomials_match_resultants(coeffs):
    # non-monic v with negative or non-unit leading coefficients
    v = IntPolynomial.of(coeffs)
    assert product_polynomial(v) == _product_by_resultant(v)
    assert ratio_polynomial(v) in (_ratio_by_resultant(v), -_ratio_by_resultant(v))


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


def _factoring_cyclotomic_factors(p: IntPolynomial):
    """The (m, multiplicity) of the irreducible factors of p that are
    cyclotomic (the factoring route, oracle)."""
    return sorted((cyclotomic_order(f), mult) for f, mult in factor_int(p)[1]
                  if cyclotomic_order(f) is not None)


@st.composite
def cyclotomic_products(draw):
    """Up to four cyclotomic factors Phi_m, m <= 40, repeats allowed, times
    up to two other factors of degree 1-4 with small coefficients, times a
    content of either sign."""
    p = IntPolynomial.of([draw(st.sampled_from([1, -1, 2, -3]))])
    for m in draw(st.lists(st.integers(1, 40), max_size=4)):
        p = p * cyclotomic(m)
    for _ in range(draw(st.integers(0, 2))):
        d = draw(st.integers(1, 4))
        lead = draw(st.sampled_from([1, -1, 2, 3]))
        p = p * IntPolynomial.of([draw(st.integers(-5, 5)) for _ in range(d)] + [lead])
    return p


@settings(max_examples=150, deadline=None)
@given(cyclotomic_products())
def test_cyclotomic_factors_match_the_factoring_route_without_factoring(p):
    if p.is_zero:
        return
    calls = []
    factor = polyalg.factor_int
    polyalg.factor_int = lambda q: calls.append(q) or factor(q)
    try:
        got = cyclotomic_factors(p)
    finally:
        polyalg.factor_int = factor
    assert calls == []
    assert got == _factoring_cyclotomic_factors(p)


def test_cyclotomic_factors_multiplicities_and_large_orders():
    # x^12 - 1 is Phi_1 Phi_2 Phi_3 Phi_4 Phi_6 Phi_12; Phi_105 has
    # coefficients other than 0 and +-1, and Phi_210 degree 48
    assert cyclotomic_factors(IntPolynomial.of([-1] + [0] * 11 + [1])) == [
        (1, 1), (2, 1), (3, 1), (4, 1), (6, 1), (12, 1)]
    p = cyclotomic(105) * cyclotomic(105) * cyclotomic(210) * IntPolynomial.of([3, 0, 1])
    assert cyclotomic_factors(p) == [(105, 2), (210, 1)]
    assert cyclotomic_factors(IntPolynomial.of([-2, 1])) == []
    assert cyclotomic_factors(IntPolynomial.of([5])) == []


def _product_of_powers(factors) -> IntPolynomial:
    p = IntPolynomial.of([1])
    for f, e in factors:
        p = p * f.pow(e)
    return p


# products of powers of degree <= 2 factors, so repeated roots, and roots
# shared across the inputs of one list
powered_products = st.lists(st.tuples(small_factors, st.integers(1, 3)),
                            min_size=1, max_size=3).map(_product_of_powers)


@settings(max_examples=100, deadline=None)
@given(st.lists(powered_products, min_size=1, max_size=4))
def test_squarefree_parts_and_coprime_base_match_the_factorization(polys):
    # the factoring route as oracle: each part is the product of the
    # irreducible factors of that exponent, and each base element a product
    # of irreducible factors that divide exactly the inputs it is labelled with
    polys = [p for p in polys if p.degree > 0]
    parts = []
    for p in polys:
        factors = factor_int(p)[1]
        got = squarefree_parts(p)
        assert sorted(k for _, k in got) == sorted({m for _, m in factors})
        for part, k in got:
            assert part.leading > 0
            assert sorted(factor_int(part)[1], key=repr) == sorted(
                [(f, 1) for f, m in factors if m == k], key=repr)
        parts += [part for part, _ in got]
    base = coprime_base(parts)
    irreducible = {f for part in parts for f, _ in factor_int(part)[1]}
    seen = []
    for b, labels in base:
        assert b.degree > 0
        for f, m in factor_int(b)[1]:
            assert m == 1
            seen.append(f)
            assert labels == {i for i, part in enumerate(parts)
                              if gcd_int(part, f).degree > 0}
    assert sorted(seen, key=repr) == sorted(irreducible, key=repr)


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
    cp = char_poly(BigIntMatrix.from_rows(rows))
    assert exterior_power_polynomials(cp) == [
        char_poly(_exterior_power(rows, k)) for k in range(len(rows) + 1)]


# ---------------------------------------------------------------- the S_d certificate

def _sympy_galois_name(p: IntPolynomial) -> str:
    """The name of the Galois group of an irreducible p of degree <= 6, from
    sympy's resolvent-based galois_group (oracle)."""
    from sympy.polys.numberfields.galoisgroups import galois_group
    group, _ = galois_group(to_sympy(p), by_name=True)
    return group.name


def _selmer_poly(r):
    return IntPolynomial.of([-1, -1] + [0] * (r - 2) + [1])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(
    st.integers(-6, 6), min_size=d, max_size=d)).map(lambda cs: IntPolynomial.of(cs + [1])))
def test_the_galois_certificate_holds_only_for_the_symmetric_group(p):
    # sound on every polynomial; complete on x^r - x - 1 below
    certified = symmetric_galois_group(p)
    if [f.degree for f, _ in factor_int(p)[1]] != [p.degree]:
        assert not certified  # reducible
    elif certified:
        assert _sympy_galois_name(p) == f"S{p.degree}"


@pytest.mark.parametrize("r", range(2, 13))
def test_the_galois_certificate_finds_the_symmetric_group_of_x_r_minus_x_minus_1(r):
    # Osada, J. Number Theory 25 (1987): the group of x^r - x - 1 is S_r
    assert symmetric_galois_group(_selmer_poly(r))


@pytest.mark.parametrize("coeffs, why", [
    ([1, 0, 0, 0, 1], "V4: x^4 + 1"),
    ([1, 0, -10, 0, 1], "V4: x^4 - 10x^2 + 1"),
    ([1, -3, 0, 1], "C3: x^3 - 3x + 1"),
    ([-2, 0, 0, 0, 0, 1], "F20: x^5 - 2"),
    ([1, 2, 0, -1, -1, -1, 1], "reducible: (x^2 - x - 1)(x^4 - x - 1)"),
    ([0, -1, 0, 1], "singular: x^3 - x"),
    ([1, -2, 1], "not square-free: (x - 1)^2"),
    ([-1, 1], "degree 1"),
])
def test_the_galois_certificate_fails_for_other_groups(coeffs, why):
    p = IntPolynomial.of(coeffs)
    if p.degree >= 3 and p.constant and is_squarefree(p) and len(factor_int(p)[1]) == 1:
        assert _sympy_galois_name(p) != f"S{p.degree}", why
    assert not symmetric_galois_group(p), why


def test_the_galois_certificate_spends_a_bounded_budget(monkeypatch):
    # a reducible cp never shows a d-cycle, and F20 has 5-cycles but no
    # transposition: each stops after 8 d good primes
    tried = []
    primes = polyalg.primes
    monkeypatch.setattr(polyalg, "primes",
                        lambda: (tried.append(p) or p for p in primes()))

    def good_primes(p):
        disc = int(dup_discriminant(_dense(p.coeffs), ZZ))
        return [q for q in tried if disc % q]

    reducible = _selmer_poly(2) * _selmer_poly(4)
    assert not symmetric_galois_group(reducible)
    assert len(good_primes(reducible)) == polyalg._CYCLE_PRIMES * reducible.degree
    tried.clear()
    f20 = IntPolynomial.of([-2, 0, 0, 0, 0, 1])
    assert not symmetric_galois_group(f20)
    assert len(good_primes(f20)) == polyalg._CYCLE_PRIMES * 5
