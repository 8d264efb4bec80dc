import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tdyn import exact_linalg
from tdyn.errors import InputError
from tdyn.exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    RatMatrix,
    char_poly,
    companion_matrix,
    diagonal_blocks,
    from_power_sums,
    det_exact,
    det_rat,
    mat_pow,
    power_sums,
    powers,
    rat_kernel_basis,
    rat_solve,
    restrict_to_invariant_subspace,
)
from tdyn.polyalg import smith_normal_form


# ---------------------------------------------------------------- oracles

def det_cofactor(rows):
    """Cofactor-expansion determinant, the independent oracle for Bareiss."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def primitive(coeffs):
    """The primitive integer multiple, positive leading coefficient, of a
    rational polynomial given by its ascending coefficients."""
    L = lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * L) for c in coeffs]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return IntPolynomial.of(c // g for c in ints)


def char_poly_symbolic(rows):
    """Expand det(X*I - A) by cofactors over polynomial entries (oracle)."""
    n = len(rows)
    entries = [[[Fraction(-rows[i][j]), Fraction(1)] if i == j else [Fraction(-rows[i][j])]
                for j in range(n)] for i in range(n)]

    def pdet(m):
        if len(m) == 1:
            return m[0][0]
        acc = [Fraction(0)]
        for j in range(len(m)):
            minor = [r[:j] + r[j + 1:] for r in m[1:]]
            term = poly_mul(m[0][j], pdet(minor))
            if j % 2:
                term = [-c for c in term]
            acc = poly_add(acc, term)
        return acc

    coeffs = pdet(entries)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def random_int_matrix(rng, d, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)]


# ---------------------------------------------------------------- mat_pow

def test_mat_pow_scalar_cube():
    A = BigIntMatrix.from_rows([[2]])
    assert mat_pow(A, 3).entries == (8,)


def test_mat_pow_identity():
    I2 = BigIntMatrix.identity(2)
    assert mat_pow(I2, 7) == I2


def test_mat_pow_fibonacci_square():
    A = BigIntMatrix.from_rows([[2, 1], [1, 1]])
    # oracle: direct multiplication
    assert mat_pow(A, 2) == A.mul(A)
    assert mat_pow(A, 2).row_lists() == [[5, 3], [3, 2]]


def test_mat_pow_zero_exponent_and_rational():
    A = RatMatrix.from_rows([[Fraction(1, 2), 1], [0, 2]])
    assert mat_pow(A, 0) == RatMatrix.identity(2)
    assert mat_pow(A, 3) == A.mul(A).mul(A)


# ---------------------------------------------------------------- determinants

def test_det_examples():
    assert det_exact(BigIntMatrix.from_rows([[2, 1], [1, 1]])) == 1
    assert det_exact(BigIntMatrix.identity(5)) == 1
    assert det_exact(BigIntMatrix.from_rows([[1, 1], [1, 1]])) == 0


def test_det_matches_cofactor_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        d = rng.randint(1, 4)
        rows = random_int_matrix(rng, d)
        assert det_exact(BigIntMatrix.from_rows(rows)) == det_cofactor(rows)


def test_det_rat_scaling():
    A = RatMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(5, 6)]])
    # oracle: 2x2 closed form
    expected = Fraction(1, 2) * Fraction(5, 6) - Fraction(1, 3) * 1
    assert det_rat(A) == expected


# ---------------------------------------------------------------- smith normal form

def snf_checks(A):
    sf = smith_normal_form(A)
    # ints under every SYMPY_GROUND_TYPES, never gmpy2's mpz
    assert all(type(x) is int for M in (sf.D, sf.U, sf.V) for x in M.entries)
    assert sf.U.mul(A).mul(sf.V) == sf.D
    assert abs(det_exact(sf.U)) == 1
    assert abs(det_exact(sf.V)) == 1
    diag = sf.diagonal()
    for i in range(min(A.rows, A.cols)):
        for j in range(A.cols):
            if j != i:
                assert sf.D.get(i, j) == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if b != 0:
            assert a != 0 and b % a == 0
    nz = [d for d in diag if d != 0]
    assert nz == diag[:len(nz)], "zeros must come last"
    assert sf.rank == len(nz)
    return sf


def test_snf_diag_2_3():
    sf = snf_checks(BigIntMatrix.from_rows([[2, 0], [0, 3]]))
    assert sf.diagonal() == [1, 6]


def test_snf_identity_and_zero():
    assert snf_checks(BigIntMatrix.identity(3)).diagonal() == [1, 1, 1]
    sf = snf_checks(BigIntMatrix.from_rows([[0, 0], [0, 0]]))
    assert sf.diagonal() == [0, 0]
    assert sf.rank == 0


def test_snf_random_matches_det():
    rng = random.Random(99)
    for _ in range(150):
        d = rng.randint(1, 4)
        A = BigIntMatrix.from_rows(random_int_matrix(rng, d))
        sf = snf_checks(A)
        prod = 1
        for x in sf.diagonal():
            prod *= x
        assert abs(prod) == abs(det_exact(A))


def test_snf_rectangular():
    A = BigIntMatrix.from_rows([[2, 4, 6], [4, 8, 10]])
    snf_checks(A)


@st.composite
def snf_matrices(draw):
    """m x n integer matrices, 1 <= m, n <= 6, entries up to 10^12, with
    some rows zero and some repeating an earlier row."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    bound = draw(st.sampled_from([3, 10 ** 12]))
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "repeat"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n)))
    return BigIntMatrix.from_rows(rows)


@settings(max_examples=200, deadline=None)
@given(snf_matrices())
def test_snf_properties(A):
    sf = snf_checks(A)
    if A.is_square:
        prod = 1
        for x in sf.diagonal():
            prod *= x
        assert abs(prod) == abs(det_exact(A))


# ---------------------------------------------------------------- char poly

def test_char_poly_examples():
    p = char_poly(BigIntMatrix.from_rows([[2, 1], [1, 1]]))
    assert p.coeffs == (Fraction(1), Fraction(-3), Fraction(1))  # X^2 - 3X + 1
    p = char_poly(BigIntMatrix.identity(2))
    assert p.coeffs == (Fraction(1), Fraction(-2), Fraction(1))  # (X-1)^2
    p = char_poly(BigIntMatrix.from_rows([[0, -1], [1, 0]]))
    assert p.coeffs == (Fraction(1), Fraction(0), Fraction(1))  # X^2 + 1


def test_char_poly_matches_symbolic_oracle():
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 4)
        rows = random_int_matrix(rng, d)
        expected = char_poly_symbolic(rows)
        got = char_poly(BigIntMatrix.from_rows(rows))
        assert list(got.coeffs) == expected
    for den in (2, 3):
        for _ in range(30):
            d = rng.randint(1, 4)
            rows = [[Fraction(x, rng.choice((1, den))) for x in row]
                    for row in random_int_matrix(rng, d)]
            expected = primitive(char_poly_symbolic(rows))
            assert char_poly(RatMatrix.from_rows(rows)) == expected


def _powers_route(B: BigIntMatrix, L: int) -> IntPolynomial:
    """char_poly's oracle: the traces of the first powers of B through
    Newton's identities, with the roots divided by L."""
    return from_power_sums([Bk.trace() for Bk in islice(powers(B), B.rows)], L)


# upper Hessenberg matrices of size 1-8 with entries -3..3, zero subdiagonal
# entries among them, and a denominator 1-4 per entry for the rational ones
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(st.integers(1, 4), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n))), st.booleans())
def test_hessenberg_char_poly_equals_the_powers_route(draw, rational):
    values, dens, cut = draw
    n = len(values)
    rows = [[values[i][j] if i <= j + 1 and not (i == j + 1 and cut[i]) else 0
             for j in range(n)] for i in range(n)]
    if rational:
        A = RatMatrix.from_rows([[Fraction(x, d) for x, d in zip(row, ds)]
                                 for row, ds in zip(rows, dens)])
        B, L = A.scaled_integer()
    else:
        A = B = BigIntMatrix.from_rows(rows)
        L = 1
    assert exact_linalg._is_upper_hessenberg(B)
    assert char_poly(A) == _powers_route(B, L)


def test_a_dense_matrix_takes_the_powers_route(monkeypatch):
    def refuse(B):
        raise AssertionError("a matrix with an entry below the subdiagonal")
    monkeypatch.setattr(exact_linalg, "_hessenberg_char_poly", refuse)
    rng = random.Random(5)
    for n in range(3, 7):
        rows = random_int_matrix(rng, n)
        rows[n - 1][0] = rng.choice((-2, -1, 1, 2))
        A = BigIntMatrix.from_rows(rows)
        assert char_poly(A) == _powers_route(A, 1)
        assert list(char_poly(A).coeffs) == char_poly_symbolic(rows)
    # a companion block takes the recurrence
    monkeypatch.undo()
    p = IntPolynomial.of([-1, -1] + [0] * 8 + [1])
    assert exact_linalg._is_upper_hessenberg(companion_matrix(p))
    assert char_poly(companion_matrix(p)) == p


def test_char_poly_cayley_hamilton():
    rng = random.Random(21)
    for _ in range(40):
        d = rng.randint(1, 4)
        A = RatMatrix.from_rows(random_int_matrix(rng, d))
        p = char_poly(A)
        acc = RatMatrix(d, d, tuple(Fraction(0) for _ in range(d * d)))
        power = RatMatrix.identity(d)
        for c in p.coeffs:
            acc = acc.sub(power.scale(-c))
            power = power.mul(A)
        assert all(e == 0 for e in acc.entries)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3),
                min_size=1, max_size=6))
def test_power_sums_round_trip(lower):
    # p monic over Q, zero constant terms included: with c the lcm of its
    # denominators, c^d p(x / c) is monic over Z, and from_power_sums of
    # its power sums with c is p's primitive multiple
    c = lcm(*(q.denominator for q in lower))
    d = len(lower)
    m = IntPolynomial.of([q * c ** (d - i) for i, q in enumerate(lower)] + [1])
    assert from_power_sums(power_sums(m, d), c) == primitive(lower + [1])


# nonzero integer polynomials of degree 0-6, monic or not, with a root 0
# or a negative leading coefficient among them, and the factors u / w
scalable_polynomials = st.lists(st.integers(-9, 9), min_size=1, max_size=7).filter(
    lambda cs: cs[-1] != 0).map(IntPolynomial.of)
scale_numerators = st.sampled_from([1, -1, 2, -3, 6, 2 ** 40])
scale_denominators = st.sampled_from([1, -1, 2, -5, 12])


@settings(max_examples=200, deadline=None)
@given(scalable_polynomials, scale_numerators, scale_denominators)
def test_scaled_multiplies_the_roots_by_u_over_w(p, u, w):
    q = p.scaled(u, w)
    assert q.degree == p.degree and q == primitive(q.coeffs)
    # scaling back by w / u gives p over its content, positive leading
    assert q.scaled(w, u) == primitive(p.coeffs)
    if p.is_monic and q.is_monic and p.degree >= 1:
        n = 2 * p.degree
        assert power_sums(q, n) == [Fraction(u, w) ** k * s
                                    for k, s in enumerate(power_sums(p, n), start=1)]


def test_scaled_by_zero_and_by_a_negative_denominator():
    p = IntPolynomial.of([2, -3, 1])  # (x - 1)(x - 2)
    assert p.scaled(0) == p.scaled(0, -7) == IntPolynomial.of([0, 0, 1])
    # roots -3/2 and -3: (2x + 3)(x + 3)
    assert p.scaled(3, -2) == IntPolynomial.of([9, 9, 2])
    assert IntPolynomial.of([-2, 1]).scaled(1, -1) == IntPolynomial.of([2, 1])
    assert IntPolynomial.of([-4]).scaled(5, 3) == IntPolynomial.of([1])


def _from_power_sums_over_q(sums):
    """Newton's identities with every coefficient a Fraction (oracle),
    ascending."""
    e = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        e.append(-sum(e[i] * sums[k - 1 - i] for i in range(k)) / k)
    return e[::-1]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-9, 9) | st.integers(-2 ** 80, 2 ** 80), max_size=8)
       | st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=6))
def test_from_power_sums_matches_the_fraction_loop(sums):
    # arbitrary power sums: the Fraction loop's polynomial where it is
    # integral, an InputError at the first division by k that is not exact
    expected = _from_power_sums_over_q(sums)
    if all(c.denominator == 1 for c in expected):
        assert from_power_sums(sums) == IntPolynomial.of(expected)
    else:
        with pytest.raises(InputError, match="not those of a monic integer polynomial"):
            from_power_sums(sums)


def test_char_poly_rational_matrix():
    A = RatMatrix.from_rows([[Fraction(1, 2)]])
    assert char_poly(A).coeffs == (-1, 2)  # 2x - 1, primitive, with the root 1/2


# ---------------------------------------------------------------- companion

def test_companion_examples():
    assert companion_matrix(IntPolynomial.of([-3, 1])).row_lists() == [[3]]
    assert companion_matrix(IntPolynomial.of([1, -3, 1])).row_lists() == [[0, -1], [1, 3]]
    assert companion_matrix(IntPolynomial.of([1, 0, 1])).row_lists() == [[0, -1], [1, 0]]


def test_companion_char_poly_roundtrip():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 4)
        coeffs = [rng.randint(-4, 4) for _ in range(d)] + [1]
        p = IntPolynomial.of(coeffs)
        M = companion_matrix(p)
        assert char_poly(M) == p


def test_companion_rejects_non_monic():
    with pytest.raises(InputError):
        companion_matrix(IntPolynomial.of([1, 2]))


# ---------------------------------------------------------------- polynomials

def test_polynomial_zero_convention():
    z = IntPolynomial.of([0])
    assert z.is_zero and z.degree == 0
    p = IntPolynomial.of([0, 0, 3, 0])
    assert p.coeffs == (0, 0, 3)
    assert p.degree == 2


def test_polynomial_arithmetic():
    p = IntPolynomial.of([1, 1])      # 1 + x
    q = IntPolynomial.of([-1, 1])     # -1 + x
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert p.pow(2).coeffs == (1, 2, 1)
    assert p.derivative().coeffs == (1,)
    assert IntPolynomial.of([2, 0, 1]).reverse().coeffs == (1, 0, 2)
    assert p(Fraction(1, 2)) == Fraction(3, 2)


@pytest.mark.parametrize("c", [Fraction(1, 2), 2.9])
def test_int_polynomial_rejects_a_coefficient_that_is_not_an_integer(c):
    with pytest.raises(InputError, match="exact integer|exact rational"):
        IntPolynomial.of([c, 1])


def test_int_polynomial_reads_an_integral_fraction_as_its_integer():
    p = IntPolynomial.of([Fraction(4, 2), 1])
    assert p.coeffs == (2, 1) and type(p.constant) is int


# ------------------------------------------------------- RREF vs sympy

def _sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in rows])


def _apply(rows, v):
    return [sum((a * x for a, x in zip(row, v)), Fraction(0)) for row in rows]


@st.composite
def rational_systems(draw):
    """(rows, b) with rows = L R of rank at most k, so that rectangular,
    rank-deficient, all-zero and tall matrices all occur; b is A x for a
    random x or an arbitrary vector."""
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(m, n)))
    left = [[draw(frac) for _ in range(k)] for _ in range(m)]
    right = [[draw(frac) for _ in range(n)] for _ in range(k)]
    rows = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
             for j in range(n)] for i in range(m)]
    if draw(st.booleans()):
        b = _apply(rows, [draw(frac) for _ in range(n)])
    else:
        b = [draw(frac) for _ in range(m)]
    return rows, b


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_rat_kernel_basis_matches_sympy_nullspace(system):
    rows, _ = system
    basis = rat_kernel_basis(RatMatrix.from_rows(rows))
    assert len(basis) == len(_sympy_matrix(rows).nullspace())
    for v in basis:
        assert _apply(rows, v) == [0] * len(rows)
    if basis:
        assert _sympy_matrix(basis).rank() == len(basis)


@settings(max_examples=200, deadline=None)
@given(rational_systems())
def test_rat_solve_solves_exactly_the_consistent_systems(system):
    rows, b = system
    x = rat_solve(RatMatrix.from_rows(rows), b)
    A = _sympy_matrix(rows)
    consistent = A.rank() == A.row_join(_sympy_matrix([[c] for c in b])).rank()
    assert (x is not None) == consistent
    if x is not None:
        assert _apply(rows, x) == b


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_restriction_solves_b_x_equal_m_b(data):
    # M keeps the span of the first k unit vectors; the basis is k vectors
    # of that span, dependent ones included
    frac = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, n))
    rows = [[Fraction(0) if i >= k > j else data.draw(frac) for j in range(n)]
            for i in range(n)]
    basis = [[data.draw(frac) if i < k else Fraction(0) for i in range(n)]
             for _ in range(k)]
    M = RatMatrix.from_rows(rows)
    if _sympy_matrix(basis).rank() < k:
        with pytest.raises(InputError, match="linearly dependent"):
            restrict_to_invariant_subspace(M, basis)
        return
    X = restrict_to_invariant_subspace(M, basis)
    assert (X.rows, X.cols) == (k, k)
    for j in range(k):
        # M b_j = sum_i X[i][j] b_i
        image = [sum((X.get(i, j) * basis[i][t] for i in range(k)), Fraction(0))
                 for t in range(n)]
        assert _apply(rows, basis[j]) == image


def test_restriction_rejects_a_span_that_is_not_invariant():
    swap = RatMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(InputError, match="not invariant"):
        restrict_to_invariant_subspace(swap, [(Fraction(1), Fraction(0))])


# ---------------------------------------------------------------- containers

@pytest.mark.parametrize("make, message", [
    (lambda: BigIntMatrix(1, 2, (1, Fraction(1))), "BigIntMatrix entries must be ints"),
    (lambda: RatMatrix(1, 2, (Fraction(1), 1)), "RatMatrix entries must be Fractions"),
    (lambda: IntPolynomial((1, Fraction(1))), "IntPolynomial coefficients must be ints"),
    (lambda: BigIntMatrix.from_rows([[1, 2], [3]]), "ragged rows"),
    (lambda: RatMatrix.from_rows([[1], [2, 3]]), "ragged rows"),
    (lambda: IntPolynomial((1, 0)), "unnormalized coefficients"),
])
def test_containers_reject_the_other_entry_type(make, message):
    with pytest.raises(InputError, match=message):
        make()


def test_powers_match_mat_pow():
    for A in (BigIntMatrix.from_rows([[1, 2, 0], [0, -1, 3], [4, 0, 0]]),
              RatMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(-2, 3)]])):
        got = [P for P, _ in zip(powers(A), range(6))]
        assert got == [mat_pow(A, n) for n in range(1, 7)]


@pytest.mark.parametrize("make", [
    lambda: BigIntMatrix(1, 2, (1, 1.0)),
    lambda: BigIntMatrix(1, 1, ("1",)),
    lambda: BigIntMatrix.from_rows([[1, Fraction(1, 2)]]),
    lambda: BigIntMatrix.from_rows([[1.5]]),
    lambda: BigIntMatrix.from_rows([[1.0]]),
    lambda: BigIntMatrix.from_rows([["1/2"]]),
    lambda: BigIntMatrix.from_rows([["x"]]),
    lambda: BigIntMatrix.from_rows([[None]]),
    lambda: BigIntMatrix.block_diag([RatMatrix.from_rows([[Fraction(1, 2)]])]),
    lambda: RatMatrix(1, 1, (1,)),
    lambda: RatMatrix(1, 1, (0.5,)),
    lambda: RatMatrix.from_rows([[0.5]]),
    lambda: RatMatrix.from_rows([["x"]]),
    lambda: RatMatrix.from_rows([["1/0"]]),
])
def test_every_public_construction_rejects_a_wrong_entry(make):
    with pytest.raises(InputError):
        make()


def test_json_input_rejects_a_non_rational_entry():
    from tdyn.group_model import system_from_json
    for entry in ("x", "1/0", True, None, [1]):
        doc = {"name": "bad", "sections": [{"rank": 1, "phi": [[entry]]}]}
        with pytest.raises(InputError):
            system_from_json(doc)


def test_from_rows_converts_exact_integers():
    entries = BigIntMatrix.from_rows([[Fraction(4, 2), "-3", True]]).entries
    assert entries == (2, -3, 1) and all(type(e) is int for e in entries)


_int_matrices = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.integers(-5, 5), min_size=d, max_size=d), min_size=d, max_size=d))


@settings(max_examples=60, deadline=None)
@given(_int_matrices, _int_matrices, st.integers(-3, 3))
def test_computed_matrices_equal_the_checked_construction(a, b, c):
    # products, differences, sums and scalings skip the per-entry check; each
    # equals the matrix the checking constructor builds from the same entries
    A, B = BigIntMatrix.from_rows(a), BigIntMatrix.from_rows(b)
    results = [A.mul(A), A.sub(A), mat_pow(A, 3), BigIntMatrix.identity(A.rows)]
    if A.rows == B.rows:
        results += [A.mul(B), A.sub(B), BigIntMatrix.block_diag([A, B])]
    R = RatMatrix.from_rows(a)
    half = R.scale(Fraction(1, 2))
    results += [R.mul(half), R.add(half), R.sub(half), half, RatMatrix.identity(R.rows)]
    for M in results:
        assert M == type(M)(M.rows, M.cols, M.entries)


def test_a_mixed_product_is_still_checked():
    # a BigIntMatrix times a RatMatrix would hold Fractions
    A = BigIntMatrix.from_rows([[1, 2], [3, 4]])
    R = RatMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(InputError, match="BigIntMatrix entries must be ints"):
        A.mul(R)
    with pytest.raises(InputError, match="BigIntMatrix entries must be ints"):
        A.sub(R)
    assert R.mul(A) == RatMatrix.from_rows([[Fraction(1, 2), 1], [3, 4]])


# block-diagonal matrices with a random permutation of blocks, some coupled
# by an extra entry above or below the diagonal blocks
@settings(max_examples=80, deadline=None)
@given(st.lists(_int_matrices, min_size=1, max_size=4), st.data())
def test_blockwise_char_poly_equals_the_whole_matrix_char_poly(blocks, data):
    A = BigIntMatrix.block_diag([BigIntMatrix.from_rows(b) for b in blocks])
    rows = A.row_lists()
    n = A.rows
    for _ in range(data.draw(st.integers(0, 2))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[i][j] = data.draw(st.integers(-3, 3))
    A = BigIntMatrix.from_rows(rows)
    parts = diagonal_blocks(A)
    assert sum(b.rows for b in parts) == n
    product = [1]
    for b in parts:
        product = poly_mul(product, char_poly(b).coeffs)
    assert IntPolynomial.of(product) == char_poly(A)
    # the blocks tile A's diagonal, and A is zero off them
    assert BigIntMatrix.block_diag(parts) == A
    # the split is finest: no block splits further
    for b in parts:
        assert len(diagonal_blocks(b)) == 1


def test_diagonal_blocks_of_a_coupled_matrix():
    # an entry at (0, 3) couples indices 0..3; (4, 4) stands alone
    A = BigIntMatrix.from_rows([[1, 0, 0, 2, 0], [0, 3, 0, 0, 0], [0, 0, 1, 0, 0],
                                [0, 0, 0, 1, 0], [0, 0, 0, 0, 5]])
    assert [b.rows for b in diagonal_blocks(A)] == [4, 1]
    assert [b.rows for b in diagonal_blocks(BigIntMatrix.identity(3))] == [1, 1, 1]
    B = BigIntMatrix.from_rows([[0, 0, 0], [0, 0, 0], [7, 0, 0]])
    assert [b.rows for b in diagonal_blocks(B)] == [3]
