import contextlib
import io
import json
import math
import random
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
import sympy
from draws import commuting_sections
from hypothesis import example, given, settings, strategies as st

from tdyn.errors import (
    InfiniteValueError,
    InputError,
    NonIntegerResidueError,
    NoRecurrenceError,
    NotSquareFreeError,
    TdynError,
)
from tdyn.exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    RatMatrix,
    char_poly,
    companion_matrix,
    det_rat,
    exterior_power_polynomials,
    mat_pow,
    powers,
    rat_solve,
)
from tdyn import group_model, zeta
from tdyn.cli import RunConfig, _window_length, _zeta_of, main
from tdyn.group_model import (
    NilpotentSystem,
    builtin_example,
    torus_matrix,
    z_pair,
    z_times_d,
)
from tdyn.padic import root_valuations, zeta_scale
from tdyn.polyalg import factor_int, gcd_int, is_squarefree, symmetric_galois_group
from tdyn.reidemeister import coincidence_sequence, nielsen_sequence
from tdyn.zeta import (
    RationalFunction,
    berlekamp_massey,
    expand,
    minimal_recurrence,
    power_sums,
    realize_bouquet,
    exterior_zeta,
    residue_exponents,
    zeta_from_sequence,
)


# ---------------------------------------------------------------- oracles

def brute_force_recurrence(seq, max_order):
    """Smallest-order recurrence by direct exact linear solving (oracle)."""
    n = len(seq)
    for L in range(0, max_order + 1):
        if L == 0:
            if all(v == 0 for v in seq):
                return [Fraction(1)]
            continue
        if n < 2 * L:
            break
        A = sympy.Matrix([[Fraction(seq[m - i]) for i in range(1, L + 1)]
                          for m in range(L, n)])
        b = sympy.Matrix([[-Fraction(seq[m])] for m in range(L, n)])
        try:
            sol, params = A.gauss_jordan_solve(b)
        except ValueError:
            continue  # inconsistent: no recurrence of this order
        if params.rows == 0 or params.cols == 0:
            candidate = [Fraction(1)] + [Fraction(x) for x in sol]
            good = all(
                sum(candidate[i] * seq[m - i] for i in range(L + 1)) == 0
                for m in range(L, n))
            if good:
                return candidate
        else:
            # underdetermined: take the particular solution with params = 0
            particular = sol.subs({p: 0 for p in params.free_symbols})
            candidate = [Fraction(1)] + [Fraction(x) for x in particular]
            good = all(
                sum(candidate[i] * seq[m - i] for i in range(L + 1)) == 0
                for m in range(L, n))
            if good:
                return candidate
    return None


def partial_fraction_exponents(u_coeffs, v_coeffs):
    """chi per linear factor via sympy.apart (oracle, rational roots only)."""
    z = sympy.Symbol("z")
    u = sum(c * z ** i for i, c in enumerate(u_coeffs))
    v = sum(c * z ** i for i, c in enumerate(v_coeffs))
    decomposition = sympy.apart(u / v, z)
    out = {}
    for term in decomposition.as_ordered_terms():
        num, den = sympy.fraction(sympy.together(term))
        poly = sympy.Poly(den, z)
        if poly.degree() != 1:
            raise ValueError("oracle handles simple rational poles only")
        c1, c0 = poly.all_coeffs()
        root = sympy.Rational(-c0, c1)  # pole of u/v at z = root
        lam = sympy.Rational(1) / root
        chi = -sympy.Rational(num) / (c1 * root)
        out[sympy.Integer(lam)] = sympy.Integer(chi)
    return out


# ---------------------------------------------------------------- power sums

def test_power_sums_match_companion_traces():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 4)
        coeffs = [rng.randint(-4, 4) for _ in range(d)] + [1]
        p = IntPolynomial.of(coeffs)
        M = companion_matrix(p)
        traces = [mat_pow(M, n).trace() for n in range(1, 9)]
        assert power_sums(p, 8) == traces


def test_power_sums_reject_non_monic():
    with pytest.raises(InputError):
        power_sums(IntPolynomial.of([1, 2]), 3)


# ---------------------------------------------------------------- recurrences

def test_minimal_recurrence_doubling():
    seq = [2 ** n - 1 for n in range(1, 13)]
    v = minimal_recurrence(seq)
    assert v.coeffs == (1, -3, 2)  # (1 - 2z)(1 - z)


def test_minimal_recurrence_constant():
    assert minimal_recurrence([1, 1, 1, 1, 1, 1]).coeffs == (1, -1)


def test_minimal_recurrence_alternating_doubling():
    seq = [abs((-2) ** n - 1) for n in range(1, 13)]
    v = minimal_recurrence(seq)
    assert v.coeffs == (1, -1, -2)  # 1 - z - 2z^2, roots 2 and -1


def test_minimal_recurrence_matches_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        base_terms = []
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice([-3, -2, -1, 1, 2, 3])
            chi = rng.choice([-2, -1, 1, 2])
            base_terms.append((lam, chi))
        seq = [sum(chi * lam ** n for lam, chi in base_terms)
               for n in range(1, 17)]
        v = minimal_recurrence(seq)
        oracle = brute_force_recurrence(seq, 8)
        if v is None:
            assert oracle is None or all(x == 0 for x in seq)
            continue
        assert oracle is not None
        assert list(v.coeffs) == [int(c) for c in oracle]


def test_minimal_recurrence_rejects_infinite():
    with pytest.raises(InfiniteValueError):
        minimal_recurrence(coincidence_sequence(z_times_d(1), 6))


def test_minimal_recurrence_rejects_transients():
    # a transient needs a zero base; not an admissible exponential sum
    assert minimal_recurrence([1, 0, 0, 0, 0, 0]) is None
    assert minimal_recurrence([5, 7, 2, 2, 2, 2, 2, 2]) is None
    with pytest.raises(NoRecurrenceError):
        zeta_from_sequence([1, 0, 0, 0, 0, 0])


# ---------------------------------------------------------------- residues

def test_residue_exponents_pure_power():
    es = residue_exponents(IntPolynomial.of([1]), IntPolynomial.of([1, -2]))
    assert es.terms == ((IntPolynomial.of([-2, 1]), 1),)


def test_residue_exponents_doubling():
    # sum (2^n - 1) z^n = 3z... series z(1)/((1-2z)(1-z)) has a_n = 2^n - 1
    u = IntPolynomial.of([0, 1])
    v = IntPolynomial.of([1, -3, 2])
    es = residue_exponents(u, v)
    got = dict(es.terms)
    assert got[IntPolynomial.of([-2, 1])] == 1
    assert got[IntPolynomial.of([-1, 1])] == -1
    # cross-check with the partial fractions oracle
    oracle = partial_fraction_exponents([0, 1], [1, -3, 2])
    assert oracle == {2: 1, 1: -1}


def test_residue_exponents_sign_pair():
    # 2^n - (-1)^n: u = 3z, v = 1 - z - 2z^2
    es = residue_exponents(IntPolynomial.of([0, 3]), IntPolynomial.of([1, -1, -2]))
    got = dict(es.terms)
    assert got[IntPolynomial.of([-2, 1])] == 1
    assert got[IntPolynomial.of([1, 1])] == -1
    oracle = partial_fraction_exponents([0, 3], [1, -1, -2])
    assert oracle == {2: 1, -1: -1}


def test_residue_exponents_with_a_constant_denominator():
    # u = 0 is the identically zero sequence; u = z over v = 1 is the
    # transient a_1 = 1, which no exponent fits
    one = IntPolynomial.of([1])
    assert residue_exponents(IntPolynomial.of([0]), one).terms == ()
    with pytest.raises(InputError, match="deg u <= deg v"):
        residue_exponents(IntPolynomial.of([0, 1]), one)


def test_residue_exponents_rejects_square():
    # n * 2^n needs a double pole
    with pytest.raises(NotSquareFreeError):
        residue_exponents(IntPolynomial.of([0, 2]), IntPolynomial.of([1, -4, 4]))


def test_residue_exponents_rejects_non_galois_sums():
    # Fibonacci: rational zeta form needs non-constant Galois data
    seq = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    v = minimal_recurrence(seq)
    assert v.coeffs == (1, -1, -1)
    with pytest.raises(NonIntegerResidueError):
        zeta_from_sequence(seq)


# ---------------------------------------------------------------- zeta pipeline

def test_zeta_z_pair_2_1():
    rf, es = zeta_from_sequence(coincidence_sequence(z_pair(2, 1), 12))
    assert rf.numerator.coeffs == (1, -1)
    assert rf.denominator.coeffs == (1, -2)


def test_zeta_constant_sequence():
    rf, es = zeta_from_sequence([1] * 8)
    assert rf.numerator.coeffs == (1,)
    assert rf.denominator.coeffs == (1, -1)


def test_zeta_z_times_2_matches_z_pair():
    rf, _ = zeta_from_sequence(coincidence_sequence(z_times_d(2), 12))
    assert rf.numerator.coeffs == (1, -1)
    assert rf.denominator.coeffs == (1, -2)


def test_zeta_roundtrip_random_exponential_sums():
    rng = random.Random(41)
    done = 0
    while done < 30:
        terms = {}
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice([-4, -3, -2, 2, 3, 4, 5])
            chi = rng.choice([-2, -1, 1, 2, 3])
            terms[lam] = terms.get(lam, 0) + chi
        terms = {k: v for k, v in terms.items() if v != 0}
        if not terms:
            continue
        N = 2 * (2 * len(terms)) + 6
        seq = [sum(chi * lam ** n for lam, chi in terms.items())
               for n in range(1, N + 1)]
        rf, es = zeta_from_sequence(seq)
        assert expand(rf, N) == seq
        assert es.values(N) == seq
        done += 1


def test_zeta_nielsen_nontame_pair():
    # zeros inserted for even n; zeta still rational
    rf, es = zeta_from_sequence(nielsen_sequence(z_pair(2, -2), 12))
    assert expand(rf, 12) == [abs(2 ** n - (-2) ** n) for n in range(1, 13)]
    assert rf.numerator.coeffs == (1, 2)
    assert rf.denominator.coeffs == (1, -2)


def test_zeta_multi_section_system():
    # (2^n - 1)(3^n - 1)(6^n - 1) = 36^n - 18^n - 12^n + 3^n + 2^n - 1
    # (the 6^n terms cancel); six exponential terms across two sections
    from tdyn.group_model import heisenberg
    sys_ = heisenberg([[2, 0], [0, 3]])
    seq = coincidence_sequence(sys_, 2 * 8 + 4)  # window from the product bound
    rf, es = zeta_from_sequence(seq)
    assert expand(rf, len(seq.values)) == list(seq.values)
    from tdyn.exact_linalg import IntPolynomial as P
    chis = dict(es.terms)
    assert chis == {P.of([-36, 1]): 1, P.of([-18, 1]): -1, P.of([-12, 1]): -1,
                    P.of([-3, 1]): 1, P.of([-2, 1]): 1, P.of([-1, 1]): -1}
    br = realize_bouquet(es)
    assert br.a_even.rows == 3 and br.a_odd.rows == 3
    check = 2 * (br.a_even.rows + br.a_odd.rows) + 5
    long_seq = coincidence_sequence(sys_, check)
    assert br.lefschetz_values(check) == list(long_seq.values)


def test_zeta_with_genuine_multiplicity():
    # chi = 2: the sequence 2 * 5^n + 3^n needs two copies of the base 5
    seq = [2 * 5 ** n + 3 ** n for n in range(1, 13)]
    rf, es = zeta_from_sequence(seq)
    chis = dict(es.terms)
    from tdyn.exact_linalg import IntPolynomial as P
    assert chis == {P.of([-5, 1]): 2, P.of([-3, 1]): 1}
    br = realize_bouquet(es)
    assert br.a_even.rows == 3  # two copies of [[5]] plus [[3]]
    assert br.a_odd.row_lists() == [[0]]  # padded
    assert br.lefschetz_values(8) == [2 * 5 ** n + 3 ** n for n in range(1, 9)]


def test_zeta_all_zero_nielsen():
    rf, es = zeta_from_sequence(nielsen_sequence(z_times_d(1), 8))
    assert rf.numerator.coeffs == (1,)
    assert rf.denominator.coeffs == (1,)
    assert es.terms == ()


def test_zeta_no_recurrence_error():
    rng = random.Random(4)
    seq = [rng.randint(1, 10 ** 6) for _ in range(14)]
    with pytest.raises((NoRecurrenceError, NonIntegerResidueError)):
        zeta_from_sequence(seq)


# ---------------------------------------------------------------- expand

def test_expand_examples():
    rf = RationalFunction(IntPolynomial.of([1, -1]), IntPolynomial.of([1, -2]))
    assert expand(rf, 4) == [1, 3, 7, 15]
    rf = RationalFunction(IntPolynomial.of([1]), IntPolynomial.of([1, -1]))
    assert expand(rf, 3) == [1, 1, 1]
    rf = RationalFunction(IntPolynomial.of([1, -2]), IntPolynomial.of([1, -3]))
    assert expand(rf, 3) == [1, 5, 19]


# ---------------------------------------------------------------- bouquet

def test_realize_bouquet_doubling():
    _, es = zeta_from_sequence([2 ** n - 1 for n in range(1, 11)])
    br = realize_bouquet(es)
    assert br.a_even.row_lists() == [[2]]
    assert br.a_odd.row_lists() == [[1]]
    assert br.lefschetz_values(6) == [2 ** n - 1 for n in range(1, 7)]


def test_realize_bouquet_padding():
    _, es = zeta_from_sequence([1] * 8)
    br = realize_bouquet(es)
    assert br.a_odd.row_lists() == [[0]]
    assert br.n_circles == 2
    assert br.lefschetz_values(4) == [1, 1, 1, 1]


def test_realize_bouquet_lucas():
    p = IntPolynomial.of([1, -3, 1])
    from tdyn.zeta import ExponentialSum
    es = ExponentialSum(terms=((p, 1),))
    br = realize_bouquet(es)
    assert br.a_even.row_lists() == [[0, -1], [1, 3]]
    # power-trace oracle
    expected = [mat_pow(companion_matrix(p), n).trace() for n in range(1, 9)]
    assert br.lefschetz_values(8) == expected
    assert expected[:3] == [3, 7, 18]


def test_realize_bouquet_trace_identity_random():
    rng = random.Random(8)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            lam = rng.choice([-3, -2, 2, 3])
            chi = rng.choice([-2, -1, 1, 2])
            terms[lam] = terms.get(lam, 0) + chi
        terms = {k: v for k, v in terms.items() if v != 0}
        if not terms:
            continue
        N = 4 * len(terms) + 6
        seq = [sum(chi * lam ** n for lam, chi in terms.items())
               for n in range(1, N + 1)]
        _, es = zeta_from_sequence(seq)
        br = realize_bouquet(es)
        total = br.a_even.rows + br.a_odd.rows
        check = 2 * total + 5
        assert br.lefschetz_values(check) == [
            sum(chi * lam ** n for lam, chi in terms.items())
            for n in range(1, check + 1)]


def _explicit_lefschetz(br, N):
    """tr A_e^n - tr A_o^n from the explicit powers of both matrices: the
    oracle of the characteristic-polynomial route of lefschetz_values."""
    return [pe.trace() - po.trace() for pe, po in
            islice(zip(powers(br.a_even), powers(br.a_odd)), N)]


_root_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(
    lambda c: c[0] != 0).map(lambda c: IntPolynomial.of(c + [1]))


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(_root_polys, st.integers(-3, 3).filter(bool),
                             max_size=4),
       one_sided=st.booleans(), data=st.data())
def test_lefschetz_values_match_the_explicit_powers(terms, one_sided, data):
    from tdyn.zeta import ExponentialSum
    if one_sided:  # every term on A_e, so A_o is the padding 1x1 zero block
        terms = {p: abs(chi) for p, chi in terms.items()}
    br = realize_bouquet(ExponentialSum(terms=tuple(terms.items())))
    N = data.draw(st.integers(1, 2 * (br.a_even.rows + br.a_odd.rows) + 5))
    assert br.lefschetz_values(N) == _explicit_lefschetz(br, N)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d)),
       st.integers(1, 4), st.integers(1, 20))
def test_lefschetz_values_of_any_matrices_match_the_explicit_powers(rows, copies, N):
    # dense blocks, repeated blocks and matrices that do not split at all
    from tdyn.zeta import BouquetRealization
    A = BigIntMatrix.from_rows(rows)
    br = BouquetRealization(a_even=BigIntMatrix.block_diag([A] * copies), a_odd=A)
    assert br.lefschetz_values(N) == _explicit_lefschetz(br, N)


def test_the_blockwise_check_reads_every_copy_of_a_block():
    # chi = 3 emits three equal companion blocks; a change to one entry of
    # one copy changes the values, wherever the copy sits
    from tdyn.zeta import BouquetRealization, ExponentialSum
    br = realize_bouquet(ExponentialSum(terms=((IntPolynomial.of([-1, -1, 1]), 3),)))
    good = br.lefschetz_values(10)
    for k in range(3):
        rows = br.a_even.row_lists()
        rows[2 * k + 1][2 * k + 1] += 1
        bad = BouquetRealization(a_even=BigIntMatrix.from_rows(rows), a_odd=br.a_odd)
        assert bad.lefschetz_values(10) == _explicit_lefschetz(bad, 10) != good


def test_trace_check_on_the_rank6_torus_takes_a_product_per_row(monkeypatch):
    # the explicit-powers route took 2 * 133 products of 32 x 32 matrices;
    # char_poly reads d - 1 powers of each d x d side
    system = torus_matrix(companion_matrix(
        IntPolynomial.of([-1, -1, 0, 0, 0, 0, 1])).row_lists())
    seq = coincidence_sequence(system, 2 * 2 ** 6 + 4)
    _, es = zeta_from_sequence(seq)
    br = realize_bouquet(es)
    check = 2 * (br.a_even.rows + br.a_odd.rows) + 5
    expected = _explicit_lefschetz(br, check)
    calls = []
    mul = BigIntMatrix.mul

    def counting(self, other):
        calls.append(self.rows)
        return mul(self, other)

    monkeypatch.setattr(BigIntMatrix, "mul", counting)
    values = br.lefschetz_values(check)
    assert len(calls) <= br.a_even.rows + br.a_odd.rows
    assert values == expected == list(coincidence_sequence(system, check).values)


# ---------------------------------------------------------------- BM details

def test_berlekamp_massey_padding():
    # a_n = a_{n-2}: connection polynomial has an interior zero coefficient
    seq = [5, 7, 5, 7, 5, 7, 5, 7]
    C = berlekamp_massey(seq)
    assert C == [Fraction(1), Fraction(0), Fraction(-1)]


def test_berlekamp_massey_rational_sequences():
    seq = [Fraction(1, 2) ** n for n in range(10)]
    C = berlekamp_massey(seq)
    assert C == [Fraction(1), Fraction(-1, 2)]


# monic integer polynomials with nonzero constant term, ascending coefficients
root_polys = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-4, 4), min_size=d - 1, max_size=d - 1),
    st.integers(-4, 4).filter(bool),
)).map(lambda t: IntPolynomial.of([t[1]] + t[0] + [1]))


def exponential_sum_values(terms, N):
    sums = [(chi, power_sums(poly, N)) for poly, chi in terms]
    return [sum(chi * ps[n] for chi, ps in sums) for n in range(N)]


def _inconsistent(seq, order):
    """No recurrence of this order fits seq: the system that
    brute_force_recurrence solves has no solution."""
    if order == 0:
        return any(seq)
    rows = range(order, len(seq))
    A = sympy.Matrix([[Fraction(seq[m - i]) for i in range(1, order + 1)] for m in rows])
    b = sympy.Matrix([[-Fraction(seq[m])] for m in rows])
    try:
        A.gauss_jordan_solve(b)
    except ValueError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-6, 6) | st.integers(-2 ** 70, 2 ** 70)
                | st.fractions(-6, 6, max_denominator=7), max_size=12))
def test_berlekamp_massey_is_minimal_on_short_lists(seq):
    C = berlekamp_massey(seq)
    L = len(C) - 1
    assert C[0] == 1
    assert zeta._generates(C, seq)
    assert L == 0 or _inconsistent(seq, L - 1)
    if 2 * L <= len(seq):
        # a connection polynomial of length at most N/2 is unique (Massey)
        assert C == brute_force_recurrence(seq, L)


@pytest.mark.parametrize("seq, expected", [
    # entries past 60 bits: every term a multiple of 2^61 - 1, and
    # connection coefficients above 2^60
    ([(2 ** 61 - 1) * 2 ** n for n in range(8)], [1, -2]),
    ([(2 ** 60 + 3) ** n for n in range(6)], [1, -(2 ** 60 + 3)]),
    ([(2 ** 62) ** n + (-3) ** n for n in range(8)],
     [1, 3 - 2 ** 62, -3 * 2 ** 62]),
    # windows with 2L > N
    ([0, 0, 0, 1], [1, 0, 0, 0, -1]),
    ([1, 2, 4, 9, 20], [1, -2, 0, -1]),
    ([1, 3, 2, 7, 1], [1, Fraction(1, 7), Fraction(-139, 49), Fraction(60, 49)]),
    # a fractional fit of an integer window
    ([4, 2, 1], [1, Fraction(-1, 2)]),
    # 2^n + 1: small entries and an integral fit with 2L <= N
    ([2, 3, 5, 9, 17, 33], [1, -3, 2]),
# the ids stay those of a dropped third column, which marked the first seven
# rows as windows that a word-size modular pass could not settle
], ids=[f"seq{i}-expected{i}-{i < 7}" for i in range(8)])
def test_berlekamp_massey_fallback_cases(seq, expected):
    assert berlekamp_massey(seq) == [Fraction(c) for c in expected]


# exponential sums sum chi_i a_i^n with a_i of 20-40 bits: the coefficients
# of prod (1 - a_i z) reach 40 k bits
@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(2 ** 20, 2 ** 40) | st.integers(-2 ** 40, -2 ** 20),
                       st.integers(-3, 3).filter(bool), min_size=1, max_size=6),
       st.integers(0, 3))
# four 40-bit bases: a connection coefficient of 159 bits
@example({2 ** 40 - 87: 1, 2 ** 40 - 59: -1, 2 ** 39 + 7: 2, 3 - 2 ** 40: 1}, 0)
# three 40-bit bases: coefficients of up to 120 bits
@example({2 ** 40 - 87: 1, 2 ** 40 - 59: -1, 3 - 2 ** 40: 2}, 0)
def test_berlekamp_massey_lifts_wide_coefficients(terms, extra):
    # distinct bases with nonzero exponents and 2L <= N: the minimal
    # connection polynomial is prod (1 - a z)
    seq = [sum(chi * a ** n for a, chi in terms.items())
           for n in range(1, 2 * len(terms) + extra + 1)]
    expected = math.prod((IntPolynomial.of([1, -a]) for a in terms),
                         start=IntPolynomial.of([1]))
    assert berlekamp_massey(seq) == [Fraction(c) for c in expected.coeffs]


# ---------------------------------------------------------------- exponents

def _numerator(values, v):
    """u with sum_{n>=1} a_n z^n = u/v, built as zeta_from_sequence does."""
    L = v.degree
    return IntPolynomial.of([0] + [
        sum(v.coeffs[i] * values[j - i] for i in range(j + 1)) for j in range(L)])


def _solved_exponents(u, v):
    """residue_exponents with every exponent solved for: one rat_solve over
    the power sums of all factors of v (oracle).  Returns the terms, or the
    type and message of the error raised."""
    try:
        factors = [f if f.constant == 1 else -f for f, _ in factor_int(v)[1]]
        root_polys = [f.reverse() for f in factors]
        r = v.degree
        a = zeta._series_div(list(u.coeffs), v.coeffs, r)[1:]
        sums = [power_sums(p, r) for p in root_polys]
        matrix = RatMatrix.from_rows([[s[n] for s in sums] for n in range(r)])
        sol = rat_solve(matrix, a)
        if sol is None:
            raise NonIntegerResidueError(
                "no Galois-constant exponents reproduce the sequence; it is not "
                "an integer exponential sum")
        for x in sol:
            if x.denominator != 1:
                raise NonIntegerResidueError(
                    f"factor exponent {x} is not an integer; refusing to round")
        if any(x == 0 for x in sol):
            raise NonIntegerResidueError("zero exponent contradicts minimality of v")
        return tuple(zip(root_polys, map(int, sol)))
    except NonIntegerResidueError as exc:
        return type(exc), str(exc)


def _read_exponents(u, v):
    """residue_exponents(u, v) in _solved_exponents' form."""
    try:
        return residue_exponents(u, v).terms
    except NonIntegerResidueError as exc:
        return type(exc), str(exc)


# exponents from -5 to 5
wide_exponential_sums = st.lists(
    st.tuples(root_polys, st.integers(-5, 5).filter(bool)),
    min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(wide_exponential_sums)
def test_class_read_exponents_match_the_full_solve(terms):
    order = sum(poly.degree for poly, _ in terms)
    values = exponential_sum_values(terms, 2 * order + 4)
    v = minimal_recurrence(values)
    if v.degree == 0:
        return  # the exponents cancelled
    u = _numerator(values, v)
    assert _read_exponents(u, v) == _solved_exponents(u, v)


# squarefree v = prod (1 - lambda z) over distinct small integers lambda, so
# that the residues of a random u/v are rational: small or large integers,
# fractions, or zero
@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(-4, 4).filter(bool), min_size=1, max_size=4)
       .flatmap(lambda roots: st.tuples(
           st.just(math.prod((IntPolynomial.of([1, -r]) for r in roots),
                             start=IntPolynomial.of([1]))),
           st.lists(st.integers(-9, 9), min_size=len(roots), max_size=len(roots)))))
def test_class_read_exponents_match_the_full_solve_on_any_residues(vu):
    v, tail = vu
    u = IntPolynomial.of([0] + tail)
    if gcd_int(u, v).degree != 0:
        return
    assert _read_exponents(u, v) == _solved_exponents(u, v)


def test_residue_exponents_rejects_a_polynomial_part():
    # z^2 / (1 - z) = z^2 + z^3 + ...: a_1 = 0 is a transient
    with pytest.raises(InputError):
        residue_exponents(IntPolynomial.of([0, 0, 1]), IntPolynomial.of([1, -1]))


# ---------------------------------------------------------------- the torus zeta

def _selmer(r):
    """The companion matrix of x^r - x - 1 (irreducible for every r, by Selmer)."""
    return companion_matrix(IntPolynomial.of([-1, -1] + [0] * (r - 2) + [1])).row_lists()


def _block_diag_rows(*blocks):
    return BigIntMatrix.block_diag(
        [BigIntMatrix.from_rows(b) for b in blocks]).row_lists()


def _companion_rows(coeffs):
    return companion_matrix(IntPolynomial.of(coeffs)).row_lists()


T4 = [[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, -3], [0, 0, 1, 4]]
T5 = [[0, 0, 0, 0, -1], [1, 0, 0, 0, 1], [0, 1, 0, -1, 0], [0, 0, 1, 0, 2],
      [0, 0, 0, 1, 3]]


def _torus_window(system, sequence):
    """(window, characteristic polynomial) of a one-section torus, with the
    window length the CLI uses."""
    phi = system.sections[0].phi
    return sequence(system, 2 * 2 ** phi.rows + 4), char_poly(phi)


def _both_routes(system):
    """[(Berlekamp-Massey route, torus route)] on the Reidemeister and the
    Nielsen window, each the result or InfiniteValueError."""
    pairs = []
    for sequence in (coincidence_sequence, nielsen_sequence):
        seq, cp = _torus_window(system, sequence)
        pair = []
        for route in (zeta_from_sequence, lambda s: exterior_zeta([(cp, 1, 1)], s)):
            try:
                pair.append(route(seq))
            except InfiniteValueError:
                pair.append(InfiniteValueError)
        pairs.append(tuple(pair))
    return pairs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_torus_zeta_matches_berlekamp_massey_on_random_tori(rows):
    # singular tori, eigenvalues +-1 and roots of unity included; a
    # non-tame Reidemeister window raises in both routes, and its Nielsen
    # window, with 0 where R_n is infinite, has a zeta in both
    (r_bm, r_torus), (n_bm, n_torus) = _both_routes(torus_matrix(rows))
    assert r_torus == r_bm
    assert n_torus == n_bm
    assert n_bm is not InfiniteValueError


@pytest.mark.parametrize("system", [
    *(torus_matrix(_selmer(r)) for r in range(2, 8)),
    torus_matrix(T4), torus_matrix(T5),
    builtin_example("torus_matrix:0"),
    builtin_example("z_times_d:0"),
    builtin_example("torus_matrix:0,1,1,0"),  # eigenvalues 1 and -1
    builtin_example("z_times_d:1"),
], ids=[f"selmer{r}" for r in range(2, 8)] + [
    "T4", "T5", "torus_matrix:0", "z_times_d:0", "swap", "z_times_d:1"])
def test_torus_zeta_matches_berlekamp_massey(system):
    for bm, torus in _both_routes(system):
        assert torus == bm


@pytest.mark.parametrize("rows", [
    _companion_rows([1, 0, -10, 0, 1]),        # V4, and its wedge^2 repeats 1 and -1
    _companion_rows([1, -3, 0, 1]),            # C3
    _companion_rows([-2, 0, 0, 0, 0, 1]),      # F20
    _block_diag_rows(_companion_rows([-1, -1, 1]), _companion_rows([-1, -1, 0, 1])),
], ids=["V4", "C3", "F20", "block_diagonal"])
def test_uncertified_tori_fall_back_to_zassenhaus(monkeypatch, rows):
    # without the certificate every W_k goes to factor_int, and the zeta is
    # the Berlekamp-Massey route's
    seq, cp = _torus_window(torus_matrix(rows), coincidence_sequence)
    assert not symmetric_galois_group(cp)
    oracle = zeta_from_sequence(seq)
    factored = []
    monkeypatch.setattr(zeta, "factor_int", lambda p: factored.append(p) or factor_int(p))
    assert exterior_zeta([(cp, 1, 1)], seq) == oracle
    assert [p.degree for p in factored] == [math.comb(len(rows), k)
                                            for k in range(len(rows) + 1)]


def test_x4_plus_1_is_not_certified():
    # V4, and a torus with roots of unity: R_8 is infinite, N_8 is 0
    rows = _companion_rows([1, 0, 0, 0, 1])
    _, cp = _torus_window(torus_matrix(rows), nielsen_sequence)
    assert not symmetric_galois_group(cp)
    (r_bm, r_torus), (n_bm, n_torus) = _both_routes(torus_matrix(rows))
    assert r_bm is r_torus is InfiniteValueError
    assert n_torus == n_bm


def test_a_repeated_wedge_power_is_never_marked(monkeypatch):
    # x^4 - 10x^2 + 1 has roots +-sqrt2 +-sqrt3, so W_2 has the double roots
    # 1 and -1.  With the certificate forced, the other W_k are passed
    # through unfactored, W_2 is factored, and the zeta is unchanged.
    seq, cp = _torus_window(torus_matrix(_companion_rows([1, 0, -10, 0, 1])),
                            coincidence_sequence)
    oracle = zeta_from_sequence(seq)
    monkeypatch.setattr(zeta, "symmetric_galois_group", lambda p: True)
    factored = []
    monkeypatch.setattr(zeta, "factor_int", lambda p: factored.append(p) or factor_int(p))
    assert exterior_zeta([(cp, 1, 1)], seq) == oracle
    assert [p.degree for p in factored] == [6]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_certified_wedge_powers_are_irreducible(rows):
    # oracle: factor_int finds every square-free W_k of a certified cp
    # irreducible, so exterior_zeta may pass it through as its own factor
    cp = char_poly(BigIntMatrix.from_rows(rows))
    if symmetric_galois_group(cp):
        for w in exterior_power_polynomials(cp):
            if is_squarefree(w):
                assert factor_int(w)[1] == [(w, 1)]


def test_torus_zeta_rejects_a_foreign_window():
    # the window of another torus: the closed form does not reproduce it
    seq, _ = _torus_window(torus_matrix(T4), coincidence_sequence)
    _, cp = _torus_window(torus_matrix(T5), coincidence_sequence)
    with pytest.raises(NonIntegerResidueError):
        exterior_zeta([(cp, 1, 1)], seq)
    with pytest.raises(InputError):
        exterior_zeta([(cp, 1, 1)], seq.values[:1])


@pytest.mark.parametrize("r", [7, 10])
def test_the_torus_zeta_runs_no_berlekamp_massey(monkeypatch, r):
    calls = []
    monkeypatch.setattr(zeta, "berlekamp_massey", lambda s: calls.append(s))
    key = "torus_matrix:" + ",".join(str(x) for row in _selmer(r) for x in row)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["zeta", "--builtin", key, "--format", "json"]) == 0
    assert json.loads(out.getvalue())["roundtrip_verified"] is True
    assert calls == []


@pytest.mark.parametrize("r", [7, 9])
def test_the_zeta_of_x_r_minus_x_minus_1_factors_nothing(monkeypatch, clear_memos, r):
    # Osada: the group of x^r - x - 1 is S_r, so every piece is certified
    calls = []
    monkeypatch.setattr(zeta, "factor_int", lambda p: calls.append(p) or factor_int(p))
    key = "torus_matrix:" + ",".join(str(x) for row in _selmer(r) for x in row)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["zeta", "--builtin", key, "--format", "json"]) == 0
    assert json.loads(out.getvalue())["roundtrip_verified"] is True
    assert calls == []
    if r == 7:  # the route that factors every piece is the oracle
        monkeypatch.setattr(zeta, "symmetric_galois_group", lambda p: False)
        clear_memos()  # the kept zeta would skip the route under test
        again = io.StringIO()
        with contextlib.redirect_stdout(again):
            main(["zeta", "--builtin", key, "--format", "json"])
        assert again.getvalue() == out.getvalue()
        assert calls


# ---------------------------------------------------------------- commuting pairs

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def _scalar_section(rows, c):
    """The finitely generated section (phi, c I)."""
    d = len(rows)
    return group_model.section(d, rows, [[c if i == j else 0 for j in range(d)]
                                         for i in range(d)])


def _phi2_plus_1_section(r):
    """The companion of x^r - x - 1 against psi = phi^2 + I."""
    phi = _selmer(r)
    psi = [[sum(phi[i][k] * phi[k][j] for k in range(r)) + (i == j) for j in range(r)]
           for i in range(r)]
    return group_model.section(r, phi, psi)


def _route(route, seq):
    """route(seq), or the type and message of the TdynError it raises."""
    try:
        return route(seq)
    except TdynError as exc:
        return type(exc), str(exc)


_scalar_sections = st.integers(1, 3).flatmap(lambda d: st.builds(
    _scalar_section,
    st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
             min_size=d, max_size=d),
    st.integers(-3, 3)))


def _s_integer_scalar_section(rows, den, c):
    """The section (phi / den, c I) over the primes 2 and 3 that divide its
    denominators."""
    d = len(rows)
    phi = RatMatrix.from_rows(rows).scale(Fraction(1, den))
    primes = [p for p in (2, 3) if any(e.denominator % p == 0 for e in phi.entries + (c,))]
    return group_model.section(d, phi, RatMatrix.identity(d).scale(c), primes=primes)


_s_integer_scalar_sections = st.integers(1, 3).flatmap(lambda d: st.builds(
    _s_integer_scalar_section,
    st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
             min_size=d, max_size=d),
    st.sampled_from((1, 2, 3)),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3)))))


def _has_unit_ratio(sec):
    """Whether some eigenvalue of A = psi^-1 phi (phi^-1 psi when psi is
    singular) is a p-adic unit for a p in S: A's columns by rat_solve, its
    valuations off the Newton polygon of its own characteristic polynomial."""
    p_side, q_side = (sec.phi, sec.psi) if det_rat(sec.psi) else (sec.psi, sec.phi)
    d = sec.rank
    cols = [rat_solve(q_side, [p_side.get(i, j) for i in range(d)]) for j in range(d)]
    A = RatMatrix.from_rows([[cols[j][i] for j in range(d)] for i in range(d)])
    return any(0 in root_valuations(char_poly(A), p) for p in sec.prime_support)


def _agrees_with_berlekamp_massey(system, exact):
    """_zeta_of on the system's Reidemeister and, when finitely generated,
    Nielsen window against zeta_from_sequence on the same window (oracle):
    the same zeta wherever the oracle has one, and wherever it raises an
    error with the same exit code, or with exact the same error."""
    window = _window_length(system, RunConfig("zeta").n)
    for nielsen in (False, True):
        if nielsen and not system.is_finitely_generated:
            continue
        seq = (nielsen_sequence if nielsen else coincidence_sequence)(system, window)
        oracle = _route(zeta_from_sequence, seq)
        _zeta_of.cache_clear()
        folded = _route(lambda s: _zeta_of(nielsen, system, window)[1:], seq)
        if exact or not isinstance(oracle[0], type):
            assert folded == oracle
        else:
            assert isinstance(folded[0], type), (oracle, folded)
            assert folded[0].exit_code == oracle[0].exit_code


@settings(max_examples=600, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_scalar_sections, commuting_sections(integer=True),
                          _s_integer_scalar_sections, commuting_sections()),
                min_size=1, max_size=3)
       .filter(lambda secs: sum(sec.rank for sec in secs) <= 5))
@example([_scalar_section([[1, 1], [1, 2]], 2), _scalar_section([[3]], -1)])  # c < 0
@example([_scalar_section([[2, 1], [1, 1]], 0),   # c = 0: the roles swap
          _scalar_section([[0, 1], [1, 0]], 0)])
@example([_scalar_section([[2, 0], [0, 3]], 2)])  # phi - c I singular
@example([_scalar_section([[0, -1], [1, 0]], -1),  # a root of unity times c
          _scalar_section([[2]], 3)])
@example([group_model.section(2, [[2, 1], [0, 3]], [[0, 1], [0, 1]])])  # psi = phi - 2I
@example([_phi2_plus_1_section(3)])
@example([group_model.section(2, [[1, 0], [0, 0]], [[0, 0], [0, 1]])])  # no form
def test_exterior_zeta_matches_berlekamp_massey(sections):
    # psi = c I and psi = h(phi) with deg h <= 2, singular sides included,
    # over Z and over Z[1/2], Z[1/3] and Z[1/6].  Reidemeister windows that
    # are not tame raise in both routes, and the Nielsen windows of finitely
    # generated systems, with 0 where R_n is infinite, have a zeta in both.
    # A section with both sides singular has no commuting_form, and an
    # S-integer one with a p-adic unit ratio no zeta scale: each goes to
    # Berlekamp-Massey on its own window.  Where every section has a zeta
    # scale, or the system is one section, the errors are the oracle's too
    system = NilpotentSystem(name="drawn", sections=tuple(sections))
    assert all(sec.form for sec in sections) or any(
        det_rat(sec.phi) == det_rat(sec.psi) == 0 for sec in sections)
    scales = [sec.form and zeta_scale(sec.form, sec.prime_support) for sec in sections]
    for sec, scale in zip(sections, scales):
        if sec.form:
            assert (scale is None) == _has_unit_ratio(sec)
    _agrees_with_berlekamp_massey(system, exact=all(scales) or len(sections) == 1)


def _small_matrices(d):
    return st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                    min_size=d, max_size=d)


# phi and psi drawn apart, so that they mostly do not commute
_random_pair_sections = st.integers(1, 2).flatmap(lambda d: st.builds(
    lambda phi, psi: group_model.section(d, phi, psi), _small_matrices(d), _small_matrices(d)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_random_pair_sections, _scalar_sections,
                          commuting_sections(max_rank=2, integer=True)),
                min_size=2, max_size=3)
       .filter(lambda secs: sum(sec.rank for sec in secs) <= 4
               and any(not sec.form for sec in secs)))
# N_n of phi = -1, psi = 1 is 2 on odd n and 0 on even n, and the second
# section alone has the exponent -1/2: only the product's are integers
@example([group_model.section(1, [[-1]], [[1]]),
          group_model.section(2, [[1, 2], [-1, 1]], [[-1, 0], [0, 1]])])
# phi = psi = 2: the Nielsen window is all zero, with the empty sum
@example([group_model.section(1, [[2]], [[2]]),
          group_model.section(2, [[1, 1], [2, -2]], [[1, 0], [0, 0]])])
def test_a_mixed_system_folds_to_the_zeta_of_its_window(sections):
    # some section has no commuting form, pairs that do not commute
    # included, so that the fold runs Berlekamp-Massey on its own window
    _agrees_with_berlekamp_massey(NilpotentSystem(name="mixed", sections=tuple(sections)),
                                  exact=False)


_NO_BM_SYSTEMS = {
    "class2": (_scalar_section(_selmer(6), 1), _scalar_section([[3]], 1)),
    "c6_psi2": (_scalar_section(_selmer(6), 2),),
    "c6_phi2_plus_1": (_phi2_plus_1_section(6),),
    # the companion of x^6 - x - 1 halved, over Z[1/2]: its roots are 2-adic
    # units, so every ratio has |alpha|_2 = 2 and the zeta scale is 2^6
    "s_integer_c6": (_s_integer_scalar_section(_selmer(6), 2, Fraction(1)),),
}


def _write_system(system, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(group_model.system_to_json(system)))
    return str(path)


# classify on the companion of x^6 - x - 1 with psi = phi^2 + I runs past
# 300 s in its root isolation, so that system runs zeta and realize only
_NO_BM_CASES = [(command, name) for name in (
    "heisenberg", "equal_modulus", "class2", "c6_psi2", "commuting_pair", "c6_phi2_plus_1",
    "s_integer", "s_integer_c6")
    for command in ("zeta", "realize", "classify")
    if (command, name) != ("classify", "c6_phi2_plus_1")]


@pytest.mark.parametrize("command, name", _NO_BM_CASES,
                         ids=[f"{command}-{name}" for command, name in _NO_BM_CASES])
def test_scalar_psi_runs_no_berlekamp_massey(monkeypatch, tmp_path, name, command):
    # every section commutes, with an invertible side: psi = c I, and the
    # commuting pairs with psi = phi^2 + I and of commuting_pair.json; the
    # S-integer sections 3/2 over Z[1/2] and the halved rank-6 companion have
    # no 2-adic unit ratio, so they have a zeta scale too
    if name == "heisenberg":
        source = ["--builtin", "heisenberg:2,1,1,3"]
    elif name == "s_integer":
        source = ["--builtin", "s_integer:3/2,2"]
    elif name in ("equal_modulus", "commuting_pair"):
        source = ["--input", str(INPUTS / f"{name}.json")]
    else:
        system = NilpotentSystem(name=name, sections=_NO_BM_SYSTEMS[name])
        source = ["--input", _write_system(system, tmp_path)]
    calls = []
    monkeypatch.setattr(zeta, "berlekamp_massey", lambda s: calls.append(s))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, *source, "--format", "json"]) == 0
    assert calls == []


@pytest.mark.parametrize("argv, computed", [
    (["realize", "--builtin", "heisenberg:2,1,1,3"], 2),
    (["zeta", "--builtin", "torus_matrix:" + ",".join(str(x) for row in T4 for x in row)], 1),
])
def test_each_section_computes_its_commuting_form_once(monkeypatch, clear_memos, argv,
                                                      computed):
    # the sequence, the tameness verdict and the zeta read one form per
    # section: two sections of the Heisenberg system, one of the torus
    calls = []
    original = group_model.commuting_form
    monkeypatch.setattr(group_model, "commuting_form",
                        lambda phi, psi: calls.append(1) or original(phi, psi))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--format", "json"]) == 0
    assert len(calls) == computed


@pytest.mark.parametrize("name, expected", [
    ("both_singular", (0, {"command": "zeta", "window": 40,
                           "zeta": {"num": ["1"], "den": ["1", "-1"]},
                           "exponential_sum": [{"poly": ["-1", "1"], "chi": "1"}],
                           "roundtrip_verified": True}, "")),
    ("noncommuting_pair", (1, None, "error: recurrence denominator has a repeated "
                           "factor; the sequence is not a plain integer exponential sum\n")),
    ("s_integer_unit_ratio", (1, None, "error: no recurrence of admissible order fits "
                              "the 40-term window\n")),
])
def test_pairs_without_a_commuting_form_keep_berlekamp_massey(
        monkeypatch, tmp_path, name, expected):
    # phi = diag(1, 0) and psi = diag(0, 1) commute with both sides
    # singular, and the pair of noncommuting_pair.json does not commute: the
    # zeta or the error is Berlekamp-Massey's, as it was before the closed
    # form took every commuting pair with an invertible side.  On
    # s_integer:3,2, alpha = 3 is a 2-adic unit, so |3^n - 1|_2 varies with
    # n and the section has no zeta scale: R_n is no exponential sum
    if name == "both_singular":
        system = NilpotentSystem(name=name, sections=(
            group_model.section(2, [[1, 0], [0, 0]], [[0, 0], [0, 1]]),))
        path = _write_system(system, tmp_path)
    elif name == "s_integer_unit_ratio":
        path = _write_system(builtin_example("s_integer:3,2"), tmp_path)
    else:
        path = str(INPUTS / f"{name}.json")
    calls = []
    original = zeta.berlekamp_massey
    monkeypatch.setattr(zeta, "berlekamp_massey", lambda s: calls.append(s) or original(s))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["zeta", "--input", path, "--format", "json"])
    assert calls
    assert (code, json.loads(out.getvalue()) if out.getvalue() else None,
            err.getvalue()) == expected
