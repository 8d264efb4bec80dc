"""The power-difference determinants against the independent routes.

``coincidence_sequence`` reads the integer numerators N_n of
det(phi^n - psi^n) = N_n / D^(nd) from ``power_difference_determinants``,
and so does ``tameness_check`` on a section with no commuting_form.  For a
pair that commutes, with an invertible side, and at least 2^d terms it
reads them off the power sums of the exterior powers of B = t phi psi^-1;
otherwise it runs the Bareiss loop on scaled integer matrices.  The oracles
here are the Bareiss loop itself, called directly, each value recomputed
afresh over Fraction (``mat_pow`` + ``det_rat``) or from the Smith
normal form, and, for the closed-form tameness, the Bareiss loop iterated
up to the bound.
"""

from fractions import Fraction
from itertools import combinations
from unittest import mock

import sympy
from draws import commuting_sections
from hypothesis import given, settings, strategies as st

from tdyn import exact_linalg
from tdyn.exact_linalg import (
    BigIntMatrix,
    RatMatrix,
    char_poly,
    commuting_form,
    det_exact,
    det_rat,
    exterior_power_polynomials,
    mat_pow,
    power_difference_determinants,
)
from tdyn.group_model import (
    NilpotentSystem,
    TamenessVerdict,
    _tameness_bound,
    section,
    tameness_check,
    z_pair,
)
from tdyn.reidemeister import (
    INFINITY,
    coincidence_sequence,
    extend_sequence,
    is_infinite,
    section_coincidence_number,
    section_coincidence_number_snf,
)

PRIMES = (2, 3)


@st.composite
def rationals(draw, primes):
    """Small rationals whose denominators lie in the prime support."""
    num = draw(st.integers(min_value=-3, max_value=3))
    den = 1
    for p in primes:
        den *= p ** draw(st.integers(min_value=0, max_value=2))
    return Fraction(num, den)


@st.composite
def sections(draw, max_rank=4, integer=False):
    """One section with phi and psi drawn from: psi the identity, psi equal
    to phi or to -phi (infinite values), or an unrelated psi, which almost
    never commutes with phi."""
    d = draw(st.integers(min_value=1, max_value=max_rank))
    primes = () if integer else tuple(
        p for p in PRIMES if draw(st.booleans()))
    entry = rationals(primes)

    def matrix():
        return RatMatrix.from_rows(
            [[draw(entry) for _ in range(d)] for _ in range(d)])

    phi = matrix()
    kind = draw(st.sampled_from(("identity", "equal", "negated", "other")))
    psi = {"identity": lambda: RatMatrix.identity(d),
           "equal": lambda: phi,
           "negated": lambda: phi.scale(-1),
           "other": matrix}[kind]()
    return section(d, phi, psi, primes=primes)


def systems(max_rank=4, integer=False):
    return st.lists(sections(max_rank, integer), min_size=1, max_size=2).map(
        lambda secs: NilpotentSystem(name="drawn", sections=tuple(secs)))


def product_oracle(system, n):
    """The product formula over section_coincidence_number."""
    total = 1
    for sec in system.sections:
        value = section_coincidence_number(sec, n)
        if is_infinite(value):
            return INFINITY
        total *= value
    return total


# ---------------------------------------------------------------- sequences

@settings(max_examples=60, deadline=None)
@given(systems(), st.integers(min_value=1, max_value=6))
def test_sequence_matches_section_route(system, N):
    seq = coincidence_sequence(system, N)
    assert list(seq.values) == [product_oracle(system, n) for n in range(1, N + 1)]


@settings(max_examples=40, deadline=None)
@given(sections(integer=True), st.integers(min_value=1, max_value=6))
def test_sequence_matches_snf_route_on_integer_sections(sec, N):
    seq = coincidence_sequence(NilpotentSystem(name="drawn", sections=(sec,)), N)
    assert list(seq.values) == [section_coincidence_number_snf(sec, n)
                                for n in range(1, N + 1)]


def test_infinite_cases():
    # phi = psi is infinite at every n; 2x against -2x at every even n
    phi = RatMatrix.from_rows([[1, Fraction(1, 2)], [3, -1]])
    equal = NilpotentSystem(name="equal", sections=(section(2, phi, phi, primes=[2]),))
    assert coincidence_sequence(equal, 4).values == (INFINITY,) * 4
    seq = coincidence_sequence(z_pair(2, -2), 6)
    assert seq.values == (4, INFINITY, 16, INFINITY, 64, INFINITY)
    assert list(seq.values) == [product_oracle(z_pair(2, -2), n) for n in range(1, 7)]


def denominator(phi, psi):
    """D = L M for phi = B/L and psi = C/M: det(phi^n - psi^n) = N_n / D^(nd)."""
    return phi.scaled_integer()[1] * psi.scaled_integer()[1]


def test_determinants_are_exact():
    phi = RatMatrix.from_rows([[Fraction(1, 2), 1], [0, 3]])
    psi = RatMatrix.from_rows([[1, 0], [Fraction(1, 3), 2]])
    assert denominator(phi, psi) == 6
    dets = power_difference_determinants(phi, psi, commuting_form(phi, psi), 1, 7)
    for n in range(1, 8):
        N = next(dets)
        assert type(N) is int
        assert Fraction(N, 6 ** (2 * n)) == det_rat(mat_pow(phi, n).sub(mat_pow(psi, n)))


# ---------------------------------------------------------------- tameness

def reference_tameness(system):
    """The iterative check with every power recomputed over Fraction."""
    bound = _tameness_bound(max(sec.rank for sec in system.sections))
    for n in range(1, bound + 1):
        for k, sec in enumerate(system.sections, start=1):
            if det_rat(mat_pow(sec.phi, n).sub(mat_pow(sec.psi, n))) == 0:
                return TamenessVerdict(False, n, k, bound)
    return TamenessVerdict(True, None, None, bound)


# rank 3 at most: the reference recomputes every power up to 120 times at rank 4
@settings(max_examples=25, deadline=None)
@given(systems(max_rank=3))
def test_tameness_matches_reference_loop(system):
    assert tameness_check(system) == reference_tameness(system)


def test_tameness_matches_reference_loop_rank4():
    # rotation by a primitive 8th root of unity: the witness lies past every
    # power of smaller order
    rot = [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    system = NilpotentSystem(name="rot8", sections=(
        section(1, [[2]]), section(4, rot)))
    verdict = tameness_check(system)
    assert verdict == reference_tameness(system)
    assert (verdict.witness_n, verdict.witness_section) == (8, 2)
    # a tame rational pair that does not commute runs the whole range
    phi = [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    psi = [[Fraction(1, 2), 1, 0, 0], [0, 3, 0, 0], [0, 0, 1, 0], [0, 1, 0, -2]]
    system = NilpotentSystem(name="tame4", sections=(
        section(4, phi, psi, primes=[2]),))
    verdict = tameness_check(system)
    assert verdict == reference_tameness(system)
    assert verdict.tame and verdict.checked_up_to == 120


def test_tameness_bound_matches_sympy_totient():
    expected = []
    for r in range(1, 8):
        budget = r * r
        best = max(m for m in range(1, 2 * budget * budget + 2)
                   if sympy.totient(m) <= budget)
        expected.append(2 * best)
    assert expected == [4, 24, 60, 120, 180, 252, 420]
    # the sieve stops at max(r^4, 6), since totient(m) >= sqrt(m) for every
    # m but 2 and 6; the bounds are those of the sieve up to 2 r^4 + 1
    assert [_tameness_bound(r) for r in range(1, 13)] == expected + [
        480, 660, 840, 924, 1260]


# ---------------------------------------------------------------- products

@st.composite
def sparse_pairs(draw):
    """Two conformable integer or rational matrices (denominators 1-3), at
    least half of each entry zero."""
    cls, kind = draw(st.sampled_from(((BigIntMatrix, int), (RatMatrix, Fraction))))
    r, k, c = (draw(st.integers(min_value=1, max_value=6)) for _ in range(3))
    ints = st.integers(min_value=-10 ** 30, max_value=10 ** 30)
    entry = (st.builds(Fraction, ints, st.integers(min_value=1, max_value=3))
             if kind is Fraction else ints)

    def sparse(rows, cols):
        size = rows * cols
        entries = draw(st.lists(entry, min_size=size, max_size=size))
        for i in draw(st.permutations(range(size)))[:(size + 1) // 2]:
            entries[i] = kind(0)
        return cls(rows, cols, tuple(entries))

    return sparse(r, k), sparse(k, c)


@settings(max_examples=100, deadline=None)
@given(sparse_pairs())
def test_bigint_mul_matches_triple_loop(pair):
    A, B = pair
    naive = [[sum(A.get(i, k) * B.get(k, j) for k in range(A.cols))
              for j in range(B.cols)] for i in range(A.rows)]
    product = A.mul(B)
    assert product == type(A).from_rows(naive)
    # every entry keeps the type, also where the zero-skipping loop adds nothing
    kind = Fraction if isinstance(A, RatMatrix) else int
    assert all(type(e) is kind for e in product.entries)


# ---------------------------------------------------------------- exterior-power route

def exterior(phi, psi, start, last):
    """The exterior-power route on the commuting_form of (phi, psi)."""
    return exact_linalg._exterior_determinants(commuting_form(phi, psi), start, last)


# blocks with root-of-unity eigenvalues: det(block^n - I) = 0 at the
# multiples of the order
ROTATIONS = ([[0, -1], [1, 0]], [[0, -1], [1, -1]], [[1, -1], [1, 0]])


@st.composite
def identity_phis(draw, max_rank=6, integer=False):
    """phi for psi = identity, rank 1-max_rank, with denominators built from 2
    and 3; singular, or with a permutation or rotation block on top of a
    block triangular matrix, so that zero determinants occur."""
    d = draw(st.integers(min_value=1, max_value=max_rank))
    den = 1 if integer else draw(st.sampled_from((1, 2, 4, 3, 9, 6)))
    rows = [[Fraction(draw(st.integers(min_value=-3, max_value=3)), den)
             for _ in range(d)] for _ in range(d)]
    kind = draw(st.sampled_from(("plain", "singular", "permutation", "rotation")))
    if kind == "rotation" and d < 2:
        kind = "permutation"
    if kind == "singular":
        rows[-1] = [c * 2 for c in rows[0]] if d > 1 else [Fraction(0)]
    elif kind != "plain":
        if kind == "rotation":
            block = draw(st.sampled_from(ROTATIONS))
        else:
            m = draw(st.integers(min_value=1, max_value=d))
            block = [[int(j == (i - 1) % m) for j in range(m)] for i in range(m)]
        m = len(block)
        for i in range(d):
            for j in range(m):
                rows[i][j] = Fraction(block[i][j]) if i < m else Fraction(0)
    return RatMatrix.from_rows(rows)


@settings(max_examples=80, deadline=None)
@given(identity_phis(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=12))
def test_exterior_route_matches_the_bareiss_loop(phi, start, count):
    identity = RatMatrix.identity(phi.rows)
    last = start + count - 1
    # both routes yield N_n over the same D^(nd), D = phi's denominator
    streams = list(exterior(phi, identity, start, last))
    assert streams == list(exact_linalg._bareiss_determinants(phi, identity, start, last))
    D = denominator(phi, identity)
    assert [Fraction(N, D ** (n * phi.rows)) for n, N in enumerate(streams, start=start)] == [
        det_rat(mat_pow(phi, n).sub(identity)) for n in range(start, last + 1)]
    assert len(streams) == count
    # past the guard power_difference_determinants takes the same route
    long = list(power_difference_determinants(
        phi, identity, commuting_form(phi, identity), start,
        start + max(count, 2 ** phi.rows) - 1))
    assert long[:count] == streams


def test_exterior_route_meets_zero_determinants():
    # an 8-cycle and the order-3 rotation: zeros at every multiple of 24
    cycle = [[int(j == (i - 1) % 8) for j in range(8)] for i in range(8)]
    assert list(exterior(RatMatrix.from_rows(cycle), RatMatrix.identity(8), 1, 3)) == [0] * 3
    rot = RatMatrix.from_rows([[0, -1, 0], [1, -1, 0], [0, 0, Fraction(1, 2)]])
    identity = RatMatrix.identity(3)
    dets = list(exterior(rot, identity, 1, 12))
    assert dets == list(exact_linalg._bareiss_determinants(rot, identity, 1, 12))
    assert [n for n, v in enumerate(dets, start=1) if v == 0] == [3, 6, 9, 12]
    # N_n = det(rot^n - I) 2^(3n), D = 2
    assert [Fraction(N, 2 ** (3 * n)) for n, N in enumerate(dets, start=1)] == [
        det_rat(mat_pow(rot, n).sub(identity)) for n in range(1, 13)]


@settings(max_examples=40, deadline=None)
@given(identity_phis(max_rank=4, integer=True), st.integers(min_value=1, max_value=4))
def test_exterior_route_matches_the_snf_route(phi, start):
    sec = section(phi.rows, phi)
    system = NilpotentSystem(name="drawn", sections=(sec,))
    N = start + 2 ** phi.rows
    head = coincidence_sequence(system, start - 1) if start > 1 else None
    seq = (extend_sequence(system, head, N) if head else coincidence_sequence(system, N))
    assert list(seq.values) == [section_coincidence_number_snf(sec, n)
                                for n in range(1, N + 1)]


def _wedge(rows, k):
    """wedge^k A on the basis of k-subsets in lexicographic order: entry
    (I, J) is the minor det A[I, J]."""
    subsets = list(combinations(range(len(rows)), k))
    return BigIntMatrix.from_rows([
        [det_exact(BigIntMatrix.from_rows([[rows[i][j] for j in J] for i in I]))
         if k else 1 for J in subsets] for I in subsets])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.lists(
    st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_exterior_power_polynomials_stay_in_ints(rows):
    newton = exact_linalg._newton_coefficients
    seen = []

    def checking(sums):
        out = newton(sums)
        seen.append(all(type(x) is int for x in list(sums) + out))
        return out

    cp = char_poly(BigIntMatrix.from_rows(rows))
    exterior_power_polynomials.cache_clear()  # build them, not the last list
    with mock.patch.object(exact_linalg, "_newton_coefficients", checking):
        polys = exterior_power_polynomials(cp)
    assert seen and all(seen)
    assert all(type(c) is int for w in polys for c in w.coeffs)
    assert polys == [char_poly(_wedge(rows, k)) for k in range(len(rows) + 1)]


# ---------------------------------------------------------------- scalar psi

# rotations of order 3, 4 and 6: scaled by c they put c times a root of
# unity among phi's eigenvalues, so det(phi^n - c^n I) = 0 at the multiples
ORDERED_ROTATIONS = {3: [[0, -1], [1, -1]], 4: [[0, -1], [1, 0]], 6: [[1, -1], [1, 0]]}


@st.composite
def scalar_sections(draw, max_rank=4):
    """A section with psi = c I: c from rationals, so negative, zero and
    non-integer; phi rational, with phi - c I singular, or with c times a
    rotation of order 3, 4 or 6 on top of a block triangular matrix."""
    d = draw(st.integers(min_value=1, max_value=max_rank))
    primes = tuple(p for p in PRIMES if draw(st.booleans()))
    entry = rationals(primes)
    c = draw(entry)
    rows = [[draw(entry) for _ in range(d)] for _ in range(d)]
    kind = draw(st.sampled_from(("plain", "singular", "rotation")))
    if kind == "rotation" and d < 2:
        kind = "singular"
    if kind == "singular":  # rows of phi - c I: the last is twice the first
        rows[-1] = [2 * x for x in rows[0]] if d > 1 else [Fraction(0)]
        rows = [[x + (c if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(rows)]
    elif kind == "rotation":
        block = ORDERED_ROTATIONS[draw(st.sampled_from(sorted(ORDERED_ROTATIONS)))]
        for i in range(d):
            for j in range(2):
                rows[i][j] = c * block[i][j] if i < 2 else Fraction(0)
    return section(d, rows, RatMatrix.identity(d).scale(c), primes=primes)


@st.composite
def planted_pairs(draw):
    """A rank-3 section with psi not scalar: phi = diag(c R, x) and
    psi = diag(c, c, y), R a rotation of order 3, 4 or 6 and y != c, so the
    witness of a zero may lie in a section iterated term by term."""
    c = draw(st.integers(min_value=-3, max_value=3).filter(bool))
    x, y = draw(st.integers(-3, 3)), draw(st.integers(-3, 3).filter(lambda v: v != c))
    R = ORDERED_ROTATIONS[draw(st.sampled_from(sorted(ORDERED_ROTATIONS)))]
    phi = [[c * R[0][0], c * R[0][1], 0], [c * R[1][0], c * R[1][1], 0], [0, 0, x]]
    return section(3, phi, [[c, 0, 0], [0, c, 0], [0, 0, y]])


@settings(max_examples=160, deadline=None)
@given(st.one_of(scalar_sections(), commuting_sections(max_rank=4)),
       st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8))
def test_scalar_routes_yield_numerators_over_the_stated_denominator(sec, start, count):
    # psi = c I or psi = h(phi): the streams run on every pair with a
    # commuting_form, and only a pair with both sides singular has none
    phi, psi, d = sec.phi, sec.psi, sec.rank
    last = start + count - 1
    D = denominator(phi, psi)
    expected = [det_rat(mat_pow(phi, n).sub(mat_pow(psi, n)))
                for n in range(start, last + 1)]
    routes = [exact_linalg._bareiss_determinants]
    if commuting_form(phi, psi) is None:
        assert det_rat(phi) == det_rat(psi) == 0
    else:
        routes.append(exterior)
    for route in routes:
        got = list(route(phi, psi, start, last))
        assert all(type(N) is int for N in got)
        assert [Fraction(N, D ** (n * d)) for n, N in enumerate(got, start=start)] == expected


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(scalar_sections(), commuting_sections(max_rank=4)),
                min_size=1, max_size=2),
       st.integers(min_value=1, max_value=18))
def test_sequence_of_scalar_sections_matches_section_route(secs, N):
    # N >= 2^d puts a rank-d section on the exterior-power route
    system = NilpotentSystem(name="drawn", sections=tuple(secs))
    seq = coincidence_sequence(system, N)
    assert list(seq.values) == [product_oracle(system, n) for n in range(1, N + 1)]


def iterated_tameness(system):
    """The verdict by iterating the Bareiss loop over every section, n = 1
    .. the bound, n first and then the section."""
    bound = _tameness_bound(max(sec.rank for sec in system.sections))
    dets = [exact_linalg._bareiss_determinants(sec.phi, sec.psi, 1, bound)
            for sec in system.sections]
    for n, row in enumerate(zip(*dets), start=1):
        for k, det in enumerate(row, start=1):
            if det == 0:
                return TamenessVerdict(False, n, k, bound)
    return TamenessVerdict(True, None, None, bound)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(scalar_sections(max_rank=3), planted_pairs(),
                          sections(max_rank=3), commuting_sections()),
                min_size=1, max_size=3))
def test_closed_form_tameness_matches_the_iteration(secs):
    system = NilpotentSystem(name="drawn", sections=tuple(secs))
    assert tameness_check(system) == iterated_tameness(system)


def test_closed_form_tameness_takes_the_least_witness():
    # section 1: 2 R_6 against 2 I, zero at n = 6; section 2: the planted
    # pair with R_4, zero at n = 4 in a section iterated term by term;
    # section 3: phi singular against psi = 0, zero at n = 1
    six = section(2, [[2, -2], [2, 0]], [[2, 0], [0, 2]])
    four = section(3, [[0, -1, 0], [1, 0, 0], [0, 0, 2]], [[1, 0, 0], [0, 1, 0], [0, 0, 3]])
    singular = section(2, [[1, 2], [2, 4]], [[0, 0], [0, 0]])
    cases = [((six,), (6, 1)), ((six, four), (4, 2)), ((four, six), (4, 1)),
             ((six, four, singular), (1, 3)), ((singular, four), (1, 1))]
    for secs, witness in cases:
        system = NilpotentSystem(name="planted", sections=secs)
        verdict = tameness_check(system)
        assert verdict == iterated_tameness(system) == reference_tameness(system)
        assert (verdict.witness_n, verdict.witness_section) == witness
    # psi = 0: a zero at n = 1 exactly when phi is singular, else none
    assert tameness_check(z_pair(0, 0)) == TamenessVerdict(False, 1, 1, 4)
    assert tameness_check(z_pair(2, 0)) == TamenessVerdict(True, None, None, 4)
    assert coincidence_sequence(z_pair(0, 0), 3).values == (INFINITY,) * 3
