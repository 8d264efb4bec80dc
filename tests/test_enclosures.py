from fractions import Fraction
from math import floor, gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.polyroots import preprocess_roots
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf

from tdyn.enclosures import (
    _certified_roots,
    _crootof_box,
    _Disk,
    MAX_BITS,
    START_BITS,
    RootEnclosure,
    boxes_intersect,
    decide_order,
    interval_sqrt,
    modulus_cell,
    poly_root_enclosures,
    precision_ladder,
    real_part_sign,
)
from tdyn.errors import PrecisionError
from tdyn.exact_linalg import IntPolynomial
from tdyn.polyalg import product_polynomial, to_sympy


def poly(*coeffs):
    return IntPolynomial.of(coeffs)


def real_entries(p):
    """The real entries of poly_root_enclosures(p), which come first."""
    return [e for e in poly_root_enclosures(p) if e.is_real]


def recorded(fn):
    """fn plus the list of precisions it was asked for."""
    asked = []

    def call(bits):
        asked.append(bits)
        return fn(bits)
    return call, asked


def test_precision_ladder_starts_at_8_and_passes_the_old_precisions():
    ladder = list(precision_ladder())
    assert ladder[0] == START_BITS == 8
    assert ladder[-1] == MAX_BITS == 1024
    assert {128, 256, 512, 1024} <= set(ladder)


def test_decide_order_settles_separated_values_at_8_bits():
    sqrt2 = real_entries(poly(-2, 0, 1))[1]
    sqrt3 = real_entries(poly(-3, 0, 1))[1]
    fa, asked = recorded(sqrt2.modsq)
    assert decide_order(fa, sqrt3.modsq) == -1
    assert decide_order(sqrt3.modsq, sqrt2.modsq) == 1
    assert asked == [8]


def test_real_part_sign_settles_at_8_bits():
    # roots 1 -+ i of x^2 - 2x + 2
    encl = poly_root_enclosures(poly(2, -2, 1))
    box_fn, asked = recorded(encl[0].box)
    assert real_part_sign(box_fn) == 1
    assert asked == [8]


def test_equal_values_raise_at_the_ceiling():
    # the two roots -+ i of x^2 + 1 share |root|^2 = 1
    i_minus, i_plus = poly_root_enclosures(poly(1, 0, 1))
    fa, asked = recorded(i_minus.modsq)
    with pytest.raises(PrecisionError):
        decide_order(fa, i_plus.modsq)
    # both widths fall below CEILING_WIDTH at 128 bits
    assert asked == [8, 16, 32, 64, 128]
    one = lambda _bits: (Fraction(1), Fraction(1))
    with pytest.raises(PrecisionError):
        decide_order(one, one)


def test_real_part_sign_of_zero_raises():
    around_zero = lambda bits: (-Fraction(1, 2 ** bits), Fraction(1, 2 ** bits),
                                Fraction(1), Fraction(1))
    with pytest.raises(PrecisionError):
        real_part_sign(around_zero)


def test_poly_root_enclosures_count_multiplicity():
    # (x - 1)^2 (x^2 + 1) x
    p = poly(-1, 1).pow(2) * poly(1, 0, 1) * poly(0, 1)
    encl = poly_root_enclosures(p)
    assert len(encl) == p.degree == 5
    assert [e.is_real for e in encl] == [True, True, True, False, False]
    assert len(real_entries(p)) == 3


# ------------------------------------------------- the engine vs CRootOf

def crootof_route(p):
    """sympy's CRootOf bisection for every root of p: the oracle."""
    return [RootEnclosure(p, i) for i in range(p.degree)]


def meets_isolating_interval(e, o) -> bool:
    """Whether e's box meets the isolating interval of CRootOf root o; the
    intervals of distinct roots are disjoint, so this pins the index."""
    iv = o._crootof()._get_interval()
    b = e.box(64)
    if o.is_real:
        return iv.a <= b[1] and b[0] <= iv.b
    return iv.ax <= b[1] and b[0] <= iv.bx and iv.ay <= b[3] and b[2] <= iv.by


def cell(e):
    return modulus_cell(lambda r: r.modsq(192), e)[0]


def assert_matches_crootof(p, complex_bits=256):
    """Every CRootOf index once, real roots first and ascending, and each root
    paired with the CRootOf root of its index: the same is_real, boxes that
    meet the CRootOf boxes on the ladder (non-real roots up to complex_bits:
    sympy's complex bisection takes seconds per rung beyond 32 bits) and
    identical 64-bit modulus cells (non-real roots only when complex_bits
    reaches 192, which is where CRootOf's cell comes from)."""
    engine, oracle = poly_root_enclosures(p), crootof_route(p)
    assert len(engine) == len(oracle) == p.degree
    assert sorted(e.index for e in engine) == list(range(p.degree))
    n_real = sum(e.is_real for e in engine)
    assert [e.index for e in engine[:n_real]] == list(range(n_real))
    for e in engine:
        o = oracle[e.index]
        assert e.is_real == o.is_real
        if e.disk is not None and isinstance(o._crootof(), sympy.CRootOf):
            assert meets_isolating_interval(e, o)
        top = 256 if e.is_real else complex_bits
        # the highest rung first, so CRootOf refines each root once
        for bits in sorted((b for b in precision_ladder() if b <= top), reverse=True):
            assert boxes_intersect(e.box(bits), o.box(bits)), (e.index, bits)
        if e.is_real or complex_bits >= 192:
            assert cell(e) == cell(o)
    return engine


FACTORS = [
    poly(0, 1),            # x: a zero root
    poly(-1, 1),           # x - 1
    poly(1, 2),            # 2x + 1
    poly(-2, 0, 1),        # x^2 - 2
    poly(1, 0, 1),         # x^2 + 1
    poly(-1, -1, 1),       # x^2 - x - 1
    poly(2, -2, 1),        # x^2 - 2x + 2
    poly(-1, -1, 0, 1),    # x^3 - x - 1
]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=4))
def test_real_entries_match_the_filtered_full_isolation(factors):
    # a factor drawn twice gives repeated roots
    p = poly(3)
    for f in factors:
        p = p * f
    fast = real_entries(p)
    oracle = [o for o in crootof_route(p) if o.is_real]
    assert [e.index for e in fast] == [o.index for o in oracle]
    for e, o in zip(fast, oracle):
        for bits in sorted((b for b in precision_ladder() if b <= 256), reverse=True):
            assert boxes_intersect(e.box(bits), o.box(bits)), (e.index, bits)
        assert cell(e) == cell(o)


def _sign_at(f, m: Fraction) -> int:
    """Sign of f(m), f an integer coefficient list, highest degree first."""
    acc = 0
    for j, c in enumerate(f):
        acc = acc * m.numerator + c * m.denominator ** j
    return (acc > 0) - (acc < 0)


def modulus_oracle(p):
    """For each non-real root z of p, a box of width <= 2^-192 around |z|^2,
    computed without complex isolation: |z|^2 = z conj(z) is a real root of
    product_polynomial(p), isolated by sympy on the real line and bisected
    on the sign of that polynomial.  Returns a function from an engine root
    to its box.  The root's 192-bit modsq box must meet exactly one open
    isolating interval, unless it holds a rational root, which sympy isolates
    exactly (and which may end a neighbouring interval)."""
    f = [int(c) for c in to_sympy(product_polynomial(p)).sqf_part().rep.to_list()]
    df = [c * (len(f) - 1 - j) for j, c in enumerate(f[:-1])]
    intervals = [(Fraction(int(a.numerator), int(a.denominator)),
                  Fraction(int(b.numerator), int(b.denominator)))
                 for a, b in dup_isolate_real_roots_sqf(f, sympy.ZZ)]

    def box(e):
        lo, hi = e.modsq(192)
        exact = [(a, b) for a, b in intervals if a == b and lo <= a <= hi]
        if exact:
            assert len(exact) == 1, (e.index, exact)
            return exact[0]
        hits = [(a, b) for a, b in intervals if a < hi and lo < b]
        assert len(hits) == 1, (e.index, hits)
        a, b = hits[0]
        # the sign of f just inside a: f is square-free, so where f(a) = 0
        # it is the sign of f'(a)
        sa = _sign_at(f, a) or _sign_at(df, a)
        while b - a > Fraction(1, 1 << 192):
            m = (a + b) / 2
            sm = _sign_at(f, m)
            if sm == 0:
                return m, m
            a, b = (m, b) if sm == sa else (a, m)
        return a, b
    return box


def assert_true_cells(p, engine):
    """Every non-real root's 64-bit cell is the cell of the true |z|, when
    |z|^2 lies more than 2^-160 away from a grid point."""
    oracle, margin = modulus_oracle(p), Fraction(1, 1 << 160)
    for e in engine:
        if e.is_real:
            continue
        a, b = oracle(e)
        c = isqrt(floor((a - margin) * (1 << 128)))
        if c == isqrt(floor((b + margin) * (1 << 128))):
            assert cell(e) == (Fraction(c, 1 << 64), Fraction(c + 1, 1 << 64)), e.index


# derandomized: an unseeded draw of 25 degree <= 10 polynomials could hold
# several on which CRootOf takes seconds each
@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=10),
       st.sampled_from([1, -1, 2, 3]))
def test_engine_matches_crootof_on_random_polynomials(coeffs, leading):
    p = poly(*coeffs, leading)
    assert_true_cells(p, assert_matches_crootof(p, complex_bits=16))


@pytest.mark.parametrize("coeffs", [
    (-1, 1, 3, 5, 2, 1),          # x^5 + 2x^4 + 5x^3 + 3x^2 + x - 1
    (3, -1, -5, -4, 5, 2, 1),     # x^6 + 2x^5 + 5x^4 - 4x^3 - 5x^2 - x + 3
])
def test_index_order_is_the_rectangle_order_not_the_real_part_order(coeffs):
    encl = assert_matches_crootof(poly(*coeffs), complex_bits=32)
    assert_true_cells(poly(*coeffs), encl)
    assert all(e.disk is not None for e in encl)
    by_index = sorted(encl, key=lambda e: e.index)
    re = [e.box(64)[0] for e in by_index if not e.is_real][::2]
    assert re != sorted(re)


@pytest.mark.parametrize("coeffs, engine", [
    ((2, 0, 1), True),            # x^2 + 2: purely imaginary roots
    ((-1, -1, 0, 1), True),       # x^3 - x - 1: one real root, one pair
    ((15625, -375, 1), True),     # real roots of a polynomial sympy rescales
    ((4, 0, 1), True),            # x^2 + 4 = 4 (y^2 + 1): rescaled, non-real
])
def test_engine_matches_crootof_through_256_bits(coeffs, engine):
    encl = assert_matches_crootof(poly(*coeffs))
    assert all((e.disk is not None) == engine for e in encl)


def rescale_bound(p):
    """The bound modulus_cell pads CRootOf boxes by: the gcd of the
    coefficients below the leading one."""
    return gcd(*p.coeffs[:-1])


@pytest.mark.parametrize("p, c", [
    (poly(625, -30, 1), 5),                  # x^2 - 30x + 625 = 25 q(x/5)
    (poly(4, 2, 1), 2),                      # x^2 + 2x + 4
    (poly(8, -4, 1), 2),                     # x^2 - 4x + 8
    (poly(-8, -4, 0, 1), 2),                 # x^3 - 4x - 8: one real root, a pair
    (poly(4, 0, 1) * poly(8, -4, 1), 2),     # two factors of q
])
def test_rescaled_polynomials_stay_on_the_engine(p, c):
    # sympy orders the non-real roots of p as those of q, CRootOf(p, i) =
    # c CRootOf(q, i); the engine replays q's bisection scaled by c
    assert int(preprocess_roots(to_sympy(p))[0]) == c
    assert rescale_bound(p) >= c
    encl = assert_matches_crootof(p, complex_bits=32)
    assert all(e.disk is not None for e in encl)
    assert_true_cells(p, encl)


@st.composite
def rescalable_polynomials(draw):
    """c^n q(x / c) times a content and a sign, for a small q of degree n
    with some zero coefficients and c in 1-6: sympy's integer basis, its
    two-term case, and polynomials with no basis or a smaller one."""
    q = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -3, 4, 12]), min_size=1, max_size=6))
    q.append(draw(st.sampled_from([1, -1, 2, 3, -8])))
    c, content = draw(st.integers(1, 6)), draw(st.sampled_from([1, -1, 2, -6, 2 ** 70]))
    n = len(q) - 1
    return IntPolynomial.of([content * a * c ** (n - k) for k, a in enumerate(q)])


@settings(max_examples=300, deadline=None)
@given(rescalable_polynomials())
def test_rescale_matches_preprocess_roots(p):
    # sympy's factor c, with p(c y) = c^n q(y), never exceeds the pad's bound
    c = int(preprocess_roots(to_sympy(p))[0])
    if any(p.coeffs[:-1]):
        assert rescale_bound(p) >= c
    else:
        # a monomial has no basis, and no engine disk to pad: its root is
        # repeated or the exact point of a linear polynomial
        assert c == 1


@pytest.mark.parametrize("p, c", [
    (poly(1024, 512, 0, 0, 0, 1), 4),        # x^5 + 512x + 1024 = 4^5 (y^5 + 2y + 1)
    (poly(8, 0, 0, 27), 1),                  # 27x^3 + 8: the leading term outweighs
    (poly(27, 0, 0, 8), 3),                  # 8x^3 + 27: two terms, 27 = 3^3
    (poly(24, 0, 0, 1), 1),                  # x^3 + 24: two terms, no cube root
    (poly(24, 8, 0, 1), 2),                  # x^3 + 8x + 24 = 2^3 (y^3 + 2y + 3)
    (poly(0, 64, 0, 1), 8),                  # x^3 + 64x: a zero constant term
])
def test_rescale_pins_the_integer_basis(p, c):
    assert int(preprocess_roots(to_sympy(p))[0]) == c <= rescale_bound(p)


# 3^5 q(x/3) for q = x^5 - 2x^4 + x^3 + x^2 - 2x + 2: sympy orders its two
# non-real pairs as q's
RESCALED_TWO_PAIRS = poly(*(a * 3 ** (5 - i) for i, a in enumerate((2, -2, 1, 1, -2, 1))))


@pytest.mark.parametrize("p, pairs", [
    (poly(2, 0, 0, 0, 1), 2),          # x^4 + 2: no real root
    (poly(5, 1, 0, 3, 0, 1), 2),       # x^5 + 3x^3 + x + 5: one real root
    (RESCALED_TWO_PAIRS, 2),
    (poly(625, -30, 1), 1),            # x^2 - 30x + 625 = 25 q(x/5)
])
def test_resolved_indices_are_crootofs(p, pairs):
    encl = poly_root_enclosures(p)
    # only several pairs leave an index to be found when it is read
    assert sum(e._index is None for e in encl) == (2 * pairs if pairs > 1 else 0)
    assert all(e.disk is not None for e in assert_matches_crootof(p, complex_bits=32))
    if p == RESCALED_TWO_PAIRS:
        assert int(preprocess_roots(to_sympy(p))[0]) == 3 <= rescale_bound(p)


@pytest.mark.parametrize("read_index_first", [False, True])
def test_a_root_whose_newton_step_leaves_its_disk_is_placed_by_the_disk(
        monkeypatch, read_index_first):
    # x^4 + 2 has two pairs, so the index is found by CRootOf, from the disk
    # as it stands: no further Newton step is tried for it
    steps = []

    def leaves(disk, bits):
        steps.append(bits)
        return False

    monkeypatch.setattr(_Disk, "refine", leaves)
    p = poly(2, 0, 0, 0, 1)
    for k, e in enumerate(poly_root_enclosures(p)):
        steps.clear()
        if read_index_first:
            e.index
        e.box(8)
        assert steps == [9] and e.disk is None, k
        o = RootEnclosure(p, e.index)
        assert meets_isolating_interval(e, o)
        assert e.box(32) == o.box(32)
        assert steps == [9]


def _eval_rational_box(value, bits):
    """The CRootOf box by sympy's own evaluation: value = c * root, with root
    evaluated by eval_rational into the expression re + I*im."""
    c, root = value.as_coeff_Mul()
    c = Fraction(int(c.p), int(c.q))
    if root == 1:
        return (c, c, 0, 0)
    d = sympy.Rational(1, 1 << bits)
    re, im = (Fraction(int(v.p), int(v.q))
              for v in root.eval_rational(d, d).as_real_imag())
    delta = Fraction(1, 1 << bits)
    dy = 0 if root.is_real else delta
    return (c * (re - delta), c * (re + delta), c * (im - dy), c * (im + dy))


@pytest.mark.parametrize("p, index", [
    (poly(-1, -1, 0, 1), 0),                 # the real root of x^3 - x - 1
    (poly(4, 0, 1), 1),                      # 2i, an imaginary root
    (poly(-1, -1, 0, 1), 2),                 # a non-real root
    (poly(8, -4, 1), 0),                     # 2 (1 - i): a rescaled root
    (poly(-1, 1) * poly(1, 0, 1), 0),        # 1: CRootOf gives a Rational
])
def test_crootof_boxes_equal_eval_rational_on_every_rung(p, index):
    ladder = [b for b in precision_ladder() if b <= 64]
    boxes = {}
    for route in (_eval_rational_box, _crootof_box):
        # each route refines the isolating intervals from scratch
        sympy.polys.rootoftools.ComplexRootOf.clear_cache()
        value = RootEnclosure(p, index)._crootof()
        boxes[route] = [route(value, bits) for bits in ladder]
    assert boxes[_eval_rational_box] == boxes[_crootof_box]


def test_repeated_roots_fall_back_to_crootof():
    # (x^2 + 1)^2 (x - 2)
    p = poly(1, 0, 1).pow(2) * poly(-2, 1)
    encl = assert_matches_crootof(p, complex_bits=16)
    assert all(e.disk is None for e in encl)
    assert len(real_entries(p)) == 1


def test_the_real_entries_of_the_fallback_need_no_factoring_and_no_crootof(monkeypatch):
    # (x^2 + 1)^2 (x - 2), which the engine cannot certify: its real root is
    # counted on the square-free parts, and is_real reads the CRootOf index
    p = poly(1, 0, 1).pow(2) * poly(-2, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("factored the polynomial or built a CRootOf")
    monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
    monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", refuse)
    monkeypatch.setattr(sympy.polys.rootoftools.ComplexRootOf, "__new__", refuse)
    encl = poly_root_enclosures(p)
    real = real_entries(p)
    assert [e.index for e in real] == [0]
    assert all(e.disk is None and e._expr is None for e in encl + real)


def test_a_modulus_on_the_grid_takes_the_crootof_cell():
    # the root 1/2 of (2x - 1)(x^2 - 2) has an engine box around 1/2, whose
    # sqrt cell would start one grid step lower than CRootOf's exact point
    p = poly(-1, 2) * poly(-2, 0, 1)
    half = poly_root_enclosures(p)[1]  # real roots ascending: -sqrt(2), 1/2, sqrt(2)
    assert half.disk is not None
    lo, hi = half.modsq(192)
    assert lo < Fraction(1, 4) < hi
    k = Fraction(1, 2 ** 64)
    assert cell(half) == cell(half.oracle()) == (Fraction(1, 2), Fraction(1, 2) + k)


def test_interval_sqrt_gives_the_64_bit_cell():
    k = Fraction(1, 2 ** 64)
    assert interval_sqrt(Fraction(4), Fraction(4)) == (Fraction(2), 2 + k)
    lo, hi = interval_sqrt(Fraction(2), Fraction(2))
    assert hi - lo == k and lo * lo < 2 < hi * hi


@pytest.mark.parametrize("coeffs, root", [
    ((-3, 1), Fraction(3)),          # x - 3
    ((25, 1), Fraction(-25)),        # x + 25
    ((-3, 2), Fraction(3, 2)),       # 2x - 3
])
def test_linear_roots_are_exact_points_without_crootof(coeffs, root):
    p = poly(*coeffs)
    for (e,) in (poly_root_enclosures(p), real_entries(p)):
        assert e.is_real and e.real_sign() == (1 if root > 0 else -1)
        o = e.oracle()
        for bits in (b for b in precision_ladder() if b <= 256):
            assert e.box(bits) == o.box(bits) == (root, root, 0, 0)
        assert cell(e) == cell(o)
        assert e._expr is None and o._expr is not None


@pytest.mark.parametrize("coeffs", [
    (-10 ** 600, 0, 1),     # x^2 - 10^600: the monic coefficients overflow
    (10 ** 400, 1, 1),      # x^2 + x + 10^400: non-real roots of modulus 10^200
    (-10 ** 300, 0, 1),     # x^2 - 10^300: the iteration overflows
    (-2 ** 1000, 0, 1),     # x^2 - 2^1000
])
def test_seeds_that_overflow_are_taken_from_a_rescaled_polynomial(coeffs):
    assert _certified_roots(poly(*coeffs)) is not None


def test_rescaled_seeds_enclose_the_exact_roots_on_every_rung():
    minus, plus = poly_root_enclosures(poly(-10 ** 600, 0, 1))
    for e, root in ((minus, -10 ** 300), (plus, 10 ** 300)):
        assert e.disk is not None
        for bits in precision_ladder():
            lo, hi, _, _ = e.box(bits)
            assert lo <= root <= hi and hi - lo <= Fraction(2, 1 << bits), bits
    lo, hi = poly_root_enclosures(poly(10 ** 400, 1, 1))[1].modsq(64)
    assert lo <= 10 ** 400 <= hi


def test_a_wide_first_disk_refines_on_a_finer_grid():
    # the first certified disk of sqrt(3 * 2^80 + 1) has radius above 2^-60;
    # refining it must not step to a grid coarser than the disk's own
    n = 3 * 2 ** 80 + 1
    root = poly_root_enclosures(poly(-n, 0, 1))[1]
    assert root.disk is not None
    for bits in precision_ladder():
        lo, hi, _, _ = root.box(bits)
        assert 0 < lo and lo * lo <= n <= hi * hi, bits
