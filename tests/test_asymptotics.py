import math
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from tdyn import asymptotics
from tdyn.asymptotics import (
    _RealCandidate,
    classify_limit_points,
    dominant_spectrum,
    limit_points_sample,
)
from tdyn.enclosures import (
    box_conj,
    box_div,
    boxes_intersect,
    poly_root_enclosures,
    precision_ladder,
)
from tdyn.errors import InputError, PrecisionError
from tdyn.exact_linalg import IntPolynomial, exterior_power_polynomials
from tdyn.group_model import z_pair, z_times_d
from tdyn.polyalg import cyclotomic_order, factor_int, ratio_polynomial
from tdyn.reidemeister import coincidence_sequence, nielsen_sequence
from tdyn.zeta import ExponentialSum, zeta_from_sequence


def es_of(*pairs):
    return ExponentialSum(terms=tuple(
        (IntPolynomial.of(c), chi) for c, chi in pairs))


def test_dominant_spectrum_doubling():
    es = es_of(([-2, 1], 1), ([-1, 1], -1))  # 2^n - 1
    ds = dominant_spectrum(es)
    assert ds.lam == pytest.approx(2.0)
    assert ds.count == 1
    assert len(ds.dominant_terms) == 1
    assert ds.dominant_terms[0].poly == IntPolynomial.of([-2, 1])


def test_dominant_spectrum_trivial():
    ds = dominant_spectrum(es_of(([-1, 1], 1)))
    assert ds.lam == pytest.approx(1.0) and ds.count == 1


def test_dominant_spectrum_complex_pair():
    # roots 1 +- i of x^2 - 2x + 2: lambda = sqrt(2), both dominant
    ds = dominant_spectrum(es_of(([2, -2, 1], 1)))
    assert ds.lam == pytest.approx(math.sqrt(2))
    assert ds.count == 2
    assert len(ds.dominant_terms[0].root_indices) == 2


def test_dominant_spectrum_pm_two():
    # roots 2 and -2 from different factors: equal moduli, count 2
    ds = dominant_spectrum(es_of(([-2, 1], 1), ([2, 1], -1)))
    assert ds.lam == pytest.approx(2.0)
    assert ds.count == 2


def test_dominant_spectrum_mixed_real_and_complex():
    # 2 and +-2i all on the circle of radius 2
    ds = dominant_spectrum(es_of(([-2, 1], 1), ([4, 0, 1], 1)))
    assert ds.lam == pytest.approx(2.0)
    assert ds.count == 3


def test_dominant_spectrum_zero():
    ds = dominant_spectrum(ExponentialSum(terms=()))
    assert ds.lam == 0.0 and ds.count == 0


def test_dominant_lambda_agrees_with_root_test():
    seq = coincidence_sequence(z_times_d(2), 60)
    _, es = zeta_from_sequence(seq)
    ds = dominant_spectrum(es)
    empirical = math.exp(math.log(seq.values[-1]) / 60)
    assert abs(ds.lam - empirical) / ds.lam <= 1e-3


# ------------------------------------------------------------ classification

def test_classify_doubling_periodic_one():
    _, es = zeta_from_sequence([2 ** n - 1 for n in range(1, 13)])
    ds = dominant_spectrum(es)
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 1
    samples = limit_points_sample([2 ** n - 1 for n in range(1, 21)], ds, 20)
    assert samples[-1] == pytest.approx(1.0, abs=1e-5)


def test_classify_nielsen_pair_periodic_two():
    seq = nielsen_sequence(z_pair(2, -2), 12)
    _, es = zeta_from_sequence(seq)
    ds = dominant_spectrum(es)
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 2
    samples = limit_points_sample(seq, ds, 12)
    assert samples[0] == pytest.approx(2.0)
    assert samples[1] == pytest.approx(0.0)
    assert samples[10] == pytest.approx(2.0, abs=1e-3)


def test_classify_rational_angle_twelfth():
    # x^2 - 3x + 3: modulus sqrt(3), angle 1/12 of a turn: period 12
    ds = dominant_spectrum(es_of(([3, -3, 1], 1)))
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 12


def test_classify_interval_for_2_plus_i():
    # roots 2 +- i: angle arctan(1/2)/2pi is irrational (ratio (3+4i)/5 is not
    # a root of unity: its minimal polynomial 5x^2 - 6x + 5 is not monic)
    ds = dominant_spectrum(es_of(([5, -4, 1], 1)))
    c = classify_limit_points(ds)
    assert c.kind == "interval"


def test_classify_gaussian_angle_quarter():
    # roots +-2i: angle 1/4: period 4
    ds = dominant_spectrum(es_of(([4, 0, 1], 1)))
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 4


def test_classify_sixth_root_angle():
    # x^2 - x + 1: primitive 6th roots of unity, lambda = 1: period 6
    ds = dominant_spectrum(es_of(([1, -1, 1], 1)))
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 6


def test_classify_third_root_angle():
    # x^2 + x + 1: primitive cube roots: odd order resolved by the sign test
    ds = dominant_spectrum(es_of(([1, 1, 1], 1)))
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 3


def test_classify_negative_real_dominant():
    ds = dominant_spectrum(es_of(([3, 1], 1)))  # root -3
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 2


def test_classify_mixed_real_and_gaussian():
    ds = dominant_spectrum(es_of(([-2, 1], 1), ([4, 0, 1], 1)))
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 4  # lcm(1, 4)


def test_classify_all_zero_nielsen():
    seq = nielsen_sequence(z_times_d(1), 6)
    _, es = zeta_from_sequence(seq)
    ds = dominant_spectrum(es)
    c = classify_limit_points(ds)
    assert ds.lam == 0.0
    assert c.kind == "periodic" and c.period == 1
    assert limit_points_sample(seq, ds, 6) == [0.0] * 6


def test_periodic_samples_converge_along_residues():
    seq = nielsen_sequence(z_pair(2, -2), 40)
    _, es = zeta_from_sequence(seq)
    ds = dominant_spectrum(es)
    c = classify_limit_points(ds)
    samples = limit_points_sample(seq, ds, 40)
    q = c.period
    for r in range(q):
        tail = [samples[i] for i in range(r, 40, q)][-4:]
        assert max(tail) - min(tail) < 1e-6


def test_classify_two_dominant_pairs_in_one_quartic():
    # x^4 + x^3 + x^2 + x + 1: all four roots are primitive 5th roots of
    # unity; both conjugate pairs have odd ratio order 5, resolved to period
    # 5 by the sign test (root^5 = 1 > 0)
    ds = dominant_spectrum(es_of(([1, 1, 1, 1, 1], 1)))
    assert ds.lam == pytest.approx(1.0)
    assert ds.count == 4
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 5


def test_dominant_roots_are_listed_by_crootof_index():
    # x^4 + 2: two pairs, every root dominant; the indices are CRootOf's,
    # and the enclosures come in the same order
    term = dominant_spectrum(es_of(([2, 0, 0, 0, 1], 1))).dominant_terms[0]
    assert term.root_indices == (0, 1, 2, 3)
    assert tuple(e.index for e in term.roots) == term.root_indices


def test_a_term_with_a_repeated_root_is_rejected_at_once():
    # (x^2 + x + 1)(x^2 - 3x + 3)^2: the product polynomial counts each double
    # root four times against its two enclosures, and refining CRootOf boxes
    # to the precision ceiling took more than a minute before it raised
    term = IntPolynomial.of([1, 1, 1]) * IntPolynomial.of([3, -3, 1]).pow(2)
    start = time.perf_counter()
    with pytest.raises(InputError, match="repeated root"):
        dominant_spectrum(es_of((term.coeffs, 1), ([-2, 1], -1)))
    assert time.perf_counter() - start < 2


def test_the_input_errors_of_dominant_spectrum_keep_their_text():
    # a repeated root is named before anything is enclosed; a*x, which
    # ExponentialSum itself refuses, is the one square-free term with no
    # positive |root|^2 candidate
    term = IntPolynomial.of([-2, 1]).pow(2)
    with pytest.raises(InputError) as exc:
        dominant_spectrum(es_of(([-3, 1], 1), (term.coeffs, 1)))
    assert str(exc.value) == "exponential-sum polynomial (4, -4, 1) has a repeated root"
    degenerate = SimpleNamespace(terms=((IntPolynomial.of([-3, 1]), 1),
                                        (IntPolynomial.of([0, 3]), -1)))
    with pytest.raises(InputError) as exc:
        dominant_spectrum(degenerate)
    assert str(exc.value) == ("no positive real candidate for |root|^2 of (0, 3); "
                              "exponential-sum polynomial is degenerate")


def test_classify_mixed_real_and_complex_same_modulus():
    # roots 2 and -1 +- i*sqrt(3): all of modulus 2, periods 1 and 3
    ds = dominant_spectrum(es_of(([-2, 1], 1), ([4, 2, 1], 1)))
    assert ds.lam == pytest.approx(2.0)
    assert ds.count == 3
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 3
    # sanity: the actual sequence 2^n + two conjugate powers is 3*2^n when
    # 3 | n and a bounded multiple of 2^n otherwise, with period 3 pattern
    vals = es_of(([-2, 1], 1), ([4, 2, 1], 1)).values(12)
    samples = [v / 2.0 ** n for n, v in enumerate(vals, start=1)]
    assert samples[2] == pytest.approx(3.0)
    assert samples[5] == pytest.approx(3.0)
    assert samples[0] == pytest.approx(samples[3])


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(-9, 9).filter(bool),
                       st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
def test_classify_random_real_base_sums(bases):
    # sum chi_b * b^n over distinct integers b: every root is the exact
    # point of a linear factor, on the same enclosure path as any other root
    lam = max(abs(b) for b in bases)
    ds = dominant_spectrum(es_of(*[([-b, 1], chi) for b, chi in bases.items()]))
    assert ds.lam == pytest.approx(float(lam))
    assert ds.lam_bounds[0] <= lam <= ds.lam_bounds[1]
    assert ds.count == sum(1 for b in bases if abs(b) == lam)
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == (2 if -lam in bases else 1)


def test_rotation_matrix_nielsen_pipeline():
    # quarter-turn on Z^2: Nielsen values 2, 4, 2, 0 repeating; dominant
    # roots 1 and +-i all on the unit circle, period lcm(1, 4) = 4
    from tdyn.group_model import torus_matrix
    sys_ = torus_matrix([[0, -1], [1, 0]])
    seq = nielsen_sequence(sys_, 16)
    assert list(seq.values) == [2, 4, 2, 0] * 4
    _, es = zeta_from_sequence(seq)
    ds = dominant_spectrum(es)
    assert ds.lam == pytest.approx(1.0)
    assert ds.count == 3
    c = classify_limit_points(ds)
    assert c.kind == "periodic" and c.period == 4
    samples = limit_points_sample(seq, ds, 16)
    assert samples == [2.0, 4.0, 2.0, 0.0] * 4


def test_periodic_claims_verified_algebraically():
    # exact side of the periodic classification: for a quadratic factor with
    # complex roots, root**q is real positive iff x**q mod minpoly is a
    # positive constant (the root is non-real, so a linear remainder would
    # have nonzero imaginary part)
    import sympy
    x = sympy.Symbol("x")

    def power_is_positive_rational(coeffs, q):
        poly = sum(c * x ** i for i, c in enumerate(coeffs))
        rem = sympy.rem(x ** q, poly, x)
        p = sympy.Poly(rem, x)
        return p.degree() <= 0 and p.coeff_monomial(1) > 0

    fixtures = [([3, -3, 1], 12), ([4, 0, 1], 4), ([1, -1, 1], 6),
                ([1, 1, 1], 3), ([2, -2, 1], 8), ([5, -4, 1], None)]
    for coeffs, expected_q in fixtures:
        ds = dominant_spectrum(es_of((coeffs, 1)))
        c = classify_limit_points(ds)
        if expected_q is None:
            assert c.kind == "interval"
            # no q up to a generous bound makes the power real positive
            assert not any(power_is_positive_rational(coeffs, q)
                           for q in range(1, 65))
        else:
            assert c.kind == "periodic" and c.period == expected_q
            assert power_is_positive_rational(coeffs, expected_q)
            # and the reported period is minimal among divisors
            for q in range(1, expected_q):
                if expected_q % q == 0:
                    assert not power_is_positive_rational(coeffs, q)


# ------------------------------------------------ the factoring route as oracle

def _factoring_candidates(polys):
    """Positive real roots of each product polynomial, keyed by irreducible
    factor and index, with the factor's multiplicity (the route before the
    coprime base)."""
    out = []
    for p in polys:
        cands = []
        for g, mult in factor_int(p)[1]:
            for idx, e in enumerate(poly_root_enclosures(g)):
                if e.is_real and e.real_sign() > 0:
                    cands.append(_RealCandidate((tuple(g.coeffs), idx), mult, e))
        out.append(cands)
    return out


def _factoring_ratio_order(poly, root):
    """The conjugate ratio placed among the roots of the irreducible factors
    of the ratio polynomial (the route before exact division)."""
    factor_roots = [(g, root) for g, _ in factor_int(ratio_polynomial(poly))[1]
                    for root in poly_root_enclosures(g)]
    for bits in precision_ladder():
        b = root.box(bits)
        rb = box_div(b, box_conj(b))
        alive = [g for g, root in factor_roots if boxes_intersect(root.box(bits), rb)]
        if len(alive) == 1:
            return cyclotomic_order(alive[0])
    raise PrecisionError("oracle could not place the conjugate ratio")


def _coprime_route(es):
    """dominant_spectrum through the product polynomials of every term, with
    no separation first (the route before it)."""
    encls = [poly_root_enclosures(poly) for poly, _ in es.terms]
    return asymptotics._coprime_spectrum(list(es.terms), encls)


def _spectrum_and_class(spectrum, es):
    try:
        ds = spectrum(es)
    except PrecisionError as exc:
        return "precision", str(exc)
    return ds, classify_limit_points(ds)


# distinct irreducible monic factors with a nonzero constant term, so
# pairwise coprime: rational roots, real and non-real quadratic pairs,
# cyclotomic factors, and ties of the top modulus: v(x) with v(-x), even
# factors (r with -r: x^2 - 2, x^2 + 4), and a real root of the modulus of a
# pair, within a factor (x^3 - 2) and across factors (x - 2 with x^2 + 2x + 4)
_FACTOR_POOL = [IntPolynomial.of(c) for c in (
    [-2, 1], [2, 1], [-3, 1], [1, 1], [-1, 1], [-1, -1, 1], [2, -2, 1],
    [4, 0, 1], [1, 1, 1], [3, -3, 1], [5, -4, 1], [-2, 0, 1], [-1, -3, 1],
    [1, -1, 1], [3, 3, 1], [5, 4, 1], [4, 2, 1], [-2, 0, 0, 1])]


def _mirror(poly):
    """The monic polynomial whose roots are those of poly negated."""
    sign = (-1) ** poly.degree
    return IntPolynomial.of([sign * (-1) ** i * c for i, c in enumerate(poly.coeffs)])


@st.composite
def shared_root_sums(draw):
    """Exponential sums of 1-4 distinct terms, each a product of 1-3
    distinct factors from one small pool: reducible square-free terms, and
    roots shared across terms; sometimes the mirror v(-x) of the first term
    too.  A term with a repeated root is left out: its roots never reach the
    dominant count, and both routes refine to the precision ceiling."""
    pool = draw(st.lists(st.sampled_from(_FACTOR_POOL), min_size=1, max_size=4,
                         unique=True))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        poly = IntPolynomial.of([1])
        for f in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3,
                               unique=True)):
            poly = poly * f
        terms[poly] = draw(st.integers(-3, 3).filter(bool))
    if draw(st.booleans()):
        terms[_mirror(next(iter(terms)))] = draw(st.integers(-3, 3).filter(bool))
    return ExponentialSum(terms=tuple(terms.items()))


@settings(max_examples=150, deadline=None)
@given(shared_root_sums())
def test_dominant_spectrum_matches_the_factoring_route(es):
    # separation first against the coprime base of every term's product
    # polynomial, and that against the factoring route, which also places
    # the conjugate ratio among the irreducible factors
    got = _spectrum_and_class(dominant_spectrum, es)
    assert got == _spectrum_and_class(_coprime_route, es)
    saved = (asymptotics._positive_real_candidates, asymptotics._conjugate_ratio_order)
    asymptotics._positive_real_candidates = _factoring_candidates
    asymptotics._conjugate_ratio_order = _factoring_ratio_order
    try:
        expected = _spectrum_and_class(_coprime_route, es)
    finally:
        asymptotics._positive_real_candidates, asymptotics._conjugate_ratio_order = saved
    assert got == expected


def test_conjugate_ratio_of_the_x6_minus_x_minus_1_wedge2_term_divides_only():
    # the degree-15 wedge^2 term of the companion of x^6 - x - 1 has a ratio
    # polynomial of degree 210, whose factorization took 121 s; no cyclotomic
    # polynomial divides it, so no dominant-type angle of the term is rational
    w2 = exterior_power_polynomials(IntPolynomial.of([-1, -1, 0, 0, 0, 0, 1]))[2]
    assert w2.degree == 15
    encl = poly_root_enclosures(w2)
    idx = next(i for i, e in enumerate(encl) if not e.is_real)
    assert asymptotics._conjugate_ratio_order(w2, encl[idx]) is None
