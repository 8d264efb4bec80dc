import math

import pytest
from hypothesis import given, settings, strategies as st

from tdyn.asymptotics import (
    classify_limit_points,
    dominant_spectrum,
    limit_points_sample,
)
from tdyn.exact_linalg import IntPolynomial
from tdyn.group_model import z_pair, z_times_d
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
