import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from tdyn.errors import (
    HypothesisViolatedError,
    InputError,
    NotTameError,
    RootOfUnityError,
    UnsupportedPairingError,
)
from tdyn.group_model import (
    NilpotentSystem,
    joint_blocks,
    heisenberg,
    s_integer,
    section,
    tameness_check,
    torus_matrix,
    z_pair,
    z_times_d,
)
from tdyn import growth, padic
from tdyn.growth import (
    AlgebraicLog,
    PadicLog,
    entropy_dual_torus,
    growth_rate,
    verify_entropy_identity,
)


def spectral_radius_oracle(rows):
    """Largest |eigenvalue| via sympy's numeric roots (float oracle)."""
    m = sympy.Matrix(rows)
    return max(abs(complex(v)) for v in m.eigenvals(multiple=True))


def test_growth_z_times_d_exact():
    for d in (2, 3, -2, 5, 10):
        rep = growth_rate(z_times_d(d), N=20)
        assert rep.exact_value == abs(d)
        assert rep.numeric == pytest.approx(abs(d), rel=1e-12)
        assert rep.agreement < 0.05


def test_growth_z_pair():
    rep = growth_rate(z_pair(2, 1), N=20)
    assert rep.exact_value == 2
    rep = growth_rate(z_pair(3, -1), N=20)
    assert rep.exact_value == 3
    rep = growth_rate(z_pair(-2, 3), N=20)
    assert rep.exact_value == 3


def test_growth_cat_map_golden():
    rep = growth_rate(torus_matrix([[2, 1], [1, 1]]), N=40)
    golden = (3 + math.sqrt(5)) / 2
    assert rep.exact_value is None
    assert rep.numeric == pytest.approx(golden, rel=1e-12)
    assert rep.numeric == pytest.approx(spectral_radius_oracle([[2, 1], [1, 1]]),
                                        rel=1e-9)
    # empirical R_40^(1/40) within 5e-2 of the closed form
    assert rep.agreement < 5e-2
    assert any(isinstance(t, AlgebraicLog) for t in rep.log_terms)


def test_growth_heisenberg_diag():
    rep = growth_rate(heisenberg([[2, 0], [0, 3]]), N=12)
    assert rep.exact_value == 36  # 2 * 3 * 6


def test_growth_s_integer_half():
    rep = growth_rate(s_integer(Fraction(1, 2), [2]), N=20)
    assert rep.exact_value == 2
    assert rep.archimedean == pytest.approx(1.0)
    assert rep.padic == pytest.approx(2.0)
    assert any(isinstance(t, PadicLog) and t.prime == 2 and t.exponent == 1
               for t in rep.log_terms)


def test_growth_s_integer_mixed_places():
    # phi = 2x, psi = 4x on Z[1/2]: R_n = 2^n - 1, growth 2 = 4 * (1/2)
    sys_ = NilpotentSystem(
        name="pair24", sections=(section(1, [[2]], [[4]], primes=[2]),))
    rep = growth_rate(sys_, N=16)
    assert rep.exact_value == 2
    assert rep.archimedean == pytest.approx(4.0)
    assert rep.padic == pytest.approx(0.5)


def test_growth_not_tame_rejected():
    with pytest.raises(NotTameError):
        growth_rate(z_pair(2, -2))
    with pytest.raises(NotTameError):
        growth_rate(z_times_d(1))


def test_growth_hypothesis_violation():
    # complex pair with |xi| = 2 exactly, psi = 2*id: tame but |xi| = |eta|
    sys_ = NilpotentSystem(
        name="salem-ish",
        sections=(section(2, [[3, -4], [1, 0]], [[2, 0], [0, 2]]),))
    # char poly x^2 - 3x + 4 has |roots|^2 = 4
    assert sympy.Poly(sympy.Symbol("x") ** 2 - 3 * sympy.Symbol("x") + 4).is_irreducible
    with pytest.raises(HypothesisViolatedError):
        growth_rate(sys_)


def test_growth_noncommuting_rejected():
    sys_ = NilpotentSystem(
        name="nc", sections=(section(2, [[1, 1], [0, 2]], [[3, 0], [1, 5]]),))
    with pytest.raises(UnsupportedPairingError):
        growth_rate(sys_)


def test_growth_commuting_blocks():
    # phi = diag(2, 3), psi = diag(5, 1): pairs (2,5), (3,1) -> growth 15
    sys_ = NilpotentSystem(
        name="diag", sections=(section(2, [[2, 0], [0, 3]], [[5, 0], [0, 1]]),))
    rep = growth_rate(sys_, N=16)
    assert rep.exact_value == 15


def _valuation(x: Fraction, p: int) -> int:
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


@st.composite
def tame_diagonal_pairs(draw):
    """(a, b, S): phi = diag(a), psi = diag(b) of rank 1-3 with |a_i| !=
    |b_i| (tame), integral or with denominators in S = {2, 3}.  b is
    distinct and a distinct or constant: square-free characteristic
    polynomials for the joint blocks, or a scalar phi."""
    primes = draw(st.sampled_from([(), (2, 3)]))
    exps = st.integers(0, 2) if primes else st.just(0)
    entry = st.builds(lambda n, i, j: Fraction(n, 2 ** i * 3 ** j),
                      st.integers(-9, 9).filter(bool), exps, exps)
    rank = draw(st.integers(1, 3))
    a = draw(st.lists(entry, min_size=rank, max_size=rank, unique=True))
    b = draw(st.lists(entry, min_size=rank, max_size=rank, unique=True))
    if draw(st.booleans()):
        a = [a[0]] * rank
    assume(all(abs(x) != abs(y) for x, y in zip(a, b)))
    return a, b, primes


@settings(max_examples=60, deadline=None)
@given(tame_diagonal_pairs())
def test_growth_of_diagonal_pairs_matches_the_closed_form(pair):
    # every eigenvalue is rational, so each pairing goes through the exact
    # point enclosure of a linear factor; the oracle is the closed form
    a, b, primes = pair
    rank = len(a)

    def diag(v):
        return [[v[i] if i == j else 0 for j in range(rank)] for i in range(rank)]

    sys_ = NilpotentSystem(name="diag", sections=(
        section(rank, diag(a), diag(b), primes=primes),))
    expected = Fraction(1)
    for x, y in zip(a, b):
        expected *= max(abs(x), abs(y))
        for p in primes:
            expected *= Fraction(p) ** -min(_valuation(x, p), _valuation(y, p))
    assert growth_rate(sys_, N=6).exact_value == expected


def test_growth_derives_joint_blocks_once(monkeypatch):
    # the archimedean and the 2-adic pairing share one joint-block decomposition
    calls = []

    def counted(sec):
        calls.append(sec)
        return joint_blocks(sec)

    monkeypatch.setattr(growth, "joint_blocks", counted)
    monkeypatch.setattr(padic, "joint_blocks", counted)
    sys_ = NilpotentSystem(name="diag-s", sections=(
        section(2, [[Fraction(1, 2), 0], [0, 3]], [[2, 0], [0, 5]], primes=[2]),))
    rep = growth_rate(sys_, N=16)
    assert len(calls) == 1
    assert rep.numeric == 20.0


def test_growth_of_a_scalar_section_builds_each_characteristic_polynomial_once(
        char_poly_calls):
    # one joint block serves the archimedean place and both primes: char phi
    # and char psi once each, not again per prime; the third is the tameness
    # check's char B of phi = B/6, whose cyclotomic factors decide it
    sys_ = NilpotentSystem(name="s-integer", sections=(
        section(2, [[Fraction(1, 6), 1], [0, 5]], primes=[2, 3]),))
    rep = growth_rate(sys_, N=8)
    assert len(char_poly_calls) == 3
    assert char_poly_calls[0] == sys_.sections[0].phi.scaled_integer()[0]
    # eigenvalues 1/6 and 5 against 1: |5| times |1/6|_2 = 2 and |1/6|_3 = 3
    assert rep.exact_value == 30


def test_a_tie_with_the_partner_of_a_commuting_pair_is_a_violation():
    # phi has the roots 1 +- 2i and psi = 2I - phi pairs them with 1 -+ 2i,
    # of the same modulus sqrt 5: the commuting pair's violation message
    phi = [[0, -5], [1, 2]]
    psi = [[2, 5], [-1, 0]]  # 2I - phi
    sys_ = NilpotentSystem(name="tie", sections=(section(2, phi, psi),))
    assert tameness_check(sys_).tame
    with pytest.raises(HypothesisViolatedError) as info:
        growth_rate(sys_, N=8)
    assert str(info.value) == "paired eigenvalue moduli are indistinguishable"


def test_growth_commuting_irrational_blocks():
    # phi = companion(x^2 - 2), psi = phi + 3I: commuting, pairing eta = xi + 3
    phi = [[0, 2], [1, 0]]
    psi = [[3, 2], [1, 3]]
    sys_ = NilpotentSystem(name="shift", sections=(section(2, phi, psi),))
    rep = growth_rate(sys_, N=24)
    expected = (3 + math.sqrt(2)) * (3 - math.sqrt(2))  # both eta win: |7|
    assert rep.exact_value == 7
    assert rep.numeric == pytest.approx(expected, rel=1e-9)


def test_growth_mixed_inside_outside_with_scalar_partner():
    # phi has roots 3 +- sqrt(5) (moduli ~5.24 and ~0.76), psi = 2*id:
    # one pair contributes |xi|, the other contributes |2|
    phi = [[6, -4], [1, 0]]  # companion of x^2 - 6x + 4
    psi = [[2, 0], [0, 2]]
    sys_ = NilpotentSystem(name="mixed", sections=(section(2, phi, psi),))
    rep = growth_rate(sys_, N=30)
    assert rep.exact_value is None
    assert rep.numeric == pytest.approx((3 + math.sqrt(5)) * 2, rel=1e-9)
    kinds = {type(t).__name__ for t in rep.log_terms}
    assert kinds == {"AlgebraicLog", "RationalLog"}
    assert rep.agreement < 5e-2


def test_growth_closed_form_at_least_one():
    for sys_ in (z_times_d(2), z_pair(2, 1), torus_matrix([[2, 1], [1, 1]]),
                 s_integer(Fraction(1, 2), [2])):
        assert growth_rate(sys_, N=10).numeric >= 1 - 1e-12


def test_empirical_monotone_convergence():
    rep = growth_rate(z_times_d(3), N=40)
    logs = [abs(math.log(e) - math.log(3.0)) for e in rep.empirical]
    assert logs[-1] <= 1.0 / 40  # C/n with C = 1 works for |d^n - 1|
    assert all(a >= b - 1e-12 for a, b in zip(logs, logs[1:]))


# ------------------------------------------------------------- entropy

def test_entropy_scalar_maps():
    for m in range(2, 11):
        assert entropy_dual_torus([[m]]) == pytest.approx(math.log(m), abs=1e-12)
        assert entropy_dual_torus([[-m]]) == pytest.approx(math.log(m), abs=1e-12)


def test_entropy_identity_matrix_rejected():
    with pytest.raises(RootOfUnityError):
        entropy_dual_torus([[1, 0], [0, 1]])
    with pytest.raises(RootOfUnityError):
        entropy_dual_torus([[0, -1], [1, 0]])  # x^2 + 1 is cyclotomic


def test_entropy_cat_map():
    golden = math.log((3 + math.sqrt(5)) / 2)
    assert entropy_dual_torus([[2, 1], [1, 1]]) == pytest.approx(golden, abs=1e-12)


def test_entropy_hyperbolic_full_factor():
    # both roots of x^2 - 3x + 1... one inside: handled above; here all outside:
    # x^2 - 5x + 6 = (x-2)(x-3): entropy log 6
    assert entropy_dual_torus([[5, -6], [1, 0]]) == pytest.approx(math.log(6),
                                                                  abs=1e-12)


def test_entropy_on_the_unit_circle_builds_no_crootof(monkeypatch):
    # Lehmer's polynomial: 8 roots with |xi| = 1 that are not roots of unity,
    # so the modulus comparison with 1 fails and each |xi| is read from its
    # own 64-bit cell; CRootOf's complex bisection took minutes here
    from tdyn.enclosures import RootEnclosure, poly_root_enclosures
    from tdyn.exact_linalg import IntPolynomial, companion_matrix

    def no_crootof(self):
        raise AssertionError("CRootOf built")

    monkeypatch.setattr(RootEnclosure, "_crootof", no_crootof)
    # the fallback reuses the enclosures that the modulus comparison used
    isolated = []

    def counting(p):
        isolated.append(p.coeffs)
        return poly_root_enclosures(p)

    monkeypatch.setattr(growth, "poly_root_enclosures", counting)
    lehmer = IntPolynomial.of([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
    assert entropy_dual_torus(companion_matrix(lehmer)) == 0.1623576120077388
    assert isolated == [lehmer.coeffs]


def test_entropy_identity_z_times_d():
    for m in range(2, 11):
        gap = verify_entropy_identity(z_times_d(m))
        assert gap <= 1e-9


def test_entropy_identity_heisenberg():
    gap = verify_entropy_identity(heisenberg([[2, 0], [0, 3]]), N=12)
    assert gap <= 1e-9


def test_entropy_identity_cat_map():
    gap = verify_entropy_identity(torus_matrix([[2, 1], [1, 1]]), N=12)
    assert gap <= 1e-9


def test_entropy_identity_requires_psi_identity():
    with pytest.raises(InputError):
        verify_entropy_identity(z_pair(2, 3))


def test_entropy_identity_requires_finitely_generated():
    with pytest.raises(InputError):
        verify_entropy_identity(s_integer(Fraction(1, 2), [2]))
