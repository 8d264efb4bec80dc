import json
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from tdyn.errors import InputError, UnsupportedPairingError
from tdyn.exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    RatMatrix,
    char_poly,
    mat_pow,
    poly_at_matrix,
    rat_kernel_basis,
)
from tdyn.group_model import (
    builtin_example,
    heisenberg,
    joint_blocks,
    s_integer,
    section,
    system_from_json,
    system_to_json,
    tameness_check,
    torus_matrix,
    validate,
    z_pair,
    z_times_d,
    NilpotentSystem,
)
from tdyn.growth import growth_rate
from tdyn.padic import padic_growth_factor


def test_validate_ok():
    assert validate(z_times_d(2)) == []


def test_validate_size_mismatch():
    bad = NilpotentSystem(name="bad", sections=(section(2, [[2]]),))
    msgs = validate(bad)
    assert any("size mismatch in section 1" in m for m in msgs)


def test_validate_denominator_outside_support():
    bad = NilpotentSystem(name="bad", sections=(section(1, [[Fraction(1, 2)]]),))
    msgs = validate(bad)
    assert any("denominator 2 outside prime support" in m for m in msgs)
    ok = s_integer(Fraction(1, 2), [2])
    assert validate(ok) == []


def test_validate_names_the_part_of_a_denominator_outside_the_support():
    def violations(d, primes):
        return validate(NilpotentSystem(name="d", sections=(
            section(1, [[Fraction(1, d)]], primes=primes),)))

    # one prime outside S, to any power: named as before
    assert violations(8, []) == [
        "denominator 2 outside prime support in section 1 (phi)"]
    assert violations(2 ** 3 * 3 ** 4, [2]) == [
        "denominator 3 outside prime support in section 1 (phi)"]
    assert violations(2 ** 3 * 3 ** 4, [2, 3]) == []
    # several primes outside S: one violation naming their product
    assert violations(2 * 3 * 5 * 7, [5]) == [
        "denominator 42 outside prime support in section 1 (phi)"]


def test_validate_factors_no_denominator(monkeypatch):
    # a 59-digit semiprime denominator took longer than any timeout when
    # validate factored it
    def no_factoring(*args, **kwargs):
        raise AssertionError("factorint called")

    monkeypatch.setattr(sympy, "factorint", no_factoring)
    p, q = sympy.nextprime(10 ** 29), sympy.nextprime(3 * 10 ** 29)
    assert validate(s_integer(Fraction(1, 4 * p * q), [2])) == [
        f"denominator {p * q} outside prime support in section 1 (phi)"]
    assert validate(s_integer(Fraction(5, 4 * p), [2, p])) == []


def test_validate_reads_no_perfect_power_of_a_denominator_inside_the_support(monkeypatch):
    # every integer entry has denominator 1, and a denominator whose primes
    # all lie in S leaves 1 after the gcd steps: neither needs perfect_power
    calls = []
    perfect_power = sympy.perfect_power
    monkeypatch.setattr(sympy, "perfect_power",
                        lambda n: calls.append(n) or perfect_power(n))
    assert validate(torus_matrix([[2, 1], [1, 1]])) == []
    assert validate(builtin_example("heisenberg:2,1,1,3")) == []
    assert validate(s_integer(Fraction(3, 2), [2])) == []
    assert validate(s_integer(Fraction(5, 12), [2, 3])) == []
    assert calls == []
    # an S-integer section with a prime outside S still reduces its power
    assert validate(s_integer(Fraction(1, 2 * 27), [2])) == [
        "denominator 3 outside prime support in section 1 (phi)"]
    assert calls == [27]


def test_validate_nonprime_support():
    bad = NilpotentSystem(name="bad", sections=(section(1, [[2]], primes=[6]),))
    assert any("not prime" in m for m in validate(bad))


def test_tameness_doubling_map():
    v = tameness_check(z_times_d(2))
    assert v.tame and v.witness_n is None


def test_tameness_identity_fails_at_one():
    v = tameness_check(z_times_d(1))
    assert not v.tame and v.witness_n == 1


def test_tameness_sign_pair_fails_at_two():
    # det((-2)^2 - 2^2) = 0
    v = tameness_check(z_pair(2, -2))
    assert not v.tame and v.witness_n == 2


def test_tameness_iff_d_not_root_of_unity():
    # |d^n - 1| > 0 for all n exactly when d is not a root of unity; for
    # integer d that excludes only +-1 (d = 0 gives the constant sequence 1).
    for d in range(-4, 5):
        v = tameness_check(z_times_d(d))
        assert v.tame == (d not in (-1, 1))


def test_phi_equals_psi_witness_one():
    sys_ = z_pair(3, 3)
    v = tameness_check(sys_)
    assert not v.tame and v.witness_n == 1


def test_builtin_catalog_validates():
    keys = ["z_times_d:3", "z_pair:2,1", "torus_matrix:2,1,1,1",
            "heisenberg:2,1,1,1", "s_integer:1/2,2"]
    for key in keys:
        assert validate(builtin_example(key)) == []


def test_builtin_values():
    s = builtin_example("z_times_d:3")
    assert s.sections[0].phi.get(0, 0) == 3
    assert s.sections[0].psi.is_identity()
    s = builtin_example("z_pair:2,1")
    assert s.sections[0].phi.get(0, 0) == 2
    assert s.sections[0].psi.get(0, 0) == 1
    s = builtin_example("heisenberg:2,1,1,1")
    assert s.sections[0].phi.row_lists() == [[2, 1], [1, 1]]
    assert s.sections[1].phi.get(0, 0) == 1  # det A
    s = builtin_example("s_integer:1/2,2")
    assert s.sections[0].phi.get(0, 0) == Fraction(1, 2)
    assert s.sections[0].prime_support == frozenset({2})


def test_builtin_unknown_key():
    with pytest.raises(InputError):
        builtin_example("nope:1")


def unitriangular(a, b, c):
    # [[1, a, c], [0, 1, b], [0, 0, 1]]
    return BigIntMatrix.from_rows([[1, a, c], [0, 1, b], [0, 0, 1]])


def _inv_unitriangular(m):
    a, b, c = m.get(0, 1), m.get(1, 2), m.get(0, 2)
    return unitriangular(-a, -b, a * b - c)


def test_heisenberg_center_multiplier_is_det():
    # Under phi(x) = x^a y^c, phi(y) = x^b y^d the commutator [phi(x), phi(y)]
    # equals z^(ad - bc) in the 3x3 unitriangular model.
    def gpow(m, k):
        return mat_pow(m, k) if k >= 0 else mat_pow(_inv_unitriangular(m), -k)

    for a, b, c, d in [(2, 1, 1, 1), (2, 0, 0, 3), (1, 2, 3, 4), (-1, 2, 0, 5)]:
        X = unitriangular(1, 0, 0)
        Y = unitriangular(0, 1, 0)
        fx = gpow(X, a).mul(gpow(Y, c))
        fy = gpow(X, b).mul(gpow(Y, d))
        comm = fx.mul(fy).mul(_inv_unitriangular(fx)).mul(_inv_unitriangular(fy))
        assert comm.get(0, 1) == 0 and comm.get(1, 2) == 0
        assert comm.get(0, 2) == a * d - b * c
        sys_ = heisenberg([[a, b], [c, d]])
        assert sys_.sections[1].phi.get(0, 0) == a * d - b * c


def test_json_roundtrip():
    doc = {
        "name": "demo",
        "sections": [
            {"rank": 2, "phi": [["2", "1"], ["1", "1"]],
             "psi": [["1", "0"], ["0", "1"]], "primes": [2, 3]},
        ],
    }
    sys_ = system_from_json(json.dumps(doc))
    assert sys_.name == "demo"
    assert sys_.sections[0].prime_support == frozenset({2, 3})
    again = system_from_json(json.dumps(system_to_json(sys_)))
    assert again.sections[0].phi == sys_.sections[0].phi
    assert again.sections[0].psi == sys_.sections[0].psi


def test_json_triangularizable_key_is_ignored():
    doc = {"name": "tri", "sections": [
        {"rank": 2, "phi": [["1", "1"], ["0", "2"]],
         "psi": [["3", "0"], ["1", "5"]], "triangularizable": False}]}
    sys_ = system_from_json(doc)
    assert system_from_json(system_to_json(sys_)) == sys_
    del doc["sections"][0]["triangularizable"]
    assert system_from_json(doc) == sys_


def test_json_rational_entries_and_defaults():
    doc = {"sections": [{"rank": 1, "phi": [["-1/2"]], "primes": [2]}]}
    sys_ = system_from_json(doc)
    assert sys_.sections[0].phi.get(0, 0) == Fraction(-1, 2)
    assert sys_.sections[0].psi.is_identity()


def test_json_errors():
    with pytest.raises(InputError):
        system_from_json({"sections": []})
    with pytest.raises(InputError):
        system_from_json({"sections": [{"rank": 1}]})
    with pytest.raises(InputError):
        system_from_json({"sections": [{"rank": 1, "phi": [["x"]]}]})


@pytest.mark.parametrize("token", ["1e10000000", "1E-9999999", "2e3", "-2.5E-3"])
def test_an_exponent_token_is_rejected_at_once(token):
    # Fraction would expand 1e10000000 into a ten-million-digit integer
    start = time.perf_counter()
    for key in (f"torus_matrix:{token}", f"z_pair:2,{token}", f"s_integer:{token},2"):
        with pytest.raises(InputError, match="exact rational"):
            builtin_example(key)
    with pytest.raises(InputError, match="section 1 phi: bad rational entry"):
        system_from_json({"sections": [{"rank": 1, "phi": [[token]]}]})
    assert time.perf_counter() - start < 1.0


def test_json_rationals_are_integers_fractions_and_plain_decimals():
    doc = {"sections": [{"rank": 2, "phi": [["-1/2", 3], [0.25, "1.5"]]}]}
    assert system_from_json(doc).sections[0].phi.row_lists() == [
        [Fraction(-1, 2), 3], [Fraction(1, 4), Fraction(3, 2)]]
    # a JSON number that Python prints with an exponent is rejected too
    with pytest.raises(InputError, match="1e\\+20"):
        system_from_json({"sections": [{"rank": 1, "phi": [[1e20]]}]})


def test_torus_matrix_builder():
    sys_ = torus_matrix([[2, 1], [1, 1]])
    assert sys_.sections[0].rank == 2
    assert tameness_check(sys_).tame


# ------------------------------------------------------------- joint blocks

def _poly_product(polys) -> IntPolynomial:
    acc = [1]
    for p in polys:
        out = [0] * (len(acc) + len(p.coeffs) - 1)
        for i, a in enumerate(acc):
            for j, b in enumerate(p.coeffs):
                out[i + j] += a * b
        acc = out
    return IntPolynomial.of(acc)


def _squarefree(p: IntPolynomial) -> bool:
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], x)
    return sympy.degree(sympy.gcd(poly, poly.diff())) == 0


@st.composite
def polynomial_pairs(draw):
    """A small integer matrix phi and psi = h(phi) for a small rational
    polynomial h, so that phi and psi commute."""
    d = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    phi = RatMatrix.from_rows([[draw(small) for _ in range(d)] for _ in range(d)])
    h = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=2),
                      min_size=1, max_size=3))
    # h(phi) = (2 h)(phi) / 2, with 2 h integral
    return phi, poly_at_matrix(IntPolynomial.of(2 * c for c in h), phi).scale(Fraction(1, 2))


@settings(max_examples=120, deadline=None)
@given(polynomial_pairs())
def test_joint_blocks_factor_both_characteristic_polynomials(pair):
    phi, psi = pair
    assume(_squarefree(char_poly(phi)))
    sec = section(phi.rows, phi, psi)
    if psi.is_scalar():
        # a scalar psi pairs every eigenvalue of phi with its scalar: one
        # whole-space block, though (x - s)^d is not square-free for d > 1
        assert joint_blocks(sec) == [(char_poly(phi), None, char_poly(psi))]
    elif not _squarefree(char_poly(psi)):
        with pytest.raises(UnsupportedPairingError):
            joint_blocks(sec)
        return
    blocks = joint_blocks(sec)
    assert _poly_product(f for f, _, _ in blocks) == char_poly(phi)
    assert _poly_product(g for _, _, g in blocks) == char_poly(psi)
    if psi.is_scalar():
        return
    for f, h, g in blocks:
        assert f.is_monic
        # h holds deg f ascending coefficients, so deg h < deg f
        assert len(h) == f.degree and all(isinstance(c, Fraction) for c in h)
        # psi v = sum_j h_j phi^j v on the whole block ker f(phi)
        for v in rat_kernel_basis(poly_at_matrix(f, phi)):
            column = RatMatrix(phi.rows, 1, v)
            image, acc = column, RatMatrix.from_rows([[0]] * phi.rows)
            for c in h:
                acc = acc.add(image.scale(c))
                image = phi.mul(image)
            assert psi.mul(column) == acc


def test_joint_blocks_jordan_pair_is_rejected():
    # phi and psi commute, but (x - 2)^2 and (x - 3)^2 are not square-free,
    # so no pairing is certified at any place
    sec = section(2, [[2, 1], [0, 2]], [[3, 1], [0, 3]], primes=[2])
    system = NilpotentSystem(name="jordan", sections=(sec,))
    assert tameness_check(system).tame
    for compute in (lambda: joint_blocks(sec), lambda: growth_rate(system),
                    lambda: padic_growth_factor(sec, 2)):
        with pytest.raises(UnsupportedPairingError, match="square-free"):
            compute()
