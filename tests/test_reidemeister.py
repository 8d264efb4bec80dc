from fractions import Fraction
import random

import pytest
from draws import commuting_sections
from hypothesis import given, settings, strategies as st

from tdyn.errors import InputError
from tdyn.group_model import (
    NilpotentSystem,
    heisenberg,
    s_integer,
    section,
    z_pair,
    z_times_d,
)
from tdyn.reidemeister import (
    ReidemeisterSequence,
    coincidence_sequence,
    extend_sequence,
    is_infinite,
    nielsen_sequence,
    section_coincidence_number,
    section_coincidence_number_snf,
)


# ---------------------------------------------------------------- oracle

def s_integer_index_oracle(gen: Fraction, primes, span=40, depth=4):
    """Index of gen*Z_S in Z_S by explicit coset enumeration of a fragment.

    Membership x in gen*Z_S is tested from the definition: x/gen must have a
    denominator supported on S.  Classes are merged pairwise, so the count is
    exact once the fragment contains every coset.
    """
    base = 1
    for p in primes:
        base *= p
    elems = sorted({Fraction(m, base ** j)
                    for j in range(depth) for m in range(-span, span + 1)})

    def in_subgroup(x: Fraction) -> bool:
        if x == 0:
            return True
        d = (x / gen).denominator
        for p in primes:
            while d % p == 0:
                d //= p
        return d == 1

    parent = list(range(len(elems)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if in_subgroup(elems[i] - elems[j]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(len(elems))})


def test_oracle_sanity_plain_integers():
    assert s_integer_index_oracle(Fraction(5), (), span=20, depth=1) == 5


# ------------------------------------------------- section numbers

def test_doubling_map_n4():
    sec = z_times_d(2).sections[0]
    assert section_coincidence_number(sec, 4) == 15


def test_equal_pair_is_infinite():
    sec = z_pair(3, 3).sections[0]
    assert is_infinite(section_coincidence_number(sec, 1))


def test_s_integer_section_matches_coset_oracle():
    sec = s_integer(2, [2]).sections[0]
    value = section_coincidence_number(sec, 2)
    assert value == 3
    assert value == s_integer_index_oracle(Fraction(1 - 4), (2,))


def test_s_integer_half_matches_coset_oracle():
    sec = s_integer(Fraction(1, 2), [2]).sections[0]
    for n in (1, 2, 3):
        value = section_coincidence_number(sec, n)
        assert value == 2 ** n - 1
        assert value == s_integer_index_oracle(Fraction(1, 2) ** n - 1, (2,))


@st.composite
def integer_sections(draw):
    """A rank-d integer section, 1 <= d <= 6, with entries in [-4, 4]; psi is
    drawn freely, equal to phi, or sharing phi's zero last column, so that
    phi^n - psi^n is singular for every n in the last two kinds."""
    d = draw(st.integers(1, 6))
    square = st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d),
                      min_size=d, max_size=d)
    phi, psi = draw(square), draw(square)
    kind = draw(st.sampled_from(["free", "equal", "kernel"]))
    if kind == "equal":
        psi = phi
    elif kind == "kernel":
        for row in phi + psi:
            row[-1] = 0
    return section(d, phi, psi), kind


@settings(max_examples=150, deadline=None)
@given(integer_sections(), st.integers(1, 6))
def test_snf_and_det_paths_agree(drawn, n):
    sec, kind = drawn
    a = section_coincidence_number(sec, n)
    b = section_coincidence_number_snf(sec, n)
    if kind != "free":
        assert is_infinite(a)
    if is_infinite(a):
        assert is_infinite(b)
    else:
        assert a == b


@settings(max_examples=60, deadline=None)
@given(commuting_sections(max_rank=4, integer=True), st.integers(0, 4))
def test_commuting_sequence_matches_the_snf_route(sec, extra):
    # the Fraction route above never reaches the streams: 2^d terms or more
    # of psi = h(phi) read them off the exterior powers of the
    # commuting_form, or run the Bareiss loop when both sides are singular
    N = 2 ** sec.rank + extra
    seq = coincidence_sequence(NilpotentSystem(name="drawn", sections=(sec,)), N)
    assert list(seq.values) == [section_coincidence_number_snf(sec, n)
                                for n in range(1, N + 1)]


def test_snf_path_rejects_s_integer_sections():
    sec = s_integer(Fraction(1, 2), [2]).sections[0]
    with pytest.raises(InputError):
        section_coincidence_number_snf(sec, 1)


# ------------------------------------------------- sequences

def test_z_pair_2_1_sequence():
    seq = coincidence_sequence(z_pair(2, 1), 3)
    assert seq.values == (1, 3, 7)
    assert seq.kind == "reidemeister"


def test_heisenberg_unimodular_is_infinite():
    seq = coincidence_sequence(heisenberg([[2, 1], [1, 1]]), 2)
    assert is_infinite(seq.values[0]) and is_infinite(seq.values[1])


def test_z_times_minus_two():
    seq = coincidence_sequence(z_times_d(-2), 3)
    assert seq.values == (3, 3, 9)


def test_ordinary_reidemeister_reduction():
    for d in (2, 3, -2, 5):
        seq = coincidence_sequence(z_times_d(d), 8)
        assert list(seq.values) == [abs(d ** n - 1) for n in range(1, 9)]


def test_multiplicativity_over_sections():
    rng = random.Random(3)
    for _ in range(20):
        secs = []
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 2)
            phi = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            secs.append(section(d, phi))
        combined = NilpotentSystem(name="multi", sections=tuple(secs))
        whole = coincidence_sequence(combined, 4)
        parts = [coincidence_sequence(NilpotentSystem(name="part", sections=(s,)), 4)
                 for s in secs]
        for idx in range(4):
            vals = [p.values[idx] for p in parts]
            if any(is_infinite(v) for v in vals):
                assert is_infinite(whole.values[idx])
            else:
                prod = 1
                for v in vals:
                    prod *= v
                assert whole.values[idx] == prod


def test_finite_values_positive():
    seq = coincidence_sequence(s_integer(Fraction(1, 2), [2]), 6)
    assert all(isinstance(v, int) and v >= 1 for v in seq.values)


_DIAGONAL_S_PAIR = NilpotentSystem(name="diagonal_s_pair", sections=(section(
    2, [[Fraction(3, 2), 0], [0, 5]], [[2, 0], [0, Fraction(1, 3)]], primes=[2, 3]),))


@pytest.mark.parametrize("system, make", [
    (z_pair(2, -2), coincidence_sequence),  # infinite at even n
    (z_pair(2, -2), nielsen_sequence),
    (heisenberg([[2, 1], [1, 1]]), coincidence_sequence),
    (s_integer(Fraction(3, 2), [2, 3]), coincidence_sequence),
    (_DIAGONAL_S_PAIR, coincidence_sequence),  # psi neither 1 nor integral
])
def test_extend_sequence_continues_from_the_next_term(system, make):
    whole = make(system, 12)
    for k in (1, 5, 11, 12):
        head = ReidemeisterSequence(values=whole.values[:k], kind=whole.kind)
        assert extend_sequence(system, head, 12) == whole


# ------------------------------------------------- nielsen

def test_nielsen_matches_reidemeister_when_tame():
    seq = nielsen_sequence(z_pair(2, 1), 3)
    assert seq.values == (1, 3, 7)
    assert seq.kind == "nielsen"


def test_nielsen_zero_on_infinite():
    seq = nielsen_sequence(z_pair(2, -2), 4)
    assert seq.values == (4, 0, 16, 0)


def test_nielsen_identity_map():
    seq = nielsen_sequence(z_times_d(1), 2)
    assert seq.values == (0, 0)


def test_nielsen_rejects_s_integer():
    with pytest.raises(InputError):
        nielsen_sequence(s_integer(Fraction(1, 2), [2]), 3)


def test_sequence_validation():
    with pytest.raises(InputError):
        coincidence_sequence(z_times_d(2), 0)
