import random
import time

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tdyn.congruence import (
    _mobius_report,
    _mobius_table,
    dold_check_realization,
    euler_check,
    gauss_check,
    gauss_checks,
    mobius,
)
from tdyn.errors import InfiniteValueError, InputError
from tdyn.exact_linalg import BigIntMatrix
from tdyn.group_model import z_pair, z_times_d
from tdyn.polyalg import factorization, mobius_divisors
from tdyn.reidemeister import INFINITY, coincidence_sequence, nielsen_sequence
from tdyn.zeta import BouquetRealization


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def _mu_oracle(m: int) -> int:
    exponents = sympy.factorint(m).values()
    return 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)


def test_mobius_report_matches_the_divisor_sum():
    # polyalg.mobius_divisors, the subsets of the distinct primes of n,
    # against every divisor d of n with mu(n / d) from sympy's factorization
    # (oracle), and the report's sum over its pairs against the full sum;
    # first the order the report reads a(d) in, which decides the first
    # infinite value it meets
    assert mobius_divisors(30) == [(1, 30), (-1, 15), (-1, 10), (1, 5),
                                   (-1, 6), (1, 3), (1, 2), (-1, 1)]
    rng = random.Random(13)
    values = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(601)]
    for n in range(1, 601):
        pairs = [(_mu_oracle(n // d), d) for d in range(1, n + 1) if n % d == 0]
        assert sorted(mobius_divisors(n), key=lambda t: t[1]) == [
            (mu, d) for mu, d in pairs if mu], n
        direct = sum(mu * values[d] for mu, d in pairs)
        report = _mobius_report(n, values.__getitem__)
        assert report.combination == direct, n
        assert report.residue == direct % n


def test_mobius_sieve_matches_mobius():
    assert _mobius_table(0) == [0]
    assert _mobius_table(1000) == [0] + [mobius(n) for n in range(1, 1001)]


def _loop(seq, moduli):
    """The single-modulus loop gauss_checks replaces: its reports, or the
    class and text of its first error."""
    try:
        return [gauss_check(seq, n) for n in moduli]
    except (InputError, InfiniteValueError) as e:
        return type(e), str(e)


def _sieve(seq, moduli):
    try:
        return gauss_checks(seq, moduli)
    except (InputError, InfiniteValueError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("system", [z_times_d(2), z_pair(2, 1), z_pair(3, -2),
                                    z_pair(2, -2), z_pair(-2, 2), z_pair(3, -3)],
                         ids=lambda s: s.name)
def test_the_sieve_gives_the_reports_of_the_single_modulus_loop(system):
    # Reidemeister sequences with INFINITY entries and Nielsen ones with
    # zeros, on unsorted and repeated moduli, and on moduli the loop
    # refuses: below 1, past the sequence (10^5000 too) and with an infinite
    # a_d at some d with mu(n/d) != 0; where the loop raises, the sieve
    # raises its first error
    rng = random.Random(system.name)
    for seq in (coincidence_sequence(system, 60), nielsen_sequence(system, 60)):
        assert _sieve(seq, range(1, 61)) == _loop(seq, range(1, 61))
        for _ in range(40):
            moduli = [rng.randint(1, 60) for _ in range(rng.randint(0, 12))]
            moduli += rng.sample(moduli, len(moduli) // 3)
            rng.shuffle(moduli)
            assert _sieve(seq, moduli) == _loop(seq, moduli), moduli
            bad = moduli + [rng.choice((0, -3, 61, 10 ** 5000))]
            rng.shuffle(bad)
            assert _sieve(seq, bad) == _loop(seq, bad), bad
    assert gauss_checks(seq, []) == []


def test_the_sieve_raises_at_the_first_refused_modulus():
    seq = coincidence_sequence(z_pair(2, -2), 12)  # infinite at even n
    assert seq.values[1] is INFINITY
    for moduli, error, text in [
            ([3, 4, 0], InfiniteValueError, "R at iterate 4 is infinite"),
            ([3, 0, 4], InputError, "modulus must be >= 1"),
            ([5, 10 ** 5000, 2], InputError, "fewer than the modulus n"),
            ([9, 3, 1, 6], InfiniteValueError, "R at iterate 6 is infinite")]:
        with pytest.raises(error, match=text):
            gauss_checks(seq, moduli)
    # a modulus whose infinite divisors all have mu(n/d) = 0 passes: 9 reads
    # a_9 and a_3 only
    assert [r.n for r in gauss_checks(seq, [9, 3, 1])] == [9, 3, 1]


def test_a_modulus_too_large_to_print_fails_the_sieve_at_once():
    seq = coincidence_sequence(z_times_d(2), 10)
    start = time.perf_counter()
    with pytest.raises(InputError, match="fewer than the modulus"):
        gauss_checks(seq, [3, 10 ** 5000])
    assert time.perf_counter() - start < 1


def test_trial_division_factors_as_sympy_does():
    for n in list(range(1, 20_001)) + [2**40 - 87, 2**40 + 15, 2**61 - 1, 10**30 + 57]:
        assert factorization(n) == sympy.factorint(n), n


def test_mobius_rejects_nonpositive():
    with pytest.raises(InputError):
        mobius(0)


@pytest.mark.parametrize("check", [
    lambda seq: euler_check(seq, 2, 20_000),
    lambda seq: euler_check(seq, 3, 10 ** 7),
    lambda seq: gauss_check(seq, 10 ** 5000),
], ids=["euler-2^20000", "euler-3^(10^7)", "gauss-10^5000"])
def test_a_modulus_past_the_sequence_is_a_prompt_input_error(check):
    # the modulus has more digits than str() converts, or would take seconds
    # to build; neither is formed nor printed
    seq = coincidence_sequence(z_times_d(2), 10)
    start = time.perf_counter()
    with pytest.raises(InputError, match="fewer than the modulus"):
        check(seq)
    assert time.perf_counter() - start < 1


def test_a_prime_too_long_to_print_is_an_input_error():
    # 10^5000 has more digits than str() converts; the message must not
    # print it
    seq = coincidence_sequence(z_times_d(2), 10)
    with pytest.raises(InputError, match="^p is not prime$"):
        euler_check(seq, 10 ** 5000, 1)


def test_gauss_check_doubling_n2():
    seq = coincidence_sequence(z_times_d(2), 4)
    rep = gauss_check(seq, 2)
    assert rep.combination == (2 ** 2 - 1) - (2 - 1) == 2
    assert rep.passed


def test_gauss_check_z_pair_n6():
    seq = coincidence_sequence(z_pair(2, 1), 6)
    rep = gauss_check(seq, 6)
    assert rep.combination == 63 - 7 - 3 + 1 == 54
    assert rep.residue == 0 and rep.passed


def test_gauss_check_n1_always_passes():
    seq = coincidence_sequence(z_times_d(3), 2)
    rep = gauss_check(seq, 1)
    assert rep.passed and rep.combination == seq.values[0]


def test_gauss_check_rejects_infinite_divisor():
    seq = coincidence_sequence(z_pair(2, -2), 4)  # infinite at even n
    with pytest.raises(InfiniteValueError):
        gauss_check(seq, 2)
    # n = 3 only uses divisors 1 and 3, both finite
    assert gauss_check(seq, 3).passed


def test_gauss_check_nielsen_proceeds_with_zeros():
    seq = nielsen_sequence(z_pair(2, -2), 12)
    for n in range(1, 13):
        assert gauss_check(seq, n).passed


def test_euler_check_examples():
    seq = coincidence_sequence(z_times_d(2), 16)
    rep = euler_check(seq, 2, 2)
    assert rep.combination == (2 ** 4 - 1) - (2 ** 2 - 1) == 12
    assert rep.passed
    seq3 = coincidence_sequence(z_times_d(3), 27)
    rep3 = euler_check(seq3, 3, 1)
    assert rep3.combination == 26 - 2 == 24
    assert rep3.passed


def test_euler_equals_gauss_at_prime_powers():
    seq = coincidence_sequence(z_times_d(2), 32)
    for p, r in [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (5, 1)]:
        n = p ** r
        if n > 32:
            continue
        assert euler_check(seq, p, r).combination == gauss_check(seq, n).combination


def test_gauss_congruence_holds_for_tame_fixtures():
    for system in (z_times_d(2), z_times_d(3), z_times_d(-2), z_pair(2, 1),
                   z_pair(3, -1), z_pair(-3, 2)):
        seq = coincidence_sequence(system, 60)
        for n in range(1, 61):
            assert gauss_check(seq, n).passed, (system.name, n)


def test_dold_examples():
    br = BouquetRealization(a_even=BigIntMatrix.from_rows([[2]]),
                            a_odd=BigIntMatrix.from_rows([[1]]))
    rep = dold_check_realization(br, 4)
    assert rep.combination == 15 - 3 == 12
    assert rep.passed
    same = BouquetRealization(a_even=BigIntMatrix.from_rows([[3]]),
                              a_odd=BigIntMatrix.from_rows([[3]]))
    rep = dold_check_realization(same, 6)
    assert rep.combination == 0 and rep.passed


matrix_strategy = st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=d, max_size=d),
        min_size=d, max_size=d))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy, matrix_strategy, st.integers(min_value=1, max_value=30))
def test_dold_congruence_random_matrices(rows_e, rows_o, n):
    br = BouquetRealization(a_even=BigIntMatrix.from_rows(rows_e),
                            a_odd=BigIntMatrix.from_rows(rows_o))
    assert dold_check_realization(br, n).passed


def test_reports_carry_exact_combination():
    rng = random.Random(2)
    seq = coincidence_sequence(z_times_d(5), 12)
    for _ in range(10):
        n = rng.randint(1, 12)
        rep = gauss_check(seq, n)
        direct = sum(mobius(n // d) * seq.values[d - 1]
                     for d in range(1, n + 1) if n % d == 0)
        assert rep.combination == direct
