"""Möbius combinations and the Gauss / Euler / Dold congruence checks.

A report always carries the exact combination, not just a verdict: a nonzero
residue is mathematically meaningful (it certifies that the sequence is not
realizable by integer-matrix traces), so it must be debuggable.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InfiniteValueError, InputError
from .padic import _check_prime
from .polyalg import mobius_divisors
from .reidemeister import ReidemeisterSequence, is_infinite
from .zeta import BouquetRealization

__all__ = ["CongruenceReport", "mobius", "gauss_check", "gauss_checks",
           "euler_check", "dold_check_realization"]


@dataclass(frozen=True)
class CongruenceReport:
    n: int
    combination: int
    residue: int
    passed: bool

    def __post_init__(self):
        assert self.passed == (self.residue == 0)


def mobius(n: int) -> int:
    """Möbius function: 1 at 1, (-1)^k on k distinct primes, 0 otherwise."""
    if n < 1:
        raise InputError("mobius needs n >= 1")
    mu, d = mobius_divisors(n)[-1]  # d = n / rad(n)
    return mu if d == 1 else 0


def _value_at(seq: ReidemeisterSequence, d: int) -> int:
    v = seq.values[d - 1]
    if is_infinite(v):
        raise InfiniteValueError(
            f"R at iterate {d} is infinite; Gauss congruences need a tame pair")
    return v


def _report(n: int, combination: int) -> CongruenceReport:
    residue = combination % n
    return CongruenceReport(n=n, combination=combination, residue=residue,
                            passed=residue == 0)


def _mobius_report(n: int, a) -> CongruenceReport:
    """The report for sum_{d|n} mu(n/d) * a(d) mod n, exactly, in
    polyalg.mobius_divisors' order."""
    return _report(n, sum(mu * a(d) for mu, d in mobius_divisors(n)))


def _check_length(seq: ReidemeisterSequence, n: int, modulus: str):
    """InputError when the modulus n passes the sequence; the message names
    the modulus but not its value, which may have more digits than str()
    converts."""
    if n > len(seq.values):
        raise InputError(f"sequence has only {len(seq.values)} terms, fewer "
                         f"than the modulus {modulus}")


def gauss_check(seq: ReidemeisterSequence, n: int) -> CongruenceReport:
    """sum_{d|n} mu(n/d) * a_d mod n, exactly."""
    if n < 1:
        raise InputError("modulus must be >= 1")
    _check_length(seq, n, "n")
    return _mobius_report(n, lambda d: _value_at(seq, d))


def _mobius_table(top: int) -> list:
    """[mu(0) = 0, mu(1), ..., mu(top)] by one sieve of Eratosthenes: each
    prime p flips the sign of its multiples and zeroes those of p^2."""
    mu = [0] + [1] * top
    composite = bytearray(top + 1)
    for p in range(2, top + 1):
        if not composite[p]:
            for m in range(p, top + 1, p):
                composite[m] = 1
                mu[m] = -mu[m]
            for m in range(p * p, top + 1, p * p):
                mu[m] = 0
    return mu


def gauss_checks(seq: ReidemeisterSequence, moduli) -> list:
    """[gauss_check(seq, n) for n in moduli], as one Dirichlet convolution
    mu * a: after one Möbius sieve up to the largest modulus the sequence
    covers, each a_d is added with sign mu(k) at k*d for the square-free k.
    A modulus below 1, past the sequence or with an infinite a_d at some d
    with mu(n/d) != 0 goes through gauss_check, so the first of them in
    moduli order raises as that loop would."""
    moduli = list(moduli)
    top = max((n for n in moduli if 1 <= n <= len(seq.values)), default=0)
    mu = _mobius_table(top)
    square_free = [k for k in range(1, top + 1) if mu[k]]
    combination = [0] * (top + 1)
    infinite = set()
    for d, v in enumerate(seq.values[:top], 1):
        ks = square_free[:bisect_right(square_free, top // d)]
        if is_infinite(v):
            infinite.update(k * d for k in ks)
        else:
            for k in ks:
                combination[k * d] += mu[k] * v
    return [_report(n, combination[n]) if 1 <= n <= top and n not in infinite
            else gauss_check(seq, n) for n in moduli]


def euler_check(seq: ReidemeisterSequence, p: int, r: int) -> CongruenceReport:
    """a_{p^r} - a_{p^(r-1)} mod p^r; the prime-power case of the Gauss check."""
    _check_prime(p)
    if r < 1:
        raise InputError("exponent must be >= 1")
    n = 1
    for _ in range(r):  # p^r, built no further than the sequence length allows
        n *= p
        _check_length(seq, n, "p^r")
    return _report(n, _value_at(seq, n) - _value_at(seq, n // p))


def dold_check_realization(br: BouquetRealization, n: int) -> CongruenceReport:
    """Möbius combination of the Lefschetz numbers tr(A_e^d) - tr(A_o^d);
    passes for every pair of integer matrices (trace Gauss congruence)."""
    if n < 1:
        raise InputError("modulus must be >= 1")
    lefschetz = br.lefschetz_values(n)
    return _mobius_report(n, lambda d: lefschetz[d - 1])
