"""Möbius combinations and the Gauss / Euler / Dold congruence checks.

A report always carries the exact combination, not just a verdict: a nonzero
residue is mathematically meaningful (it certifies that the sequence is not
realizable by integer-matrix traces), so it must be debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy

from .errors import InfiniteValueError, InputError
from .reidemeister import ReidemeisterSequence, is_infinite
from .zeta import BouquetRealization

__all__ = ["CongruenceReport", "mobius", "gauss_check", "euler_check",
           "dold_check_realization"]


@dataclass(frozen=True)
class CongruenceReport:
    n: int
    combination: int
    residue: int
    passed: bool

    def __post_init__(self):
        assert self.passed == (self.residue == 0)


def _factorization(n: int) -> dict:
    """{p: e} with p^e exactly dividing n >= 1: trial division, cheaper
    than sympy.factorint's set-up on the moduli of a sequence window, and
    sympy's factoring above 2^40, where trial division would take up to
    2^19 steps."""
    if n >> 40:
        return sympy.factorint(n)
    factors, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def mobius(n: int) -> int:
    """Möbius function: 1 at 1, (-1)^k on k distinct primes, 0 otherwise."""
    if n < 1:
        raise InputError("mobius needs n >= 1")
    factors = _factorization(n)
    if any(e > 1 for e in factors.values()):
        return 0
    return (-1) ** len(factors)


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
    """The report for sum_{d|n} mu(n/d) * a(d) mod n, exactly: mu(n/d) is
    nonzero only when n/d is a product of distinct primes of n, so the sum
    runs over the subsets S of those primes, with d = n / prod(S)."""
    terms = [(1, n)]  # (mu(n/d), d)
    for p in _factorization(n):
        terms += [(-mu, d // p) for mu, d in terms]
    return _report(n, sum(mu * a(d) for mu, d in terms))


def gauss_check(seq: ReidemeisterSequence, n: int) -> CongruenceReport:
    """sum_{d|n} mu(n/d) * a_d mod n, exactly."""
    if n < 1:
        raise InputError("modulus must be >= 1")
    if n > len(seq.values):
        raise InputError(f"sequence has only {len(seq.values)} terms, need {n}")
    return _mobius_report(n, lambda d: _value_at(seq, d))


def euler_check(seq: ReidemeisterSequence, p: int, r: int) -> CongruenceReport:
    """a_{p^r} - a_{p^(r-1)} mod p^r; the prime-power case of the Gauss check."""
    if not sympy.isprime(p):
        raise InputError(f"{p} is not prime")
    if r < 1:
        raise InputError("exponent must be >= 1")
    n = p ** r
    if n > len(seq.values):
        raise InputError(f"sequence has only {len(seq.values)} terms, need {n}")
    return _report(n, _value_at(seq, n) - _value_at(seq, p ** (r - 1)))


def dold_check_realization(br: BouquetRealization, n: int) -> CongruenceReport:
    """Möbius combination of the Lefschetz numbers tr(A_e^d) - tr(A_o^d);
    passes for every pair of integer matrices (trace Gauss congruence)."""
    if n < 1:
        raise InputError("modulus must be >= 1")
    lefschetz = br.lefschetz_values(n)
    return _mobius_report(n, lambda d: lefschetz[d - 1])
