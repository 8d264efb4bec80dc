"""Möbius combinations and the Gauss / Euler / Dold congruence checks.

A report always carries the exact combination, not just a verdict: a nonzero
residue is mathematically meaningful (it certifies that the sequence is not
realizable by integer-matrix traces), so it must be debuggable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InfiniteValueError, InputError
from .padic import _check_prime
from .polyalg import mobius_divisors
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
