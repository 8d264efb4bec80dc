"""Exact coincidence Reidemeister and Nielsen number sequences.

For one abelian section the n-th coincidence number is

    |det(phi^n - psi^n)|_infinity * prod_{p in S} |det(phi^n - psi^n)|_p

which is a positive integer for valid S-integer sections and infinite exactly
when the determinant vanishes.  A multi-section value is the product over
sections (the product formula for nilpotent systems); Nielsen values replace
infinity by 0 and require finitely generated input.

Sequences read the integer numerator N_n of det(phi^n - psi^n) = N_n / D^(nd)
from ``exact_linalg.power_difference_determinants``, where D is the product
of the denominators of phi and psi.  validate puts every prime of D in S, so
D^(nd) is an S-unit and the n-th value is the S-free part of |N_n|: no
Fraction is built per term.  For a pair with a ``commuting_form`` and at
least 2^d terms on a rank-d section N_n is read off the power sums of the
exterior powers, exact for every such section, tame or not; other runs and
pairs take one matrix product and one Bareiss elimination per term.  The
single-term routes below (``section_coincidence_number`` over Fractions and
``section_coincidence_number_snf``) are independent of both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .exact_linalg import det_rat, mat_pow, power_difference_determinants
from .group_model import AbelianSection, NilpotentSystem, validate
from .padic import _ord_int, ord_p
from .polyalg import smith_normal_form

__all__ = ["INFINITY", "Infinity", "is_infinite", "ReidemeisterSequence",
           "section_coincidence_number", "section_coincidence_number_snf",
           "coincidence_sequence", "extend_sequence", "nielsen_sequence"]


class Infinity:
    """Explicit infinite Reidemeister number (never a sentinel integer)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITY = Infinity()


def is_infinite(value) -> bool:
    return isinstance(value, Infinity)


@dataclass(frozen=True)
class ReidemeisterSequence:
    """Values for n = 1..N; kind 'nielsen' has finite entries with 0 for the
    infinite Reidemeister case, kind 'reidemeister' keeps INFINITY explicit."""

    values: tuple
    kind: str  # "reidemeister" | "nielsen"

    def __post_init__(self):
        if self.kind not in ("reidemeister", "nielsen"):
            raise InputError(f"unknown sequence kind {self.kind!r}")
        for v in self.values:
            if is_infinite(v):
                if self.kind == "nielsen":
                    raise InputError("nielsen sequences cannot hold infinity")
            elif not isinstance(v, int):
                raise InputError("sequence entries must be ints or INFINITY")
            elif self.kind == "reidemeister" and v < 1:
                raise InputError("finite Reidemeister numbers are >= 1")
            elif self.kind == "nielsen" and v < 0:
                raise InputError("Nielsen numbers are >= 0")

    def __len__(self):
        return len(self.values)


def _adelic_value(det: Fraction, primes) -> int:
    """|det|_inf * prod_{p in S} |det|_p as an exact positive integer."""
    value = abs(det)
    for p in primes:
        value *= Fraction(p) ** (-ord_p(det, p))
    if value.denominator != 1:
        raise InputError(
            "section determinant has denominators outside the prime support")
    return int(value)


def section_coincidence_number(sec: AbelianSection, n: int):
    """R(phi^n, psi^n) on one section: exact positive integer or INFINITY."""
    if n < 1:
        raise InputError("iteration index must be >= 1")
    diff = mat_pow(sec.phi, n).sub(mat_pow(sec.psi, n))
    det = det_rat(diff)
    if det == 0:
        return INFINITY
    return _adelic_value(det, sorted(sec.prime_support))


def section_coincidence_number_snf(sec: AbelianSection, n: int):
    """Independent route for integer sections: order of the cokernel of
    phi^n - psi^n read off the Smith normal form diagonal."""
    if sec.prime_support:
        raise InputError("SNF route applies to integer sections only")
    diff = mat_pow(sec.phi, n).sub(mat_pow(sec.psi, n))
    if not diff.is_integral:
        raise InputError("SNF route applies to integer sections only")
    sf = smith_normal_form(diff.to_bigint())
    order = 1
    for d in sf.diagonal():
        if d == 0:
            return INFINITY
        order *= abs(d)
    return order


# (system, its longest sequence so far), replaced by one assignment so that
# threads may share it
_last_sequence = (None, None)


def coincidence_sequence(system: NilpotentSystem, N: int) -> ReidemeisterSequence:
    """R(phi^n, psi^n) for n = 1..N, the product over sections.  The last
    system's longest sequence is kept, keyed by the system's value: a
    shorter request is its prefix and a longer one continues it."""
    global _last_sequence
    if N < 1:
        raise InputError("sequence length must be >= 1")
    last, seq = _last_sequence
    if last != system:
        seq = ReidemeisterSequence(values=(), kind="reidemeister")
    elif N <= len(seq):
        return ReidemeisterSequence(values=seq.values[:N], kind="reidemeister")
    seq = extend_sequence(system, seq, N)
    _last_sequence = (system, seq)
    return seq


def extend_sequence(system: NilpotentSystem, seq: ReidemeisterSequence,
                    N: int) -> ReidemeisterSequence:
    """seq, the first len(seq) terms of system's sequence of its kind,
    continued to n = 1..N: only the terms past seq are computed, from
    phi^(len(seq)+1) and psi^(len(seq)+1) on.  Each section's value is the
    S-free part of its determinant numerator."""
    problems = validate(system)
    if problems:
        raise InputError("; ".join(problems))
    primes = [sorted(sec.prime_support) for sec in system.sections]
    dets = [power_difference_determinants(sec.phi, sec.psi, sec.form, len(seq) + 1, N)
            for sec in system.sections]
    values = list(seq.values)
    for row in zip(*dets):
        if any(det == 0 for det in row):
            values.append(0 if seq.kind == "nielsen" else INFINITY)
            continue
        total = 1
        for det, support in zip(row, primes):
            value = abs(det)
            for p in support:
                value //= p ** _ord_int(value, p)
            total *= value
        values.append(total)
    return ReidemeisterSequence(values=tuple(values), kind=seq.kind)


def nielsen_sequence(system: NilpotentSystem, N: int) -> ReidemeisterSequence:
    """N(f^n, g^n) for the nilmanifold pair realizing the system: equals the
    Reidemeister value when finite and 0 otherwise.  Rejects S-integer input
    (Nielsen theory here is about compact nilmanifolds)."""
    if not system.is_finitely_generated:
        raise InputError("Nielsen sequences need finitely generated sections "
                         "(empty prime support)")
    rseq = coincidence_sequence(system, N)
    values = tuple(0 if is_infinite(v) else v for v in rseq.values)
    return ReidemeisterSequence(values=values, kind="nielsen")
