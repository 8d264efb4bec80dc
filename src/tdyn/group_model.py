"""Data model for an endomorphism pair of a torsion-free nilpotent group.

A group enters the library as the ordered list of its abelian sections: for
each section we store the rank d_k, the two induced d_k x d_k rational
matrices, and the finite set of primes S_k whose denominators the section is
allowed to use (S_k empty means the section is the lattice Z^{d_k}; nonempty
S_k models the S-integer sections Z_S^{d_k} that realize finite Prüfer rank
concretely).  The series itself is input data; it is never derived from a
group presentation here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt
from typing import Optional, Sequence

from .errors import InputError, UnsupportedPairingError
from .exact_linalg import (
    RatMatrix,
    _as_fraction,
    char_poly,
    commuting_form,
    det_rat,
    poly_at_matrix,
    power_difference_determinants,
    rat_kernel_basis,
    restrict_to_invariant_subspace,
)
from .polyalg import cyclotomic_factors, factor_int, is_prime, is_squarefree, totients

__all__ = [
    "AbelianSection",
    "NilpotentSystem",
    "TamenessVerdict",
    "section",
    "validate",
    "tameness_check",
    "joint_blocks",
    "builtin_example",
    "z_times_d",
    "z_pair",
    "torus_matrix",
    "heisenberg",
    "s_integer",
    "system_from_json",
    "system_to_json",
]


@dataclass(frozen=True)
class AbelianSection:
    """One abelian factor of the isolated lower central series."""

    rank: int
    phi: RatMatrix
    psi: RatMatrix
    prime_support: frozenset = field(default_factory=frozenset)

    @cached_property
    def form(self):
        """exact_linalg.commuting_form(phi, psi), computed once per section."""
        return commuting_form(self.phi, self.psi)

    @cached_property
    def char_polys(self) -> tuple:
        """(char phi, char psi), computed once per section."""
        return char_poly(self.phi), char_poly(self.psi)


@dataclass(frozen=True)
class NilpotentSystem:
    name: str
    sections: tuple

    @property
    def nilpotency_class(self) -> int:
        return len(self.sections)

    @property
    def is_finitely_generated(self) -> bool:
        return all(not s.prime_support for s in self.sections)

    @property
    def psi_is_identity(self) -> bool:
        return all(s.psi.is_identity() for s in self.sections)


@dataclass(frozen=True)
class TamenessVerdict:
    tame: bool
    witness_n: Optional[int]
    witness_section: Optional[int]
    checked_up_to: int


def section(rank: int, phi, psi=None, primes: Sequence[int] = ()) -> AbelianSection:
    """Build a section from nested lists; psi defaults to the identity of
    phi's size, not of rank, which may disagree with it (validate)."""
    phi_m = phi if isinstance(phi, RatMatrix) else RatMatrix.from_rows(phi)
    if psi is None:
        psi_m = RatMatrix.identity(phi_m.rows)
    else:
        psi_m = psi if isinstance(psi, RatMatrix) else RatMatrix.from_rows(psi)
    return AbelianSection(rank=rank, phi=phi_m, psi=psi_m,
                          prime_support=frozenset(int(p) for p in primes))


def _outside_part(d: int, s_part: int) -> int:
    """d with every prime of s_part divided out by gcd steps, with no
    factoring; a prime power is reduced to its prime."""
    g = gcd(d, s_part)
    while g > 1:
        d //= g
        g = gcd(d, g)
    if d == 1:  # every integer entry, and every denominator inside S
        return 1
    from sympy import perfect_power
    power = perfect_power(d)
    return power[0] if power else d


def validate(system: NilpotentSystem) -> list:
    """Return the list of invariant violations (empty list means ok)."""
    violations = []
    if system.nilpotency_class < 1:
        violations.append("system has no sections")
    for k, sec in enumerate(system.sections, start=1):
        if sec.rank < 1:
            violations.append(f"rank must be >= 1 in section {k}")
            continue
        for label, m in (("phi", sec.phi), ("psi", sec.psi)):
            if not (m.is_square and m.rows == sec.rank):
                violations.append(f"size mismatch in section {k}: {label} is "
                                  f"{m.rows}x{m.cols}, expected {sec.rank}x{sec.rank}")
        s_part = 1
        for p in sec.prime_support:
            if is_prime(p):
                s_part *= p
            else:
                violations.append(f"{p} in prime support of section {k} is not prime")
        for label, m in (("phi", sec.phi), ("psi", sec.psi)):
            if m.rows != sec.rank or m.cols != sec.rank:
                continue
            denominators = {e.denominator for e in m.entries}
            bad = {_outside_part(d, s_part) for d in denominators} - {1}
            for q in sorted(bad):
                violations.append(f"denominator {q} outside prime support in "
                                  f"section {k} ({label})")
    return violations


def _tameness_bound(max_rank: int) -> int:
    """Smallest sufficient iteration bound for the vanishing-determinant check.

    If det(phi^n - psi^n) = 0 for some n then some eigenvalue ratio is a root
    of unity whose order m satisfies totient(m) <= max_rank**2, so checking
    n = 1 .. 2*max{such m} is enough (the factor 2 is lcm safety).  The
    lemma needs phi and psi simultaneously triangularizable, as commuting
    pairs are: then phi^n - psi^n is triangular with diagonal xi^n - eta^n
    over paired eigenvalues.  For a pair that is not, a zero needs no root
    of unity ([[1,1],[1,2]] and [[1,1],[0,3]] vanish at n = 1), and the
    bound is how far the iteration checks, not a proof.
    """
    budget = max_rank * max_rank
    # totient(m) >= sqrt(m) for every m but 2 and 6, so m <= max(budget^2, 6)
    # exhausts all candidates
    limit = max(budget * budget, 6)
    phi = totients(limit)
    return 2 * max(m for m in range(1, limit + 1) if phi[m] <= budget)


@lru_cache(maxsize=1)
def tameness_check(system: NilpotentSystem) -> TamenessVerdict:
    """Decide whether all iterated coincidence numbers are finite.

    R(phi^n, psi^n) is infinite exactly when det(phi_k^n - psi_k^n) = 0 for
    some section k.  With a commuting_form that is a nonzero multiple of
    det(A^n - I), A = B / t, so the least such n is the least m whose
    cyclotomic polynomial divides the primitive part of char(B)(t x), with
    A's roots (Gauss's lemma): no determinant is computed.  Every other
    section is iterated up to the bound of the eigenvalue-ratio argument, or
    to the least closed-form zero when that is smaller.  The witness is the least (n, k), and
    checked_up_to is the bound either way.  The last verdict is kept for the
    next caller with an equal system.
    """
    problems = validate(system)
    if problems:
        raise InputError("; ".join(problems))
    bound = _tameness_bound(max(sec.rank for sec in system.sections))
    zeros, iterated = [], []
    for k, sec in enumerate(system.sections, start=1):
        if sec.form is None:
            iterated.append((k, sec))
            continue
        cp, t = sec.form[:2]
        orders = cyclotomic_factors(cp.scaled(1, t))
        if orders:
            zeros.append((orders[0][0], k))
    last = min(zeros)[0] if zeros else bound
    dets = [power_difference_determinants(sec.phi, sec.psi, None, 1, last)
            for _, sec in iterated]
    for n, row in enumerate(zip(*dets), start=1):
        zero = [k for (k, _), det in zip(iterated, row) if det == 0]
        if zero:
            zeros.append((n, zero[0]))
            break
    n, k = min(zeros, default=(None, None))
    return TamenessVerdict(tame=not zeros, witness_n=n, witness_section=k,
                           checked_up_to=bound)


def joint_blocks(sec: AbelianSection) -> list:
    """Joint invariant blocks of a commuting pair, the one eigenvalue
    pairing of a section, shared by the archimedean place and every prime.

    When phi or psi is scalar s*I, the single whole-space block (char(phi),
    None, char(psi)): every eigenvalue pairs with s.  Otherwise one (f, h, g)
    per irreducible factor f of char(phi), in factor_int's order: on ker
    f(phi), psi = h(phi) pairs each root xi of f with h(xi).  f irreducible
    makes any nonzero v there cyclic, so psi on the basis v, phi v, ...,
    phi^(m-1) v (m = deg f) has first column h, ascending Fractions, and
    characteristic polynomial g.  Raises
    UnsupportedPairingError unless phi and psi commute and both
    characteristic polynomials are square-free, because the pairing is
    certified only for simultaneously diagonalizable maps.  char(phi) and
    char(psi) are the section's own (``AbelianSection.char_polys``).
    """
    phi, psi = sec.phi, sec.psi
    scalar = phi.is_scalar() or psi.is_scalar()
    if not scalar and phi.mul(psi) != psi.mul(phi):
        raise UnsupportedPairingError(
            "phi and psi do not commute; the eigenvalue pairing is not certified")
    char_phi, char_psi = sec.char_polys
    if scalar:
        return [(char_phi, None, char_psi)]
    for cp in (char_phi, char_psi):
        if not is_squarefree(cp):
            raise UnsupportedPairingError(
                "characteristic polynomial is not square-free; simultaneous "
                "diagonalizability cannot be certified")
    blocks = []
    for f, _ in factor_int(char_phi)[1]:
        krylov = [RatMatrix(phi.rows, 1, rat_kernel_basis(poly_at_matrix(f, phi))[0])]
        while len(krylov) < f.degree:
            krylov.append(phi.mul(krylov[-1]))
        psi_f = restrict_to_invariant_subspace(psi, [v.entries for v in krylov])
        blocks.append((f, psi_f.entries[::f.degree], char_poly(psi_f)))
    return blocks


# ---------------------------------------------------------------------------
# builtin catalog


def z_times_d(d) -> NilpotentSystem:
    """Z with multiplication by d (psi = identity)."""
    return NilpotentSystem(name=f"z_times_d({d})",
                           sections=(section(1, [[d]]),))


def z_pair(d_phi, d_psi) -> NilpotentSystem:
    """Z with the pair (multiplication by d_phi, multiplication by d_psi)."""
    return NilpotentSystem(name=f"z_pair({d_phi},{d_psi})",
                           sections=(section(1, [[d_phi]], [[d_psi]]),))


def torus_matrix(rows) -> NilpotentSystem:
    """Z^d with an integer matrix phi and psi = identity."""
    m = RatMatrix.from_rows(rows)
    return NilpotentSystem(name="torus_matrix", sections=(section(m.rows, m),))


def heisenberg(rows) -> NilpotentSystem:
    """Heisenberg-style class-2 system: section 1 is the 2x2 matrix A, section 2
    is multiplication by det A on the center."""
    m = RatMatrix.from_rows(rows)
    if not (m.is_square and m.rows == 2):
        raise InputError("heisenberg expects a 2x2 matrix")
    d = det_rat(m)
    return NilpotentSystem(name="heisenberg",
                           sections=(section(2, m), section(1, [[d]])))


def s_integer(d, primes: Sequence[int]) -> NilpotentSystem:
    """Z_S (rank 1) with multiplication by the rational d, psi = identity."""
    return NilpotentSystem(name=f"s_integer({d},{sorted(primes)})",
                           sections=(section(1, [[Fraction(d)]], primes=primes),))


def _parse_builtin_args(arg_str: str):
    return [a.strip() for a in arg_str.split(",") if a.strip() != ""]


def _square_rows_from_flat(vals):
    d = isqrt(len(vals))
    if d * d != len(vals):
        raise InputError("matrix argument needs a square number of entries")
    return [vals[i * d:(i + 1) * d] for i in range(d)]


def builtin_example(key: str) -> NilpotentSystem:
    """Look up a catalog fixture addressed as ``name:arg1,arg2,...``.

    Catalog: z_times_d:d | z_pair:d_phi,d_psi | torus_matrix:<d*d entries>
    | heisenberg:a,b,c,d | s_integer:d,p1,p2,...
    """
    name, _, arg_str = key.partition(":")
    args = _parse_builtin_args(arg_str)
    try:
        if name == "z_times_d":
            (d,) = args
            return z_times_d(_as_fraction(d))
        if name == "z_pair":
            a, b = args
            return z_pair(_as_fraction(a), _as_fraction(b))
        if name == "torus_matrix":
            return torus_matrix(_square_rows_from_flat(list(map(_as_fraction, args))))
        if name == "heisenberg":
            return heisenberg(_square_rows_from_flat(list(map(_as_fraction, args))))
        if name == "s_integer":
            d, *ps = args
            return s_integer(_as_fraction(d), [int(p) for p in ps])
    except InputError:
        raise
    except Exception as exc:
        raise InputError(f"bad arguments for builtin {name!r}: {exc}") from exc
    raise InputError(f"unknown builtin key {name!r}")


# ---------------------------------------------------------------------------
# JSON descriptor


def _matrix_from_json(rows, what: str) -> RatMatrix:
    if (not isinstance(rows, list) or not rows
            or not all(isinstance(row, list) for row in rows)):
        raise InputError(f"{what}: expected a non-empty list of rows")
    try:
        entries = [[_as_fraction(str(x)) for x in row] for row in rows]
    except InputError as exc:
        raise InputError(f"{what}: bad rational entry ({exc})") from exc
    return RatMatrix.from_rows(entries)


def _int_from_json(value, what: str) -> int:
    """A JSON integer or decimal string; floats and booleans are rejected
    rather than truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{what}: expected an integer, got {value!r}")


def system_from_json(doc) -> NilpotentSystem:
    """Parse the JSON system descriptor.

    Matrix entries are strings parsed as exact rationals ("3", "-1/2");
    "psi" defaults to the identity and "primes" to the empty set.  The
    optional "triangularizable" key of older descriptors is accepted and
    ignored.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            raise InputError(f"bad JSON descriptor: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("descriptor must be a JSON object")
    sections = []
    raw_sections = doc.get("sections")
    if not isinstance(raw_sections, list) or not raw_sections:
        raise InputError("descriptor needs a non-empty 'sections' list")
    for k, raw in enumerate(raw_sections, start=1):
        if not isinstance(raw, dict):
            raise InputError(f"section {k}: expected a JSON object")
        if "rank" not in raw or "phi" not in raw:
            raise InputError(f"section {k} needs 'rank' and 'phi'")
        rank = _int_from_json(raw["rank"], f"section {k} rank")
        phi = _matrix_from_json(raw["phi"], f"section {k} phi")
        psi = None
        if "psi" in raw and raw["psi"] is not None:
            psi = _matrix_from_json(raw["psi"], f"section {k} psi")
        raw_primes = raw.get("primes", [])
        if not isinstance(raw_primes, list):
            raise InputError(f"section {k} primes: expected a list of integers")
        primes = [_int_from_json(p, f"section {k} primes") for p in raw_primes]
        sections.append(section(rank, phi, psi, primes))
    return NilpotentSystem(name=str(doc.get("name", "unnamed")),
                           sections=tuple(sections))


def system_to_json(system: NilpotentSystem) -> dict:
    return {
        "name": system.name,
        "sections": [
            {
                "rank": sec.rank,
                "phi": sec.phi.str_rows(),
                "psi": sec.psi.str_rows(),
                "primes": sorted(sec.prime_support),
            }
            for sec in system.sections
        ],
    }
