"""Closed-form growth rates and the dual-torus entropy identity.

The closed form is a product of per-eigenvalue-pair factors
max(|xi|, |eta|) over the archimedean place plus p**e corrections from the
finite places of S-integer sections.  Factors are carried symbolically:
rational values stay exact Fractions, irrational ones are certified rational
intervals from root enclosures, and p-adic parts are exact rational
multiples of log p.  The numeric value is assembled only at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .enclosures import (
    box_mul,
    decide_order,
    interval_sqrt,
    modsq_box,
    modulus_cell,
    poly_root_enclosures,
)
from .errors import (
    DoubleRangeError,
    HypothesisViolatedError,
    InputError,
    NotTameError,
    PrecisionError,
    RootOfUnityError,
    UnsupportedPairingError,
    finite_float,
)
from .exact_linalg import BigIntMatrix, IntPolynomial, RatMatrix, char_poly
from .group_model import AbelianSection, NilpotentSystem, joint_blocks, tameness_check
from .padic import joint_block_exponent
from .polyalg import cyclotomic_factors, factor_int
from .reidemeister import coincidence_sequence

__all__ = ["RationalLog", "AlgebraicLog", "PadicLog", "GrowthReport",
           "growth_rate", "entropy_dual_torus", "entropy_identity",
           "verify_entropy_identity"]

_VALUE_BITS = 192  # fixed working precision for reported algebraic intervals


@dataclass(frozen=True)
class RationalLog:
    """Exact rational factor of the closed form."""

    value: Fraction


@dataclass(frozen=True)
class AlgebraicLog:
    """Certified interval for an irrational product of eigenvalue moduli."""

    note: str
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class PadicLog:
    """Factor prime**exponent from one finite place."""

    prime: int
    exponent: Fraction


LogTerm = Union[RationalLog, AlgebraicLog, PadicLog]


@dataclass(frozen=True)
class GrowthReport:
    log_terms: tuple
    numeric: float
    exact_value: Optional[Fraction]
    archimedean: float
    padic: float
    empirical: tuple
    agreement: float


def _flog(q: Fraction) -> float:
    q = Fraction(q)
    if q <= 0:
        raise InputError("logarithm of a nonpositive value")
    return math.log(q.numerator) - math.log(q.denominator)


def _term_log(term: LogTerm) -> float:
    if isinstance(term, RationalLog):
        return _flog(term.value)
    if isinstance(term, AlgebraicLog):
        return _flog((term.lo + term.hi) / 2)
    return float(term.exponent) * math.log(term.prime)


def _product_of_terms(terms, field: str):
    """(float value, exact Fraction or None) for a product of log terms;
    the exact value exists when every factor is rational.  A value past the
    double range is an InputError naming the field."""
    exact: Optional[Fraction] = Fraction(1)
    for t in terms:
        if isinstance(t, RationalLog):
            exact *= t.value
        elif isinstance(t, PadicLog) and t.exponent.denominator == 1:
            exact *= Fraction(t.prime) ** int(t.exponent)
        else:
            exact = None
            break
    if exact is not None:
        return finite_float(field, lambda: float(exact)), exact
    return finite_float(field, lambda: math.exp(sum(_term_log(t) for t in terms))), None


def _root_modulus_product_interval(enclosures, indices,
                                   modsq=lambda r: r.modsq(_VALUE_BITS)):
    """Certified (lo, hi) for the product over the given indices of the
    square roots of modsq(root_i), each the 64-bit cell of
    enclosures.modulus_cell: by default the product of |root_i|."""
    lo, hi = Fraction(1), Fraction(1)
    for i in indices:
        slo, shi = modulus_cell(modsq, enclosures[i])[0]
        lo *= slo
        hi *= shi
    return lo, hi


def _split_by_partner(encl, partner_modsq):
    """(inside, outside): the indices of the roots whose modulus is above,
    and at or below, their partner's.  partner_modsq(e, bits) encloses the
    squared modulus of the partner of the root e; a tie the enclosures
    cannot separate raises PrecisionError (decide_order)."""
    inside, outside = [], []
    for i, e in enumerate(encl):
        order = decide_order(e.modsq, lambda bits, e=e: partner_modsq(e, bits))
        (inside if order > 0 else outside).append(i)
    return inside, outside


def _pair_terms(w: IntPolynomial, s, reps: int = 1, encl=None):
    """Terms max(|xi|, |s|) over the roots xi of the irreducible w,
    each to the power reps.  Exact where the comparison is rational,
    certified intervals otherwise.  encl: the root enclosures of w, if the
    caller already has them."""
    s_abs = abs(Fraction(s))
    terms = []
    if encl is None:
        encl = poly_root_enclosures(w)
    s_sq = s_abs * s_abs
    try:
        inside, outside = _split_by_partner(encl, lambda _e, _bits: (s_sq, s_sq))
    except PrecisionError as exc:
        raise HypothesisViolatedError(
            f"an eigenvalue modulus of {w.coeffs} is indistinguishable "
            f"from |{s}|") from exc
    if not outside:
        v = Fraction(abs(w.constant), w.leading)  # the product of |roots|
        if v != 1:
            terms.append(RationalLog(v ** reps))
    else:
        if inside:
            lo, hi = _root_modulus_product_interval(encl, inside)
            terms.append(AlgebraicLog(
                note=f"{len(inside)} root(s) of {w.coeffs} beyond radius {s_abs}",
                lo=lo ** reps, hi=hi ** reps))
        if s_abs not in (0, 1):
            terms.append(RationalLog(s_abs ** (len(outside) * reps)))
    return terms


def _scalar_pair_terms(base: IntPolynomial, s: Fraction):
    """_pair_terms over the irreducible factors of base."""
    return [t for w, reps in factor_int(base)[1] for t in _pair_terms(w, s, reps)]


def _commuting_block_terms(blocks):
    """max(|xi_i|, |eta_i|) terms for commuting phi, psi with square-free
    characteristic polynomials, paired block by block: each block of
    joint_blocks carries its pairing polynomial h, and eta = h(xi) for
    each root xi of its f."""
    terms = []
    for f_alpha, h, g_alpha in blocks:
        if len(factor_int(g_alpha)[1]) > 1:
            raise UnsupportedPairingError(
                "block characteristic polynomial of psi is reducible; the "
                "pairing is ambiguous")
        encl = poly_root_enclosures(f_alpha)

        def eta_modsq(e, bits):
            b = e.box(bits)
            acc_box = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
            for c in reversed(h):
                acc_box = box_mul(acc_box, b)
                acc_box = (acc_box[0] + c, acc_box[1] + c, acc_box[2], acc_box[3])
            return modsq_box(acc_box)

        try:
            inside, outside = _split_by_partner(encl, eta_modsq)
        except PrecisionError as exc:
            raise HypothesisViolatedError(
                "paired eigenvalue moduli are indistinguishable") from exc
        if not (inside and outside):
            # one side dominates on the whole block: the product of |roots|
            # of f_alpha where every |xi| is above its |eta|, else of g_alpha
            f = f_alpha if inside else g_alpha
            v = Fraction(abs(f.constant), f.leading)
            if v != 1:
                terms.append(RationalLog(v))
        else:
            lo, hi = _root_modulus_product_interval(encl, inside)
            eta_lo, eta_hi = _root_modulus_product_interval(
                encl, outside, lambda r: eta_modsq(r, _VALUE_BITS))
            terms.append(AlgebraicLog(
                note=f"mixed dominant pairing on block {f_alpha.coeffs}",
                lo=lo * eta_lo, hi=hi * eta_hi))
    return terms


def _section_terms(sec: AbelianSection):
    """Archimedean and p-adic terms of one section, all read from its one
    joint-block decomposition (group_model.joint_blocks): a scalar side
    s*I pairs every eigenvalue of the other map with s, and any other
    commuting pair pairs block by block."""
    blocks = joint_blocks(sec)
    # a scalar side gives the one block (char phi, None, char psi)
    if sec.psi.is_scalar():
        terms = _scalar_pair_terms(blocks[0][0], sec.psi.get(0, 0))
    elif sec.phi.is_scalar():
        terms = _scalar_pair_terms(blocks[0][2], sec.phi.get(0, 0))
    else:
        terms = _commuting_block_terms(blocks)
    for p in sorted(sec.prime_support):
        exponent = joint_block_exponent(blocks, p)
        if exponent != 0:
            terms.append(PadicLog(prime=p, exponent=exponent))
    return terms


@lru_cache(maxsize=1)
def growth_rate(system: NilpotentSystem, N: int = 40) -> GrowthReport:
    """Closed-form growth rate of the coincidence numbers plus empirical
    R_n**(1/n) diagnostics.

    Requires a tame system whose paired eigenvalue moduli differ at the
    archimedean place; the p-adic factors additionally need a certifiable
    pairing (see padic.joint_block_exponent).  The last report is kept for
    the next caller with equal arguments.
    """
    verdict = tameness_check(system)
    if not verdict.tame:
        raise NotTameError(
            f"system is not tame (witness n = {verdict.witness_n}); the growth "
            "rate formula does not apply")
    terms: list = []
    for sec in system.sections:
        terms.extend(_section_terms(sec))
    arch_terms = [t for t in terms if not isinstance(t, PadicLog)]
    padic_terms = [t for t in terms if isinstance(t, PadicLog)]
    arch_numeric, arch_exact = _product_of_terms(arch_terms, "archimedean")
    padic_numeric, padic_exact = _product_of_terms(padic_terms, "padic")
    if arch_exact is not None and padic_exact is not None:
        exact: Optional[Fraction] = arch_exact * padic_exact
        numeric = finite_float("numeric", lambda: float(exact))
    else:
        exact = None
        numeric = arch_numeric * padic_numeric

    seq = coincidence_sequence(system, N)
    empirical = tuple(finite_float("empirical", lambda: math.exp(math.log(v) / n))
                      for n, v in enumerate(seq.values, start=1))
    agreement = abs(empirical[-1] - numeric) / numeric if numeric else math.inf
    return GrowthReport(log_terms=tuple(terms), numeric=numeric,
                        exact_value=exact,
                        archimedean=arch_numeric,
                        padic=padic_numeric,
                        empirical=empirical, agreement=agreement)


def entropy_dual_torus(A) -> float:
    """Topological entropy of the toral endomorphism dual to x -> Ax on Z^d:
    the sum of log max(|xi|, 1) over the eigenvalues of the integer matrix A.

    Raises RootOfUnityError when some eigenvalue is a root of unity (the dual
    system is not even tame); expansiveness and specification of the dual map
    are assumed, not verified.
    """
    if not isinstance(A, (BigIntMatrix, RatMatrix)):
        A = RatMatrix.from_rows(A)
    if isinstance(A, RatMatrix):
        A = A.to_bigint()
    cp = char_poly(A)
    cyclo = cyclotomic_factors(cp)
    if cyclo:
        orders = ", ".join(str(m) for m, _ in cyclo)
        raise RootOfUnityError(
            f"characteristic polynomial has cyclotomic factor(s) of order {orders}")
    total = 0.0
    for w, mult in factor_int(cp)[1]:
        encl = poly_root_enclosures(w)
        try:
            for t in _pair_terms(w, 1, encl=encl):
                total += mult * _term_log(t)
        except HypothesisViolatedError:
            # an eigenvalue sits on (or within 1e-30 of) the unit circle:
            # log max(|xi|, 1) is still well defined, use the midpoints of
            # the 64-bit cells of |xi| (an exact |xi| = 1 straddles 1)
            for e in encl:
                slo, shi = interval_sqrt(*e.modsq(_VALUE_BITS))
                mid = (max(slo, 1) + max(shi, 1)) / 2
                if mid > 1:
                    total += mult * _flog(mid)
    return total


def entropy_identity(system: NilpotentSystem, N: int = 40) -> tuple:
    """(section entropies, gap) for the identity log growth_rate(system) =
    sum of the dual-torus entropies of the section matrices (psi = identity,
    finitely generated); the gap is relative to max(1, |entropy sum|)."""
    if not system.psi_is_identity:
        raise InputError("the entropy identity needs psi = identity")
    if not system.is_finitely_generated:
        raise InputError("the entropy identity needs finitely generated sections")
    try:
        report = growth_rate(system, N=N)
    except DoubleRangeError:
        # the entropy output has none of the growth report's fields
        raise DoubleRangeError("identity_gap is past the double range") from None
    log_growth = math.log(report.numeric)
    entropies = [entropy_dual_torus(sec.phi) for sec in system.sections]
    entropy_sum = sum(entropies)
    return entropies, abs(log_growth - entropy_sum) / max(1.0, abs(entropy_sum))


def verify_entropy_identity(system: NilpotentSystem, N: int = 40) -> float:
    """Gap between log growth_rate(system) and the sum of the dual-torus
    entropies of the section matrices (see entropy_identity)."""
    return entropy_identity(system, N)[1]
