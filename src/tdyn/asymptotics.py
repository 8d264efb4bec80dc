"""Dominant spectral data and the limit-point trichotomy of R_n / lambda^n.

lambda is the maximal root modulus of the exponential-sum polynomials.
Separation comes first: every term is enclosed once, and when the top
|root|^2 cell is one real root or one conjugate pair of one term, above every
other root's cell by the precision of the reported bounds, those roots are
the dominant ones.  Only a tied top (r and -r, v(x) against v(-x), a root
shared by terms, a real root and a pair of one modulus) is located *exactly*:
|root|^2 values of its terms are roots of the composed-product polynomial
(roots r_i * r_j), the largest positive real one equals lambda^2, and its
multiplicity counts the dominant roots.  Nothing is factored: the
square-free parts of those product polynomials are refined into one
pairwise coprime base by gcds, so a root's multiplicity is the exponent of
its part, and equal roots of different terms are the same root of the same
base element.  Periodicity of the dominant angles is likewise decided
exactly: the ratio of a dominant root with its conjugate is a root of the
ratio polynomial (roots r_i / r_j), and the angle is rational exactly when
that root lies on one of its cyclotomic factors, which exact division finds.
Both polynomials are built from power sums (polyalg).  Indeterminate is the
honest fallback when enclosures cannot separate quantities at the precision
ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional

from .enclosures import (
    box_conj,
    box_div,
    box_pow,
    boxes_intersect,
    decide_order,
    interval_sqrt,
    modulus_cell,
    poly_root_enclosures,
    precision_ladder,
    real_part_sign,
)
from .errors import InputError, PrecisionError, finite_float
from .exact_linalg import IntPolynomial
from .polyalg import (
    coprime_base,
    cyclotomic,
    cyclotomic_factors,
    exact_quotient,
    is_squarefree,
    product_polynomial,
    ratio_polynomial,
    squarefree_parts,
)
from .reidemeister import ReidemeisterSequence, is_infinite
from .zeta import ExponentialSum

__all__ = ["DominantTerm", "DominantSpectrum", "Classification",
           "dominant_spectrum", "classify_limit_points", "limit_points_sample"]

_Q_CAP = 10 ** 6  # largest period reported; a larger lcm is indeterminate
_BOUNDS_BITS = 256  # fixed precision of the reported lambda_bounds
_CELL_STEP = Fraction(1, 1 << 64)  # width of a settled lambda cell


@dataclass(frozen=True)
class DominantTerm:
    poly: IntPolynomial
    chi: int
    root_indices: tuple  # CRootOf indices of the dominant roots, ascending
    roots: tuple = field(compare=False, repr=False)  # their enclosures


@dataclass(frozen=True)
class DominantSpectrum:
    lam: float
    lam_bounds: tuple  # certified (lo, hi) Fractions
    count: int
    dominant_terms: tuple


@dataclass(frozen=True)
class Classification:
    kind: str  # "periodic" | "interval" | "indeterminate"
    period: Optional[int]
    detail: str


class _RealCandidate:
    """A positive real root with an exact identity key (its element of the
    coprime base and index) and refinable rational intervals."""

    def __init__(self, key, multiplicity, root):
        self.key = key
        self.multiplicity = multiplicity
        self.root = root

    def interval(self, bits):
        return self.root.box(bits)[:2]


def _positive_real_candidates(polys) -> list:
    """For each polynomial of degree >= 1, its positive real roots as
    _RealCandidate items.  The square-free parts of all of them are refined
    into one coprime base, whose elements are isolated once each; a root's
    key is (base element, index) and its multiplicity the exponent of the
    part the base element divides."""
    parts = [(t, part, k) for t, p in enumerate(polys) for part, k in squarefree_parts(p)]
    out = [[] for _ in polys]
    for j, (b, labels) in enumerate(coprime_base([part for _, part, _ in parts])):
        roots = [(idx, e) for idx, e in enumerate(poly_root_enclosures(b))
                 if e.is_real and e.real_sign() > 0]
        for label in labels:
            t, _, k = parts[label]
            out[t] += [_RealCandidate((j, idx), k, e) for idx, e in roots]
    return out


def _max_candidate(cands):
    best = cands[0]
    for c in cands[1:]:
        if c.key == best.key:
            continue
        if decide_order(best.interval, c.interval) < 0:
            best = c
    return best


def dominant_spectrum(es: ExponentialSum) -> DominantSpectrum:
    """lambda, the number of roots on the circle |z| = lambda, and which
    roots of which terms are dominant.

    A tied top group goes through its terms' product polynomials.  An empty
    exponential sum (identically zero sequence) reports lambda = 0 with
    count 0.  A term with a repeated root raises InputError: the product
    polynomial counts ordered pairs of roots, so a repeated root's count is
    not the number of its enclosures.
    """
    if not es.terms:
        return DominantSpectrum(lam=0.0, lam_bounds=(Fraction(0), Fraction(0)),
                                count=0, dominant_terms=())
    for poly, _ in es.terms:
        if not is_squarefree(poly):
            raise InputError(f"exponential-sum polynomial {poly.coeffs} has a "
                             "repeated root")
    for poly, _ in es.terms:
        # square-free, so a*x (or a constant) is the one term with no
        # nonzero root, and no positive |root|^2
        if not any(poly.coeffs[:-1]):
            raise InputError(
                f"no positive real candidate for |root|^2 of {poly.coeffs}; "
                "exponential-sum polynomial is degenerate")
    encls = [poly_root_enclosures(poly) for poly, _ in es.terms]
    group = _top_group(encls)
    tied = sorted({t for t, _ in group})
    if _separated(group):
        roots = sorted((e for _, e in group), key=lambda e: e.index)
        # |root|^2 on a cell boundary (|root| = 1, say) is read off the
        # product polynomial, whose rational roots are exact points; the
        # unpadded cell catches it before modulus_cell asks CRootOf
        square = roots[0].modsq(_BOUNDS_BITS)
        if _settled((interval_sqrt(*square), square)):
            cell = modulus_cell(lambda r: r.modsq(_BOUNDS_BITS), roots[0])
            if _settled(cell):
                poly, chi = es.terms[tied[0]]
                term = DominantTerm(poly=poly, chi=chi, roots=tuple(roots),
                                    root_indices=tuple(e.index for e in roots))
                return DominantSpectrum(lam=_lambda(cell), lam_bounds=cell[0],
                                        count=len(roots), dominant_terms=(term,))
    return _coprime_spectrum([es.terms[t] for t in tied], [encls[t] for t in tied])


def _top_group(encls) -> list:
    """(term, enclosure) for every root whose |root|^2 is not provably below
    the largest, refined up the precision ladder until the group is one real
    root or one conjugate pair, or to _BOUNDS_BITS."""
    group = [(t, e) for t, roots in enumerate(encls) for e in roots]
    for bits in precision_ladder():
        cells = [(t, e, e.modsq(bits)) for t, e in group]
        floor = max(lo for _, _, (lo, _) in cells)
        group = [(t, e) for t, e, (_, hi) in cells if hi >= floor]
        if bits >= _BOUNDS_BITS or _separated(group):
            return group


def _separated(group) -> bool:
    """Whether the group is one real root or one conjugate pair of one term,
    told by structure: an engine pair shares its disk, and CRootOf lists
    each pair at indices n_real + 2k and n_real + 2k + 1."""
    if len({t for t, _ in group}) != 1:
        return False
    roots = [e for _, e in group]
    if len(roots) == 1:
        return roots[0].is_real
    if len(roots) != 2 or roots[0].is_real or roots[1].is_real:
        return False
    a, b = roots
    if a.disk is not None and a.disk is b.disk:
        return True
    i, j = sorted((a.index, b.index))
    return j == i + 1 and (i - a.n_real) % 2 == 0


def _settled(cell) -> bool:
    """Whether a modulus_cell result is one 2^-64 step of lambda and one
    float of lambda^2, which every narrower interval around the value gives
    too."""
    (lam_lo, lam_hi), (s_lo, s_hi) = cell
    try:
        return lam_hi - lam_lo == _CELL_STEP and float(s_lo) == float(s_hi)
    except OverflowError:
        return True  # _lambda reports it


def _lambda(cell) -> float:
    _, (s_lo, s_hi) = cell
    return math.sqrt(finite_float("lambda", lambda: (float(s_lo) + float(s_hi)) / 2))


def _coprime_spectrum(terms, encls) -> DominantSpectrum:
    """dominant_spectrum of the terms, with their enclosures, through the
    product polynomials: the largest positive real root over the coprime
    base of their square-free parts, counted by its exponent."""
    best = [_max_candidate(cands) for cands in _positive_real_candidates(
        [product_polynomial(poly) for poly, _ in terms])]
    overall = _max_candidate(best)
    dominant = []
    count = 0
    for (poly, chi), encl, cand in zip(terms, encls, best):
        if cand.key != overall.key:
            continue
        count += cand.multiplicity
        roots = _dominant_roots(poly, encl, cand)
        dominant.append(DominantTerm(poly=poly, chi=chi, roots=roots,
                                     root_indices=tuple(e.index for e in roots)))
    cell = modulus_cell(lambda r: r.box(_BOUNDS_BITS)[:2], overall.root)
    return DominantSpectrum(lam=_lambda(cell), lam_bounds=cell[0], count=count,
                            dominant_terms=tuple(dominant))


def _dominant_roots(poly: IntPolynomial, encl, cand: _RealCandidate) -> tuple:
    """The enclosures of the roots of poly, from its list encl, with |root|^2
    equal to the dominant value, by CRootOf index: non-dominant roots
    separate under refinement, so refine until exactly ``multiplicity``
    survivors remain."""
    for bits in precision_ladder():
        s_lo, s_hi = cand.interval(bits)
        alive = [e for e in encl
                 if e.modsq(bits)[1] >= s_lo and e.modsq(bits)[0] <= s_hi]
        if len(alive) == cand.multiplicity:
            return tuple(sorted(alive, key=lambda e: e.index))
    raise PrecisionError(
        f"could not isolate the dominant roots of {poly.coeffs}")


def _conjugate_ratio_order(poly: IntPolynomial, root):
    """Order m when root / conj(root), for a root of poly, is a primitive
    m-th root of unity, or None when it is provably not a root of unity.

    The ratio is a root of the ratio polynomial rp, and a root of unity
    exactly when it is a root of one of rp's cyclotomic factors.  When rp has
    any, the ratio is placed among the roots of those factors and of the
    square-free parts of the cofactor, which are pairwise coprime."""
    rp = ratio_polynomial(poly)
    cyclo = cyclotomic_factors(rp)
    if not cyclo:
        return None
    pieces = []
    for m, mult in cyclo:
        g = cyclotomic(m)
        pieces.append((m, g))
        rp = exact_quotient(rp, g.pow(mult))
    if rp.degree > 0:
        pieces += [(None, part) for part, _ in squarefree_parts(rp)]
    piece_roots = [(i, r) for i, (_, g) in enumerate(pieces)
                   for r in poly_root_enclosures(g)]
    for bits in precision_ladder():
        b = root.box(bits)
        rb = box_div(b, box_conj(b))
        alive = {i for i, r in piece_roots if boxes_intersect(r.box(bits), rb)}
        if len(alive) == 1:
            return pieces[alive.pop()][0]
    raise PrecisionError("could not identify the conjugate ratio among the "
                         "ratio polynomial roots")


def classify_limit_points(ds: DominantSpectrum) -> Classification:
    """Trichotomy for the limit set of R_n / lambda^n.

    Periodic{q} when every dominant angle is an exact rational multiple of a
    turn (decided by cyclotomic identification); IntervalContaining when some
    dominant angle is certified irrational; Indeterminate when enclosures hit
    the precision ceiling or the period exceeds _Q_CAP.
    """
    if ds.count == 0:
        return Classification(kind="periodic", period=1,
                              detail="identically zero sequence; limit set {0}")
    periods = []
    try:
        for term in ds.dominant_terms:
            for e in term.roots:
                if e.is_real:
                    periods.append(1 if e.real_sign() > 0 else 2)
                    continue
                # one representative per conjugate pair: positive imaginary part
                if real_part_sign(lambda bits, e=e:
                                  (e.box(bits)[2], e.box(bits)[3],
                                   Fraction(0), Fraction(0))) < 0:
                    continue
                m = _conjugate_ratio_order(term.poly, e)
                if m is None:
                    return Classification(
                        kind="interval", period=None,
                        detail="a dominant angle is irrational (conjugate ratio "
                               "is not a root of unity); Kronecker density gives "
                               "an interval of limit points")
                if m % 2 == 0:
                    periods.append(2 * m)
                else:
                    sign = real_part_sign(
                        lambda bits, e=e, m=m: box_pow(e.box(bits), m))
                    periods.append(m if sign > 0 else 2 * m)
    except PrecisionError as exc:
        return Classification(kind="indeterminate", period=None,
                              detail=f"precision ceiling reached: {exc}")
    q = lcm(*periods)
    if q > _Q_CAP:
        return Classification(kind="indeterminate", period=None,
                              detail=f"period {q} exceeds the cap {_Q_CAP}")
    return Classification(kind="periodic", period=q,
                          detail=f"all dominant angles rational; period {q}")


def limit_points_sample(seq, ds: DominantSpectrum, N: int) -> list:
    """Float samples R_n / lambda^n for n = 1..N (inspection/plotting)."""
    values = seq.values if isinstance(seq, ReidemeisterSequence) else seq
    N = min(N, len(values))
    out = []
    for n in range(1, N + 1):
        v = values[n - 1]
        if is_infinite(v):
            raise InputError("cannot sample an infinite entry")
        if ds.lam == 0.0:
            out.append(0.0)
        elif v == 0:
            out.append(0.0)
        else:
            # the sign comes from comparing v, not from float(v), which
            # overflows for long sequences
            size = math.exp(math.log(abs(v)) - n * math.log(ds.lam))
            out.append(size if v > 0 else -size)
    return out
