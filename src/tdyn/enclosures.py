"""Certified rational enclosures of algebraic numbers.

sympy's CRootOf provides rigorous isolating rectangles for the roots of exact
integer polynomials, refinable to arbitrary precision.  This module wraps
them in plain Fraction interval arithmetic (boxes with rational corners) so
that modulus comparisons, sign determinations and root identifications are
either decided exactly or raise PrecisionError at the ceiling; nothing is
ever guessed from floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Callable

import sympy

from .errors import InputError, PrecisionError
from .exact_linalg import IntPolynomial
from .polyalg import to_sympy

__all__ = [
    "Box",
    "RootEnclosure",
    "poly_root_enclosures",
    "real_root_enclosures",
    "box_conj",
    "box_mul",
    "box_pow",
    "box_div",
    "boxes_intersect",
    "modsq_box",
    "interval_sqrt",
    "decide_order",
    "real_part_sign",
    "precision_ladder",
    "START_BITS",
    "MAX_BITS",
]

Box = tuple  # (re_lo, re_hi, im_lo, im_hi), all Fraction

# refinement starts coarse and doubles: most comparisons settle at 8 bits,
# and the ladder still passes every power of two up to the ceiling
START_BITS = 8
MAX_BITS = 1024
# undecided comparisons below this width are reported, not refined further
CEILING_WIDTH = Fraction(1, 10 ** 30)


def precision_ladder():
    """The doubling precisions START_BITS, 2*START_BITS, ... <= MAX_BITS."""
    bits = START_BITS
    while bits <= MAX_BITS:
        yield bits
        bits *= 2


def _frac(x) -> Fraction:
    r = sympy.Rational(x)
    return Fraction(int(r.p), int(r.q))


def _crootof_box(root, bits: int) -> Box:
    delta = Fraction(1, 2 ** bits)
    d = sympy.Rational(1, 2 ** bits)
    if root.is_real:
        c = _frac(root.eval_rational(d))
        return (c - delta, c + delta, Fraction(0), Fraction(0))
    val = root.eval_rational(d, d)
    re, im = val.as_real_imag()
    cre, cim = _frac(re), _frac(im)
    return (cre - delta, cre + delta, cim - delta, cim + delta)


def _expr_box(expr, bits: int) -> Box:
    """Rational box evaluation of expressions built from Rational, I and
    CRootOf leaves with +, * and integer powers (the forms sympy's root
    preprocessing can emit)."""
    if isinstance(expr, sympy.polys.rootoftools.ComplexRootOf):
        return _crootof_box(expr, bits)
    if expr.is_Rational:
        c = _frac(expr)
        return (c, c, Fraction(0), Fraction(0))
    if expr is sympy.I:
        return (Fraction(0), Fraction(0), Fraction(1), Fraction(1))
    if expr.is_Add:
        acc = (Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        for arg in expr.args:
            b = _expr_box(arg, bits)
            acc = (acc[0] + b[0], acc[1] + b[1], acc[2] + b[2], acc[3] + b[3])
        return acc
    if expr.is_Mul:
        acc = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
        for arg in expr.args:
            acc = box_mul(acc, _expr_box(arg, bits))
        return acc
    if expr.is_Pow and expr.exp.is_Integer and expr.exp >= 0:
        return box_pow(_expr_box(expr.base, bits), int(expr.exp))
    raise InputError(f"cannot enclose symbolic root expression {expr}")


@dataclass
class RootEnclosure:
    """One root of an exact integer polynomial, with refinable rational boxes."""

    poly: IntPolynomial
    index: int

    def __post_init__(self):
        # sympy eagerly rewrites some roots (rational, Gaussian rational,
        # rescalings like 2*CRootOf(x^2+1, 0)); keep the expression and
        # evaluate it structurally into rational boxes
        self._expr = sympy.CRootOf(to_sympy(self.poly).as_expr(), self.index,
                                   radicals=False)
        self._boxes = {}

    @property
    def is_real(self) -> bool:
        return bool(self._expr.is_real)

    def box(self, bits: int) -> Box:
        if bits in self._boxes:
            return self._boxes[bits]
        out = _expr_box(self._expr, bits)
        self._boxes[bits] = out
        return out

    def modsq(self, bits: int):
        return modsq_box(self.box(bits))

    def real_sign(self) -> int:
        """Exact sign of a real root (the root must be nonzero)."""
        if not self.is_real:
            raise InputError("real_sign of a non-real root")
        for bits in precision_ladder():
            lo, hi, _, _ = self.box(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        raise PrecisionError("could not separate a real root from zero")


def poly_root_enclosures(p: IntPolynomial) -> list:
    """Enclosures for all roots of p, one entry per root counted with
    multiplicity (p.degree entries), in sympy's canonical order: real roots
    ascending, then complex by real part with conjugates adjacent, negative
    imaginary part first."""
    if p.is_zero or p.degree < 1:
        return []
    return [RootEnclosure(p, i) for i in range(p.degree)]


def real_root_enclosures(p: IntPolynomial) -> list:
    """The real entries of poly_root_enclosures(p), with the same indices:
    real roots come first in sympy's order, so only they are isolated."""
    if p.is_zero or p.degree < 1:
        return []
    n_real = len(to_sympy(p).real_roots(radicals=False))
    return [RootEnclosure(p, i) for i in range(n_real)]


def _imul(a: Box, b: Box, i: int, j: int):
    # interval product of component intervals [a[i], a[i+1]] and [b[j], b[j+1]]
    products = (a[i] * b[j], a[i] * b[j + 1], a[i + 1] * b[j], a[i + 1] * b[j + 1])
    return min(products), max(products)


def box_conj(b: Box) -> Box:
    return (b[0], b[1], -b[3], -b[2])


def box_mul(a: Box, b: Box) -> Box:
    rr = _imul(a, b, 0, 0)
    ii = _imul(a, b, 2, 2)
    ri = _imul(a, b, 0, 2)
    ir = _imul(a, b, 2, 0)
    return (rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1])


def box_pow(b: Box, k: int) -> Box:
    if k < 0:
        raise InputError("box_pow needs a nonnegative exponent")
    out = (Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    base = b
    while k:
        if k & 1:
            out = box_mul(out, base)
        k >>= 1
        if k:
            base = box_mul(base, base)
    return out


def modsq_box(b: Box):
    def sq_interval(lo, hi):
        if lo <= 0 <= hi:
            return Fraction(0), max(lo * lo, hi * hi)
        lo2, hi2 = lo * lo, hi * hi
        return min(lo2, hi2), max(lo2, hi2)

    rlo, rhi = sq_interval(b[0], b[1])
    ilo, ihi = sq_interval(b[2], b[3])
    return rlo + ilo, rhi + ihi


def box_div(a: Box, b: Box) -> Box:
    """a / b; requires 0 strictly outside b (modsq lower bound positive)."""
    mlo, mhi = modsq_box(b)
    if mlo <= 0:
        raise PrecisionError("division by a box containing zero")
    num = box_mul(a, box_conj(b))

    def div_interval(lo, hi):
        candidates = (lo / mlo, lo / mhi, hi / mlo, hi / mhi)
        return min(candidates), max(candidates)

    rlo, rhi = div_interval(num[0], num[1])
    ilo, ihi = div_interval(num[2], num[3])
    return (rlo, rhi, ilo, ihi)


def boxes_intersect(a: Box, b: Box) -> bool:
    return not (a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2])


def interval_sqrt(lo: Fraction, hi: Fraction, bits: int = 64):
    """Rational bounds for sqrt on a nonnegative interval."""
    if lo < 0:
        raise InputError("interval_sqrt of a negative interval")
    k = 1 << bits

    def sqrt_lower(f: Fraction) -> Fraction:
        return Fraction(isqrt((f.numerator * k * k) // f.denominator), k)

    def sqrt_upper(f: Fraction) -> Fraction:
        return Fraction(isqrt((f.numerator * k * k) // f.denominator) + 1, k)

    return sqrt_lower(lo), sqrt_upper(hi)


def decide_order(fa: Callable, fb: Callable) -> int:
    """Strict order of two refinable real intervals: -1 (a < b) or 1 (a > b).

    fa/fb map a bit precision to rational (lo, hi).  Raises PrecisionError
    when the intervals still overlap at the ceiling (values equal, or closer
    than the certification limit).
    """
    for bits in precision_ladder():
        alo, ahi = fa(bits)
        blo, bhi = fb(bits)
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        if (ahi - alo) < CEILING_WIDTH and (bhi - blo) < CEILING_WIDTH:
            break
    raise PrecisionError(
        "intervals overlap at the precision ceiling; values are equal or "
        "indistinguishable below width 1e-30")


def real_part_sign(box_fn: Callable) -> int:
    """Sign of the real part of a box-valued quantity known to be nonzero."""
    for bits in precision_ladder():
        b = box_fn(bits)
        if b[0] > 0:
            return 1
        if b[1] < 0:
            return -1
    raise PrecisionError("could not determine the sign of a real part")
