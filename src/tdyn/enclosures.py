"""Certified rational enclosures of algebraic numbers.

The root of a linear polynomial c1 x + c0 is the exact point -c0/c1, the
value CRootOf returns for it, so no sympy expression is built.  The roots of
an integer polynomial p of degree n >= 2 come from a certified engine.
Durand-Kerner seeds them in double precision (mpmath.polyroots' iteration
and start points); when that overflows, it runs once more on p(2^e x) with
2^e above Fujiwara's root bound.  Newton steps in exact dyadic (integer)
arithmetic refine the seeds, and each approximation z is certified by its
inclusion disk |w - z| <= n |p(z)/p'(z)|, which holds a root w of p (Rump,
"Ten methods to bound multiple roots of polynomials", JCAM 2003; Neumaier,
"Enclosing clusters of zeros of polynomials", JCAM 2003).  So n
pairwise-disjoint disks hold one root each, and a disk centred on the real
axis holds a real root.  A refined disk is accepted only inside the disk it
refines, so it keeps its root.

The roots are listed real ones first, ascending, which is CRootOf's order
for them, so a real root's index is its position.  Each certified
conjugate pair follows, the conjugate right before its root.  A non-real
root's CRootOf index is found only when it is read: on a polynomial with one
non-real pair it is n_real for the conjugate and n_real + 1 for the root;
otherwise it is the one CRootOf(p, i) whose box meets the root's box on the
precision ladder, which costs sympy's complex isolation of p.  Moduli and
angles, all that growth rates and the trichotomy need, never ask for it.

sympy's CRootOf bisection is the fallback, used only where the certificate
fails, and the test oracle; sympy is imported only there.  A polynomial whose double-precision seeds do
not converge, even after rescaling, or whose disks do not separate (which
includes every polynomial with a repeated root), is enclosed by CRootOf
throughout; its real roots are counted by continued fractions on its
square-free parts, with no factoring, so ``is_real`` builds no CRootOf.  A
root whose Newton step leaves its disk is placed among CRootOf's roots by
the disk as it stands, and takes CRootOf boxes from then on.  CRootOf boxes come from its isolating intervals, refined as
eval_rational refines them, without building a sympy expression.

A reported 64-bit cell that lies within GUARD of a grid point or a float
rounding boundary is recomputed from CRootOf boxes (``modulus_cell``), so
printed values do not depend on the route.  Boxes are plain Fraction
interval arithmetic: comparisons are decided exactly or raise PrecisionError
at the ceiling, and nothing is ever guessed from floats.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Optional

from .errors import InputError, PrecisionError
from .exact_linalg import IntPolynomial
from .polyalg import real_root_count, to_sympy

__all__ = [
    "Box",
    "RootEnclosure",
    "poly_root_enclosures",
    "box_conj",
    "box_mul",
    "box_pow",
    "box_div",
    "boxes_intersect",
    "modsq_box",
    "interval_sqrt",
    "modulus_cell",
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
# a reported value this close to a 2^-64 grid point or a float rounding
# boundary is recomputed from CRootOf boxes
GUARD = Fraction(1, 1 << 180)

_GRID = 96        # grid 2^-_GRID of the seeds; one Newton step doubles it
_CELL = 1 << 64   # reported moduli are cells of width 2^-64


def precision_ladder():
    """The doubling precisions START_BITS, 2*START_BITS, ... <= MAX_BITS."""
    bits = START_BITS
    while bits <= MAX_BITS:
        yield bits
        bits *= 2


def _crootof_box(value, bits: int) -> Box:
    """Box of CRootOf's value c * root: a rational c, or c > 0 times a
    CRootOf root.  root's isolating interval is refined to size 2^-bits as
    eval_rational does, without building the value as a sympy expression,
    and its box of half-width 2^-bits around the centre is scaled by c."""
    import sympy
    c, root = value.as_coeff_Mul()
    c = Fraction(int(c.p), int(c.q))
    if root is sympy.S.One:
        return (c, c, Fraction(0), Fraction(0))
    delta = Fraction(1, 1 << bits)
    d = sympy.Rational(1, 1 << bits)
    iv = root._get_interval()
    if root.is_real:
        iv = iv.refine_size(dx=d)
        re, im, dy = iv.center, 0, 0
    else:
        iv = iv.refine_size(dx=d, dy=d)
        (re, im), dy = iv.center, delta
        if root.is_imaginary:
            re = 0
    root._set_interval(iv)
    cre, cim = (Fraction(int(v.numerator), int(v.denominator)) for v in (re, im))
    return (c * (cre - delta), c * (cre + delta), c * (cim - dy), c * (cim + dy))


# ---------------------------------------------------------------- the engine

def _horner(coeffs, x: int, y: int, k: int):
    """2^(k*deg) * p((x + iy) / 2^k) as a Gaussian integer (re, im), for
    ascending integer coefficients."""
    n = len(coeffs) - 1
    re, im = coeffs[n], 0
    for j in range(n - 1, -1, -1):
        re, im = re * x - im * y, re * y + im * x
        re += coeffs[j] << (k * (n - j))
    return re, im


def _inclusion_radius(coeffs, dcoeffs, x: int, y: int, k: int):
    """Integer upper bound of 2^k * n |p(z)| / |p'(z)| for p of degree n with
    derivative dcoeffs, z = (x + iy) / 2^k; None when p'(z) = 0."""
    n = len(coeffs) - 1
    pr, pi = _horner(coeffs, x, y, k)
    dr, di = _horner(dcoeffs, x, y, k)
    den = dr * dr + di * di
    if den == 0:
        return None
    # p(z) = P / 2^(kn) and p'(z) = P' / 2^(k(n-1)), so the radius times 2^k
    # is n |P| / |P'|
    q = -(-(n * n * (pr * pr + pi * pi)) // den)
    s = isqrt(q)
    return s if s * s == q else s + 1


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, for b > 0."""
    return (2 * a + b) // (2 * b)


class _Disk:
    """The disk |w - z| <= rad / 2^k around z = (x + iy) / 2^k.  Once
    certified it holds exactly one root w of p: a real one when y = 0,
    otherwise the one in the upper half-plane."""

    __slots__ = ("coeffs", "dcoeffs", "x", "y", "k", "rad")

    def __init__(self, coeffs, dcoeffs, x: int, y: int, k: int):
        self.coeffs, self.dcoeffs = coeffs, dcoeffs  # p and p', ascending
        self.x, self.y, self.k = x, y, k
        self.rad = None  # set by the first step

    def _newton(self, k2: int):
        """One Newton step from z, on the grid 2^-k2 (k2 >= k)."""
        x, y, k = self.x, self.y, self.k
        pr, pi = _horner(self.coeffs, x, y, k)
        dr, di = _horner(self.dcoeffs, x, y, k)
        den = dr * dr + di * di
        if den == 0:
            return None
        # z - p(z)/p'(z) = z - P conj(P') / (|P'|^2 2^k)
        s = k2 - k
        return ((x << s) - _round_div((pr * dr + pi * di) << s, den),
                (y << s) - _round_div((pi * dr - pr * di) << s, den))

    def step(self, k2: int) -> bool:
        """Newton step that sets the radius, before the disks are certified."""
        z = self._newton(k2)
        if z is None:
            return False
        self.x, self.y, self.k = z[0], z[1], k2
        self.rad = _inclusion_radius(self.coeffs, self.dcoeffs, z[0], z[1], k2)
        return self.rad is not None

    def refine(self, bits: int) -> bool:
        """Shrink the certified disk to radius <= 2^-bits.  False when a Newton
        step leaves the disk or stalls; the disk is then left unchanged."""
        while self.rad.bit_length() > self.k - bits:
            acc = self.k - self.rad.bit_length()  # radius < 2^-acc
            # never coarser than the current grid, which a wide disk would ask for
            k2 = max(2 * acc + 16, bits + 16, self.k)
            z = self._newton(k2)
            rad2 = (None if z is None else
                    _inclusion_radius(self.coeffs, self.dcoeffs, z[0], z[1], k2))
            if rad2 is None or k2 - rad2.bit_length() <= acc:
                return False
            # accept only a disk inside the old one: |z2 - z| + r2 <= r
            s = k2 - self.k
            outer = self.rad << s
            dx, dy = z[0] - (self.x << s), z[1] - (self.y << s)
            if rad2 > outer or dx * dx + dy * dy > (outer - rad2) ** 2:
                return False
            self.x, self.y, self.k, self.rad = z[0], z[1], k2, rad2
        return True

    def box(self, bits: int) -> Box:
        """Box of half-width 2^-bits holding the root, centred on the grid
        2^-(bits+2); needs refine(bits + 1) first."""
        g = bits + 2
        s = self.k - g
        if s > 0:
            half = 1 << (s - 1)
            cx, cy = (self.x + half) >> s, (self.y + half) >> s
        else:
            cx, cy, g = self.x, self.y, self.k
        d = Fraction(1, 1 << bits)
        cre = Fraction(cx, 1 << g)
        if self.y == 0:
            return (cre - d, cre + d, Fraction(0), Fraction(0))
        cim = Fraction(cy, 1 << g)
        return (cre - d, cre + d, cim - d, cim + d)

    def square(self) -> Box:
        """The square circumscribing the disk as it stands."""
        r, g = Fraction(self.rad, 1 << self.k), 1 << self.k
        cre, cim = Fraction(self.x, g), Fraction(self.y, g)
        return (cre - r, cre + r, cim - r, cim + r)


def _disjoint(reals, uppers) -> bool:
    """Whether the disks (uppers with their conjugates), all on one grid,
    are pairwise disjoint."""
    pts = [(d.x, d.y, d.rad) for d in reals]
    pts += [(d.x, s * d.y, d.rad) for d in uppers for s in (1, -1)]
    for i, (x1, y1, r1) in enumerate(pts):
        for x2, y2, r2 in pts[i + 1:]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                return False
    return True


def _durand_kerner(coeffs):
    """Durand-Kerner in double precision, with mpmath.polyroots' iteration
    and start points: the approximate roots, or None when it does not
    converge.  Raises OverflowError when a value leaves the double range."""
    tol = 2.0 ** -30
    n = len(coeffs) - 1
    a = [c / coeffs[-1] for c in coeffs]
    roots = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(200):
        converged = True
        for i, z in enumerate(roots):
            v = 0j
            for c in reversed(a):
                v = v * z + c
            for j, w in enumerate(roots):
                if j != i:
                    v /= z - w
            roots[i] = z - v
            # a NaN fails this test too
            converged = converged and abs(v) < tol * max(1.0, abs(z))
        if converged:
            return roots
    # a NaN only comes from an infinity
    if not all(cmath.isfinite(z) for z in roots):
        raise OverflowError("Durand-Kerner left the double range")
    return None


def _fujiwara_exponent(coeffs) -> int:
    """An e with every root of p below 2^e in modulus: Fujiwara's bound
    2 max |a_(n-k)/a_n|^(1/k), rounded up to a power of two."""
    n = len(coeffs) - 1
    lead = abs(coeffs[-1]).bit_length()
    return 1 + max(-(-(abs(c).bit_length() - lead + 1) // (n - j))
                   for j, c in enumerate(coeffs[:-1]) if c)


def _float_seeds(coeffs):
    """The approximate roots of _durand_kerner as (x, y) on the grid
    2^-_GRID, upper half-plane and real axis only, with imaginary parts below
    2^-30 max(1, |z|) snapped to 0; None when it fails.  When the plain
    iteration overflows it runs once more on p(2^e x), e from the Fujiwara
    bound, and the roots are scaled back by 2^e."""
    tol = 2.0 ** -30
    e = 0
    try:
        try:
            roots = _durand_kerner(coeffs)
        except OverflowError:
            e = _fujiwara_exponent(coeffs)
            if e <= 0:
                return None
            roots = _durand_kerner([c << (e * j) for j, c in enumerate(coeffs)])
        if roots is None:
            return None
        scale = 1 << _GRID
        seeds = []
        for z in roots:
            im = z.imag if abs(z.imag) > tol * max(1.0, abs(z)) else 0.0
            if im >= 0:
                seeds.append((round(z.real * scale) << e, round(im * scale) << e))
        return seeds
    except (OverflowError, ZeroDivisionError):
        return None


def _certify(p: IntPolynomial, seeds):
    """(real disks ascending, upper-half-plane disks) from the seeds after one
    Newton step, or None unless they are n pairwise-disjoint disks."""
    n = p.degree
    dcoeffs = p.derivative().coeffs
    reals = [_Disk(p.coeffs, dcoeffs, x, 0, _GRID) for x, y in seeds if y == 0]
    uppers = [_Disk(p.coeffs, dcoeffs, x, y, _GRID) for x, y in seeds if y > 0]
    if len(reals) + 2 * len(uppers) != n:
        return None
    if not all(d.step(2 * _GRID) for d in reals + uppers):
        return None
    if any(d.y < 0 for d in uppers) or not _disjoint(reals, uppers):
        return None
    reals.sort(key=lambda d: d.x)
    return reals, uppers


def _certified_roots(p: IntPolynomial):
    """(real disks ascending, upper-half-plane disks) for p of degree >= 2, or
    None when the disks cannot be certified.  n disjoint disks hold n distinct
    roots, so a repeated root of p always ends in None."""
    seeds = _float_seeds(p.coeffs)
    return None if seeds is None else _certify(p, seeds)


def _crootof_index(p: IntPolynomial, first: int, box: Callable) -> int:
    """The index i >= first of the non-real root of p that box encloses: the
    one CRootOf(p, i) whose box keeps meeting box(bits) up the ladder."""
    import sympy
    q = to_sympy(p)
    left = [(i, sympy.CRootOf(q, i, radicals=False)) for i in range(first, p.degree)]
    for bits in precision_ladder():
        b = box(bits)
        left = [(i, r) for i, r in left if boxes_intersect(_crootof_box(r, bits), b)]
        if len(left) == 1:
            return left[0][0]
    raise PrecisionError(f"could not place a root of {p.coeffs} among CRootOf's roots")


@dataclass(eq=False)
class RootEnclosure:
    """One root of an exact integer polynomial, with refinable rational boxes:
    the exact point of a linear polynomial, a certified engine disk, or
    sympy's CRootOf when both are None.  ``index`` is the root's CRootOf
    index; None until read for a non-real engine root whose polynomial has
    several non-real pairs."""

    poly: IntPolynomial
    _index: Optional[int]
    disk: Optional[_Disk] = field(default=None, repr=False)
    # the root is the conjugate of the disk's upper-half-plane root
    conjugate: bool = field(default=False, repr=False)
    # the root -c0/c1 of a linear polynomial, which CRootOf also returns exactly
    point: Optional[Fraction] = field(default=None, repr=False)
    # the number of real roots of poly, which CRootOf indexes first, if known
    n_real: Optional[int] = field(default=None, repr=False)

    def __post_init__(self):
        self._expr = None
        self._boxes = {}

    @property
    def index(self) -> int:
        if self._index is None:
            self._index = _crootof_index(self.poly, self.n_real, self.box)
        return self._index

    def _crootof(self):
        if self._expr is None:
            # a Rational, a CRootOf or an integer times a CRootOf, as sympy
            # rewrites roots of reducible or rescaled polynomials (_crootof_box)
            import sympy
            self._expr = sympy.CRootOf(to_sympy(self.poly), self.index, radicals=False)
        return self._expr

    def oracle(self) -> "RootEnclosure":
        """The same root, enclosed by sympy's CRootOf bisection."""
        return RootEnclosure(self.poly, self.index)

    @property
    def is_real(self) -> bool:
        if self.point is not None:
            return True
        if self.disk is not None:
            return self.disk.y == 0
        if self.n_real is not None:
            return self.index < self.n_real
        return bool(self._crootof().is_real)

    def box(self, bits: int) -> Box:
        if self.point is not None:
            return (self.point, self.point, Fraction(0), Fraction(0))
        if bits in self._boxes:
            return self._boxes[bits]
        if self.disk is not None and not self.disk.refine(bits + 1):
            # Newton left the certified disk: place the root by the disk as
            # it stands, then use CRootOf
            if self._index is None:
                held = self._oriented(self.disk.square())
                self._index = _crootof_index(self.poly, self.n_real, lambda _: held)
            self.disk = None
        if self.disk is None:
            out = _crootof_box(self._crootof(), bits)
        else:
            out = self._oriented(self.disk.box(bits))
        self._boxes[bits] = out
        return out

    def _oriented(self, b: Box) -> Box:
        return box_conj(b) if self.conjugate else b

    def modsq(self, bits: int):
        return modsq_box(self.box(bits))

    def real_sign(self) -> int:
        """Exact sign of a real root (the root must be nonzero)."""
        if not self.is_real:
            raise InputError("real_sign of a non-real root")
        return real_part_sign(self.box)


def _linear_root(p: IntPolynomial) -> RootEnclosure:
    return RootEnclosure(p, 0, point=Fraction(-p.constant, p.leading))


def poly_root_enclosures(p: IntPolynomial) -> list:
    """Enclosures for all roots of p, one entry per root counted with
    multiplicity (p.degree entries): the real roots ascending, at their
    CRootOf indices, then each conjugate pair, the conjugate (negative
    imaginary part) right before its root.  A pair's indices are known when
    it is the only one; otherwise each is found when read.  The one entry
    point: a caller after the real roots takes the is_real entries."""
    if p.is_zero or p.degree < 1:
        return []
    if p.degree == 1:
        return [_linear_root(p)]
    found = _certified_roots(p)
    if found is None:
        n_real = real_root_count(p)
        return [RootEnclosure(p, i, n_real=n_real) for i in range(p.degree)]
    reals, uppers = found
    n_real = len(reals)
    out = [RootEnclosure(p, i, d, n_real=n_real) for i, d in enumerate(reals)]
    pair = (n_real, n_real + 1) if len(uppers) == 1 else (None, None)
    for d in uppers:
        out.append(RootEnclosure(p, pair[0], d, conjugate=True, n_real=n_real))
        out.append(RootEnclosure(p, pair[1], d, n_real=n_real))
    return out


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


def interval_sqrt(lo: Fraction, hi: Fraction):
    """The 64-bit cell of sqrt on a nonnegative interval: floor(sqrt(lo) 2^64)
    and floor(sqrt(hi) 2^64) + 1, over 2^64."""
    if lo < 0:
        raise InputError("interval_sqrt of a negative interval")

    def sqrt_lower(f: Fraction) -> Fraction:
        return Fraction(isqrt((f.numerator * _CELL * _CELL) // f.denominator), _CELL)

    def sqrt_upper(f: Fraction) -> Fraction:
        return Fraction(isqrt((f.numerator * _CELL * _CELL) // f.denominator) + 1,
                        _CELL)

    return sqrt_lower(lo), sqrt_upper(hi)


def _settled(lo: Fraction, hi: Fraction) -> bool:
    """Whether every value in [lo, hi] has the same 64-bit sqrt cell and the
    same float, with no grid point or rounding boundary inside."""
    if lo <= 0:
        return False
    try:
        if float(lo) != float(hi):
            return False
    except OverflowError:
        return False
    k2 = _CELL * _CELL
    s = isqrt((lo.numerator * k2) // lo.denominator)
    return (s == isqrt((hi.numerator * k2) // hi.denominator)
            and s * s * lo.denominator < lo.numerator * k2)


def modulus_cell(square: Callable, root: RootEnclosure):
    """((lo, hi), (s_lo, s_hi)) for v = sqrt(s) >= 0: the 64-bit cell of v
    (interval_sqrt) and the interval of s it came from.

    root is required; square(root) is a certified interval for s computed
    from its boxes (a point for the root of a linear polynomial).  The cell
    and the floats of s_lo and s_hi are what tdyn prints.  They equal the
    CRootOf route's whenever s's interval, widened by the CRootOf boxes'
    possibly larger width and by GUARD, has no grid point or float rounding
    boundary inside; otherwise s is recomputed from root's CRootOf boxes.
    """
    lo, hi = square(root)
    if root.disk is not None:
        # CRootOf boxes of a root of a polynomial that sympy rescales by c are
        # that much wider; c^(n - k) divides every a_k below the leading
        # term, so c divides their gcd
        pad = (gcd(*root.poly.coeffs[:-1]) + 1) * (hi - lo) + GUARD
        if not _settled(lo - pad, hi + pad):
            lo, hi = square(root.oracle())
    return interval_sqrt(max(lo, Fraction(0)), hi), (lo, hi)


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
