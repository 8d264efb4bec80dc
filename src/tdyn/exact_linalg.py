"""Exact dense linear algebra over arbitrary-precision integers and rationals.

The dense matrix has one implementation over Z and Q: BigIntMatrix and
RatMatrix share a base class that differs only in the entry type.  The one
polynomial class is IntPolynomial: a rational polynomial is read only for
its roots, so it is held as its primitive integer multiple.  Everything
here is immutable after construction and every operation is a pure
function, so values can be shared freely across threads.  Successive
matrix powers come from one loop (``powers``, one product per step).
Determinants use fraction-free Bareiss elimination; the Smith normal form,
their independent oracle, is sympy's and lives in ``polyalg``, so nothing
here imports sympy.  Newton's identities live here once in each direction,
in integers; ``from_power_sums`` builds every polynomial with roots r / c
for algebraic integers r: the characteristic polynomials of matrices that
are not upper Hessenberg, from the traces of integer matrix powers, those
of exterior powers, and polyalg's composed products and ratio polynomials.
An upper Hessenberg matrix, such as a companion block, takes the Hessenberg
recurrence instead, with no division and no matrix power.
``IntPolynomial.scaled`` is the one root scaling: by a leading
coefficient, by t, by a zeta scale or by 1 / c.

The iterated determinants det(phi^n - psi^n) have two routes, and both
yield integer numerators over a known power of the denominators.  For
commuting phi, psi with an invertible side and a long enough run they are
read off power sums of the exterior powers of psi^-1 phi, with no matrix
power and no elimination; every other run is one integer matrix product and
one Bareiss elimination per term (``power_difference_determinants``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from math import comb, gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import InputError

IntLike = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    """x as a Fraction; the one parser of rational text: an integer, a/b, or
    a decimal without an exponent, which Fraction would expand in full."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str) and "e" not in x.lower():
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot interpret {x!r} as an exact rational")


def _as_int(x) -> int:
    """x as an int; a value that is not an integer is rejected, not truncated."""
    if type(x) is int:
        return x
    q = _as_fraction(x)
    if q.denominator != 1:
        raise InputError(f"cannot interpret {x!r} as an exact integer")
    return q.numerator


@dataclass(frozen=True)
class _DenseMatrix:
    """Dense row-major matrix; a subclass fixes the entry type ``_entry`` and
    the converter ``_convert`` that from_rows applies to each entry.

    The constructor and from_rows check every entry's type.  Products,
    differences, sums and scalings of matrices of one type are built by
    ``_of``, which skips that check: their entries are sums of products of
    checked entries, so they have the entry type already.
    """

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise InputError("matrix dimensions must be at least 1x1")
        if len(self.entries) != self.rows * self.cols:
            raise InputError("entry count does not match rows*cols")
        entry = self._entry
        if not all(isinstance(e, entry) for e in self.entries):
            raise InputError(f"{type(self).__name__} entries must be {entry.__name__}s")

    @classmethod
    def _of(cls, rows: int, cols: int, entries: tuple):
        """The matrix of entries computed from checked ones, without the
        per-entry type check of the constructor."""
        m = object.__new__(cls)
        # a frozen dataclass sets its fields through object.__setattr__
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[IntLike]]):
        r = len(rows)
        if r == 0:
            raise InputError("no rows given")
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise InputError("ragged rows")
        return cls(r, c, tuple(map(cls._convert, chain.from_iterable(rows))))

    @classmethod
    def identity(cls, d: int):
        zero, one = cls._entry(0), cls._entry(1)
        return cls._of(d, d, tuple(one if i == j else zero for i in range(d) for j in range(d)))

    def get(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list:
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def str_rows(self) -> list:
        """The rows as lists of decimal strings ("3", "-1/2"), as printed."""
        return [[str(e) for e in row] for row in self.row_lists()]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def mul(self, other):
        """Matrix product that skips zero entries of both factors, so powers
        of block-diagonal matrices cost the sum of the cubes of the blocks."""
        if self.cols != other.rows:
            raise InputError("dimension mismatch in matrix product")
        n, p = self.cols, other.cols
        zero = self._entry(0)
        # the nonzero (column, entry) pairs of each row of other, sliced once
        other_rows = [[(j, b) for j, b in enumerate(other.entries[k * p:(k + 1) * p])
                       if b] for k in range(n)]
        out = []
        for i in range(self.rows):
            acc = [zero] * p
            for a, row in zip(self.entries[i * n:(i + 1) * n], other_rows):
                if a:
                    for j, b in row:
                        acc[j] += a * b
            out.extend(acc)
        return self._result(other)(self.rows, p, tuple(out))

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("dimension mismatch in matrix difference")
        return self._result(other)(self.rows, self.cols,
                                   tuple(a - b for a, b in zip(self.entries, other.entries)))

    def _result(self, other):
        """The constructor of a result computed from self and other: ``_of``
        when both have self's type, else the checking constructor."""
        cls = type(self)
        return cls._of if type(other) is cls else cls

    def trace(self):
        if not self.is_square:
            raise InputError("trace of a non-square matrix")
        return sum(self.entries[::self.cols + 1], self._entry(0))


class BigIntMatrix(_DenseMatrix):
    """Dense row-major matrix with arbitrary-precision integer entries."""

    _entry = int
    _convert = staticmethod(_as_int)
    mul = _DenseMatrix.mul

    @classmethod
    def block_diag(cls, blocks: Sequence["BigIntMatrix"]) -> "BigIntMatrix":
        if not blocks:
            raise InputError("block_diag needs at least one block")
        if not all(isinstance(b, cls) for b in blocks):
            raise InputError("block_diag blocks must be BigIntMatrix blocks")
        if not all(b.is_square for b in blocks):
            raise InputError("block_diag blocks must be square")
        n = sum(b.rows for b in blocks)
        out = []
        off = 0
        for b in blocks:
            left, right = [0] * off, [0] * (n - off - b.rows)
            for i in range(b.rows):
                out += left
                out += b.entries[i * b.cols:(i + 1) * b.cols]
                out += right
            off += b.rows
        return cls._of(n, n, tuple(out))


class RatMatrix(_DenseMatrix):
    """Dense row-major matrix with exact rational entries (Fraction keeps lowest terms)."""

    _entry = Fraction
    _convert = staticmethod(_as_fraction)
    mul = _DenseMatrix.mul

    @property
    def is_integral(self) -> bool:
        return all(e.denominator == 1 for e in self.entries)

    def add(self, other: "RatMatrix") -> "RatMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise InputError("dimension mismatch in matrix sum")
        return self._result(other)(self.rows, self.cols,
                                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def scale(self, c: IntLike) -> "RatMatrix":
        c = _as_fraction(c)
        return RatMatrix._of(self.rows, self.cols, tuple(c * e for e in self.entries))

    def to_bigint(self) -> BigIntMatrix:
        if not self.is_integral:
            raise InputError("matrix has non-integer entries")
        return BigIntMatrix(self.rows, self.cols, tuple(map(int, self.entries)))

    def scaled_integer(self) -> tuple:
        """Return (B, L) with B integral and B = L * self."""
        L = lcm(*(e.denominator for e in self.entries))
        return BigIntMatrix._of(self.rows, self.cols, tuple(
            e.numerator * (L // e.denominator) for e in self.entries)), L

    def is_identity(self) -> bool:
        return self.is_scalar() and self.get(0, 0) == 1

    def is_scalar(self) -> bool:
        if not self.is_square:
            return False
        c = self.get(0, 0)
        return all(self.get(i, j) == (c if i == j else 0)
                   for i in range(self.rows) for j in range(self.cols))


Matrix = Union[BigIntMatrix, RatMatrix]


def powers(A: Matrix, start: int = 1):
    """A^start, A^(start+1), ... for a square matrix, one product per step
    after the first."""
    P = A if start == 1 else mat_pow(A, start)
    while True:
        yield P
        P = P.mul(A)


def mat_pow(A: Matrix, n: int):
    """A**n by binary exponentiation; A**0 is the identity."""
    if not A.is_square:
        raise InputError("mat_pow needs a square matrix")
    if n < 0:
        raise InputError("mat_pow exponent must be nonnegative")
    result = A.identity(A.rows)
    base = A
    while n:
        if n & 1:
            result = result.mul(base)
        n >>= 1
        if n:
            base = base.mul(base)
    return result


def det_exact(A: BigIntMatrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    if not A.is_square:
        raise InputError("determinant of a non-square matrix")
    n = A.rows
    a = A.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_rat(A: RatMatrix) -> Fraction:
    """Exact rational determinant (clears denominators, then Bareiss)."""
    if not A.is_square:
        raise InputError("determinant of a non-square matrix")
    B, L = A.scaled_integer()
    return Fraction(det_exact(B), L ** A.rows)


def commuting_form(phi: RatMatrix, psi: RatMatrix):
    """(char B, t, det q, sign) for commuting square phi, psi of one size
    with an invertible side, None for any other pair.  With phi = B0 / L and
    psi = C0 / M, (p, q) = (M B0, L C0) and sign = 1, or the reverse and
    sign = (-1)^d when only phi is invertible; B = t q^-1 p is integral, t > 0
    least, and det(phi^n - psi^n) (L M)^(n d) = sign det(q)^n det(B^n - t^n I)
    / t^(n d).  One elimination of [q | p] tells whether q is invertible and
    reads q^-1 p, whose eigenvalues are ratios of paired eigenvalues."""
    (B0, L), (C0, M) = phi.scaled_integer(), psi.scaled_integer()
    d = phi.rows
    P = BigIntMatrix._of(d, d, tuple(M * e for e in B0.entries))
    Q = BigIntMatrix._of(d, d, tuple(L * e for e in C0.entries))
    if P.mul(Q) != Q.mul(P):
        return None
    for p, q, sign in ((P, Q, 1), (Q, P, (-1) ** d)):
        rows = [list(map(Fraction, a + b)) for a, b in zip(q.row_lists(), p.row_lists())]
        if len(_rref(rows, d)) == d:
            ratio = RatMatrix._of(d, d, tuple(chain.from_iterable(row[d:] for row in rows)))
            B, t = ratio.scaled_integer()
            return char_poly(B), t, det_exact(q), sign
    return None


def power_difference_determinants(phi: RatMatrix, psi: RatMatrix, form, start: int,
                                  last: int):
    """Integers N_n with det(phi^n - psi^n) = N_n / D^(n d) for n = start,
    ..., last, where phi = B0/L and psi = C0/M with B0, C0 integral
    (``scaled_integer``), D = L M and d the size of phi.

    For a pair whose ``commuting_form`` is form = (char B, t, det q, sign),

        N_n = sign * (det(q) / t^d)^n * sum_{k=0..d} e_k(B^n) * (-t^n)^(d-k),

    the expansion of det(B^n - t^n I) in the traces e_k(B^n) = tr wedge^k B^n
    of the exterior powers (Fel'shtyn, Mem. AMS 699, 2000), then an exact
    division.  tr wedge^k B^n is the n-th power sum of the roots of
    W_k = char(wedge^k B) (``exterior_power_polynomials``), so each term
    costs 2^d multiply-adds of a big integer by a fixed one.  Setting up
    those streams costs about sum_k C(d, k)^2 Newton steps, so this route is
    taken only when at least 2^d terms, the total order of the streams, are
    asked for.  Every other run and pair is the Bareiss loop:
    N_n = det(B0^n M^n - C0^n L^n), one integer matrix product per factor
    and step and one elimination.
    """
    if not (phi.is_square and (psi.rows, psi.cols) == (phi.rows, phi.cols)):
        raise InputError("power differences need two square matrices of one size")
    if form and last - start + 1 >= 2 ** phi.rows:
        return _exterior_determinants(form, start, last)
    return _bareiss_determinants(phi, psi, start, last)


def _bareiss_determinants(phi: RatMatrix, psi: RatMatrix, start: int, last: int):
    d = phi.rows
    B, L = phi.scaled_integer()
    C, M = psi.scaled_integer()
    Ln, Mn = L ** (start - 1), M ** (start - 1)
    pairs = zip(powers(B, start), powers(C, start))
    for Bn, Cn in islice(pairs, max(last - start + 1, 0)):
        Ln *= L
        Mn *= M
        diff = BigIntMatrix._of(d, d, tuple(b * Mn - c * Ln
                                            for b, c in zip(Bn.entries, Cn.entries)))
        yield det_exact(diff)


def _exterior_determinants(form: tuple, start: int, last: int):
    """N_n from the power-sum streams of the exterior powers of the B of a
    commuting_form (the identity in power_difference_determinants)."""
    cp, t, delta, sign = form
    streams = [_power_sum_stream(w) for w in exterior_power_polynomials(cp)]
    a, b = Fraction(delta, t ** cp.degree).as_integer_ratio()
    tn, an, bn = -t ** (start - 1), a ** (start - 1), b ** (start - 1)
    for traces in islice(zip(*streams), start - 1, last):
        tn, an, bn = tn * t, an * a, bn * b
        value = 0  # det(B^n - t^n I) by Horner in tn = -t^n, tr wedge^0 B^n = 1 first
        for trace in traces:
            value = value * tn + trace
        yield sign * value // bn * an


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients in ascending degree order.

    The zero polynomial is stored as (0,) with degree 0 and is_zero True, which
    avoids the -infinity degree convention.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise InputError("empty coefficient list")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise InputError("IntPolynomial coefficients must be ints")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise InputError("unnormalized coefficients (trailing zeros)")

    @classmethod
    def of(cls, coeffs: Iterable[IntLike]) -> "IntPolynomial":
        """Trailing zeros dropped; a non-integer is rejected (``_as_int``)."""
        cs = list(map(_as_int, coeffs))
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0]

    def __call__(self, x):
        acc = 0 if isinstance(x, int) else Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPolynomial.of([a[i] + (b[i] if i < len(b) else 0) for i in range(len(a))])

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial.of([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial((0,))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.of(out)

    def pow(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise InputError("negative polynomial power")
        result = IntPolynomial((1,))
        for _ in range(k):
            result = result * self
        return result

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def reverse(self) -> "IntPolynomial":
        """z^deg * p(1/z); swaps roots with their reciprocals."""
        if self.is_zero:
            return self
        return IntPolynomial.of(tuple(reversed(self.coeffs)))

    def scaled(self, u: int, w: int = 1) -> "IntPolynomial":
        """The primitive polynomial, positive leading coefficient, whose roots
        are those of the nonzero self times u / w, for w != 0: u^d w^d
        self(w x / u) = sum c_i u^(d-i) w^i x^i over its content, and x^d
        for u = 0.  The one root scaling of tdyn."""
        d = self.degree
        cs = [c * u ** (d - i) * w ** i for i, c in enumerate(self.coeffs)]
        content = gcd(*cs) if cs[-1] > 0 else -gcd(*cs)
        return IntPolynomial(tuple(c // content for c in cs))


def _rref(rows: list, pivot_cols: int) -> list:
    """Gauss-Jordan elimination of the Fraction rows in place, pivoting only
    in the first ``pivot_cols`` columns; returns the pivot column of each
    leading row.  Rows past the pivots are zero in those columns."""
    m = len(rows)
    pivots = []
    for c in range(pivot_cols):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        if (pv := rows[r][c]) != 1:
            rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def rat_solve(A: RatMatrix, b: Sequence[Fraction]):
    """One exact solution x of A x = b, or None if the system is inconsistent."""
    n = A.cols
    aug = [row + [_as_fraction(b[i])] for i, row in enumerate(A.row_lists())]
    pivots = _rref(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * n
    for row, c in zip(aug, pivots):
        x[c] = row[n]
    return x


def rat_kernel_basis(A: RatMatrix) -> list:
    """Basis of the right kernel {v : A v = 0} as tuples of Fractions."""
    n = A.cols
    rows = A.row_lists()
    pivots = _rref(rows, n)
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[fc]
        basis.append(tuple(v))
    return basis


def restrict_to_invariant_subspace(M: RatMatrix, basis: Sequence) -> RatMatrix:
    """Matrix X of M on the subspace spanned by ``basis``: B X = M B for B
    with the basis vectors as columns, solved by one elimination of
    [B | M B].  InputError unless the basis is independent and M-invariant."""
    if not basis:
        raise InputError("empty basis")
    n, k = M.rows, len(basis)
    B = RatMatrix(n, k, tuple(_as_fraction(basis[j][i]) for i in range(n) for j in range(k)))
    rows = [b + mb for b, mb in zip(B.row_lists(), M.mul(B).row_lists())]
    if len(_rref(rows, k)) < k:
        raise InputError("basis vectors are linearly dependent")
    if any(any(row[k:]) for row in rows[k:]):
        raise InputError("subspace is not invariant under the map")
    return RatMatrix._of(k, k, tuple(chain.from_iterable(row[k:] for row in rows[:k])))


def power_sums(poly, N: int) -> list:
    """Sums of n-th powers of the roots of a monic polynomial, n = 1..N, by
    Newton's identities."""
    if not poly.is_monic or poly.degree < 1:
        raise InputError("power sums need a monic polynomial of degree >= 1")
    return list(islice(_power_sum_stream(poly), N))


def _power_sum_stream(poly):
    """p_1, p_2, ... of the roots of the monic polynomial poly, of degree d
    and ascending coefficients a: Newton's identities up to p_d, then the
    recurrence p_n = -(a_0 p_(n-d) + ... + a_(d-1) p_(n-1))."""
    d = poly.degree
    a = poly.coeffs
    ps: list = []
    for k in range(1, d + 1):
        acc = -k * a[d - k]
        for i in range(1, k):
            acc -= a[d - i] * ps[k - i - 1]
        ps.append(acc)
        yield acc
    window = deque(ps, maxlen=d)
    low = a[:d]
    while True:
        p = -sum(map(mul, low, window))
        window.append(p)
        yield p


def _newton_coefficients(sums: Sequence) -> list:
    """[1, c_1, ..., c_D], highest degree first, of the monic polynomial of
    degree D = len(sums) whose roots have the power sums sums[0], sums[1],
    ... (Newton's identities).  The polynomial is integral when the roots
    are algebraic integers, so every division by k is exact; InputError
    where one is not."""
    e = [1]
    for k in range(1, len(sums) + 1):
        q, r = divmod(-sum(e[i] * sums[k - 1 - i] for i in range(k)), k)
        if r:
            raise InputError("the power sums are not those of a monic integer polynomial")
        e.append(q)
    return e


def from_power_sums(sums: Sequence, c: int = 1) -> IntPolynomial:
    """The primitive polynomial, positive leading coefficient, whose roots
    are r / c for the roots r of the monic integer polynomial with the
    power sums sums[0], sums[1], ... (``_newton_coefficients``)."""
    return IntPolynomial(tuple(reversed(_newton_coefficients(sums)))).scaled(1, c)


@lru_cache(maxsize=1)
def exterior_power_polynomials(cp: IntPolynomial) -> list:
    """[char poly of the k-th exterior power of phi for k = 0..d], where cp
    is the monic characteristic polynomial of phi, of degree d.

    The power sums of the k-th exterior power are tr wedge^k phi^n =
    e_k(lambda^n), read off the characteristic polynomial of phi^n, which
    Newton's identities build from the power sums p_n, p_2n, ..., p_dn of
    cp.  Both polynomials are monic and integral, so every step stays in
    ints.  The last list is kept and handed to the next caller with the
    same cp, so a torus's sequence window and its zeta build it once;
    callers must not change it.
    """
    if not cp.is_monic or cp.degree < 1:
        raise InputError("exterior powers need a monic polynomial of degree >= 1")
    d = cp.degree
    degrees = [comb(d, k) for k in range(d + 1)]
    sums = power_sums(cp, d * max(degrees))
    traces = [[] for _ in range(d + 1)]  # traces[k][n - 1] = e_k(lambda^n)
    for n in range(1, max(degrees) + 1):
        c = _newton_coefficients(sums[n - 1::n][:d])  # char poly of phi^n
        for k in range(d + 1):
            traces[k].append(-c[k] if k % 2 else c[k])
    return [from_power_sums(t[:m]) for t, m in zip(traces, degrees)]


def char_poly(A: Matrix) -> IntPolynomial:
    """The primitive polynomial, positive leading coefficient, with the
    eigenvalues of A as roots: det(X*I - A) for an integer A, and for A =
    B/L with B integral, L^d det(X*I - A) over its content.  det(X*I - B)
    comes from the Hessenberg recurrence when B is upper Hessenberg, as
    every companion block is, and otherwise from the traces of the powers
    of B (``from_power_sums`` with c = L), the oracle of the first route."""
    if not A.is_square:
        raise InputError("characteristic polynomial of a non-square matrix")
    B, L = (A, 1) if isinstance(A, BigIntMatrix) else A.scaled_integer()
    if _is_upper_hessenberg(B):
        return IntPolynomial(tuple(_hessenberg_char_poly(B))).scaled(1, L)
    return from_power_sums([Bk.trace() for Bk in islice(powers(B), A.rows)], L)


def _is_upper_hessenberg(B: BigIntMatrix) -> bool:
    """Whether every entry below the subdiagonal of the square B is zero."""
    n, h = B.rows, B.entries
    return not any(chain.from_iterable(h[i * n:i * n + i - 1] for i in range(2, n)))


def _hessenberg_char_poly(B: BigIntMatrix) -> list:
    """Ascending coefficients of det(X*I - B) for an upper Hessenberg integer
    B, with no division and no matrix power (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.2.9): p_0 = 1 and, for
    the leading m x m blocks, p_m = (X - h_mm) p_(m-1) - sum_(i<m) h_im
    h_(i+1,i) ... h_(m,m-1) p_(i-1)."""
    n, h = B.rows, B.entries
    ps = [[1]]  # ps[m] = p_m
    for m in range(n):
        prev = ps[m]
        p = [0] + prev
        diag = h[m * n + m]
        for k, c in enumerate(prev):
            p[k] -= diag * c
        chain_product = 1  # h_(i+1,i) ... h_(m,m-1), 0-based
        for i in range(m - 1, -1, -1):
            chain_product *= h[(i + 1) * n + i]
            if not chain_product:
                break
            if t := h[i * n + m] * chain_product:
                for k, c in enumerate(ps[i]):
                    p[k] -= t * c
        ps.append(p)
    return ps[n]


def diagonal_blocks(A: Matrix) -> list:
    """The diagonal blocks of the finest block-diagonal split of a square
    matrix, top left first.  A cut falls before index i when no nonzero
    entry couples an index below i with one at or above it, so char_poly(A)
    is the product of the blocks' characteristic polynomials."""
    if not A.is_square:
        raise InputError("diagonal blocks of a non-square matrix")
    n = A.rows
    reach = list(range(n))  # the largest index a nonzero entry couples with i from above
    for k, a in enumerate(A.entries):
        if a:
            i, j = divmod(k, n)
            lo, hi = (i, j) if i < j else (j, i)
            if hi > reach[lo]:
                reach[lo] = hi
    blocks, start, far = [], 0, 0
    for i, r in enumerate(reach):
        far = max(far, r)
        if far == i:
            size = i + 1 - start
            rows = (A.entries[k * n + start:k * n + i + 1] for k in range(start, i + 1))
            blocks.append(type(A)._of(size, size, tuple(chain.from_iterable(rows))))
            start = i + 1
    return blocks


def poly_at_matrix(p: IntPolynomial, A: RatMatrix) -> RatMatrix:
    """p(A), exactly (Horner over matrices)."""
    if not A.is_square:
        raise InputError("polynomial of a non-square matrix")
    d = A.rows
    acc = RatMatrix(d, d, tuple(Fraction(0) for _ in range(d * d)))
    ident = RatMatrix.identity(d)
    for c in reversed(p.coeffs):
        acc = acc.mul(A).add(ident.scale(c))
    return acc


def companion_matrix(p: IntPolynomial) -> BigIntMatrix:
    """Integer matrix with characteristic polynomial p (monic, degree >= 1).

    Layout: ones on the subdiagonal, negated ascending coefficients of p in the
    last column.
    """
    if p.is_zero or not p.is_monic:
        raise InputError("companion matrix needs a monic nonzero polynomial")
    d = p.degree
    if d < 1:
        raise InputError("companion matrix needs degree >= 1")
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return BigIntMatrix.from_rows(rows)
