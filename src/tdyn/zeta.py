"""Rational zeta functions, exponential sums and their bouquet realizations.

Sign conventions, fixed here and used everywhere
------------------------------------------------
A sequence a_1, a_2, ... is an *integer exponential sum* when

    a_n = sum_alpha chi_alpha * (sum of n-th powers of the roots of v_alpha)

with pairwise distinct irreducible monic integer polynomials v_alpha and
nonzero integer exponents chi_alpha.  Writing vt_alpha for the reversal of
v_alpha normalized to constant term 1 (so vt_alpha(z) = prod (1 - lambda z)
over the roots lambda of v_alpha), the zeta function exp(sum a_n z^n / n)
equals

    prod_alpha vt_alpha(z) ** (-chi_alpha)

so positive chi land in the denominator and negative chi in the numerator.
Equivalently a_n = [z^n] of z * d/dz log zeta(z).

The generating function passed to residue_exponents follows the same
indexing: sum_{n >= 1} a_n z^n agrees with the series of u/v (the constant
term of u/v is the model value sum_alpha chi_alpha * deg v_alpha).

The zeta function of a system: one fold over its sections
---------------------------------------------------------
R_n (and N_n) is the product of the sections' values, so exterior_zeta
folds their exponential sums by composed products, roots r r' and power
sums p_n(v) p_n(w) (Bostan, Flajolet, Salvy and Schost, JSC 41, 2006).  A
section with an exact_linalg.commuting_form (char B, t, det q, sign) and a
zeta scale c (padic.zeta_scale) has A = q^-1 p = B / t, R_n = |c^n det(I -
A^n)| and c^n det(I - A^n) = sum_k (-1)^k c^n tr wedge^k A^n: an
exponential sum over the characteristic polynomials W_k of wedge^k B with
roots scaled by c / t^k, algebraic integers (prod_S xi prod_(not S) eta
over k-subsets S of paired eigenvalues on a lattice, where c = det q).  A
real eigenvalue alpha of A gives the factor 1 - alpha^n, of fixed sign, or
sign (-1)^(n+1), or 0 for every n or every even n, a complex pair |1 -
alpha^n|^2 >= 0, and c^n the sign of c to the n, so R_n = e (s c)^n det(I -
A^n) for fixed e, s in {1, -1}, with no recurrence to find (Fel'shtyn, Mem.
AMS 699, 2000).  When the Galois group of char B is certified to be the
full symmetric group (polyalg.symmetric_galois_group), which is transitive
on k-subsets of roots, a square-free W_k is irreducible and is not
factored; scaling keeps irreducibility.  Any other section's terms come
from Berlekamp-Massey, one Fraction loop, on its own window, one
factorization and one linear solve, in Fractions until the fold ends;
zeta_from_sequence, its fold alone, is the test oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    InfiniteValueError,
    InputError,
    NonIntegerResidueError,
    NoRecurrenceError,
    NotSquareFreeError,
)
from .exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    RatMatrix,
    char_poly,
    companion_matrix,
    diagonal_blocks,
    exterior_power_polynomials,
    power_sums,
    rat_solve,
)
from .polyalg import (
    composed_product,
    factor_int,
    gcd_int,
    is_squarefree,
    symmetric_galois_group,
)
from .reidemeister import ReidemeisterSequence, is_infinite

__all__ = [
    "RationalFunction",
    "ExponentialSum",
    "BouquetRealization",
    "berlekamp_massey",
    "minimal_recurrence",
    "residue_exponents",
    "zeta_from_sequence",
    "exterior_zeta",
    "expand",
    "realize_bouquet",
    "power_sums",
]

SequenceLike = Union[Sequence[int], ReidemeisterSequence]


def _finite_values(seq: SequenceLike) -> list:
    if isinstance(seq, ReidemeisterSequence):
        values = seq.values
    else:
        values = seq
    out = []
    for v in values:
        if is_infinite(v):
            raise InfiniteValueError(
                "sequence has an infinite entry; zeta functions need tame input")
        if not isinstance(v, int):
            raise InputError("sequence entries must be integers")
        out.append(v)
    return out


@dataclass(frozen=True)
class RationalFunction:
    """numerator/denominator with integer coefficients, both with constant
    term 1 and no common factor."""

    numerator: IntPolynomial
    denominator: IntPolynomial

    def __post_init__(self):
        if self.numerator.constant != 1 or self.denominator.constant != 1:
            raise InputError("rational function needs constant terms 1")

    def check_coprime(self) -> None:
        if gcd_int(self.numerator, self.denominator).degree != 0:
            raise InputError("numerator and denominator share a factor")


@dataclass(frozen=True)
class ExponentialSum:
    """Terms (v_alpha, chi_alpha): a_n = sum chi_alpha * power_sums(v_alpha, n)."""

    terms: tuple

    def __post_init__(self):
        seen = set()
        for poly, chi in self.terms:
            if not isinstance(poly, IntPolynomial) or not isinstance(chi, int):
                raise InputError("terms must be (IntPolynomial, int) pairs")
            if chi == 0:
                raise InputError("zero exponent term")
            if poly.constant == 0 or not poly.is_monic:
                raise InputError("root polynomials are monic with nonzero constant")
            if poly in seen:
                raise InputError("duplicate root polynomial")
            seen.add(poly)

    def values(self, N: int) -> list:
        sums = [(chi, power_sums(poly, N)) for poly, chi in self.terms]
        return [sum(chi * ps[n - 1] for chi, ps in sums) for n in range(1, N + 1)]


@dataclass(frozen=True)
class BouquetRealization:
    """Trace model L(f^n) = tr(a_even^n) - tr(a_odd^n) on a bouquet of
    n1 circles and n2 two-spheres."""

    a_even: BigIntMatrix
    a_odd: BigIntMatrix

    @property
    def n_spheres(self) -> int:
        return self.a_even.rows

    @property
    def n_circles(self) -> int:
        return self.a_odd.rows + 1

    def lefschetz_values(self, N: int) -> list:
        """L(f^n) = tr(a_even^n) - tr(a_odd^n) for n = 1..N."""
        even = _trace_sums(self.a_even, N)
        odd = _trace_sums(self.a_odd, N)
        return [e - o for e, o in zip(even, odd)]


def _trace_sums(A: BigIntMatrix, N: int) -> list:
    """tr(A^n) for n = 1..N, block by block.

    tr(A^n) is the n-th power sum of the eigenvalues of A, so Newton's
    identities give it from det(xI - A) for every n (by Cayley-Hamilton the
    traces satisfy that polynomial's recurrence).  A block-diagonal A has
    the eigenvalues of its diagonal blocks, which diagonal_blocks reads off
    the emitted matrix, so the traces are the sums of the blocks' power
    sums.  Each distinct block that realize_bouquet emits is a companion
    block, upper Hessenberg, so char_poly reads its polynomial off every
    entry of the block by the Hessenberg recurrence, with no matrix power,
    and the values still check the matrix itself, not the polynomials it
    was built from."""
    total = [0] * N
    for block, count in Counter(diagonal_blocks(A)).items():
        sums = power_sums(char_poly(block), N)
        total = [t + count * s for t, s in zip(total, sums)]
    return total


def _generates(C: Sequence[int], seq: Sequence[int]) -> bool:
    """sum_j C[j] * seq[n-j] == 0 over Z for every len(C)-1 <= n < len(seq)."""
    taps = [(j, c) for j, c in enumerate(C) if c]
    return all(sum(c * seq[n - j] for j, c in taps) == 0
               for n in range(len(C) - 1, len(seq)))


def berlekamp_massey(seq: Sequence) -> list:
    """Minimal connection polynomial over Q (Massey, IEEE Trans. IT 15,
    1969): returns C (ascending Fractions, C[0] = 1, length L+1) with
    sum_j C[j] * seq[n-j] = 0 for L <= n < len(seq)."""
    s = [Fraction(v) for v in seq]
    C = [Fraction(1)]
    B = [Fraction(1)]
    L, m, b = 0, 1, Fraction(1)
    for n in range(len(s)):
        d = s[n]
        for i in range(1, L + 1):
            if i < len(C):
                d += C[i] * s[n - i]
        if d == 0:
            m += 1
            continue
        coef = d / b
        T = C[:] if 2 * L <= n else None
        if len(C) < len(B) + m:
            C = C + [Fraction(0)] * (len(B) + m - len(C))
        for i in range(len(B)):
            C[i + m] -= coef * B[i]
        if T is not None:
            L, B, b, m = n + 1 - L, T, d, 1
        else:
            m += 1
    C = C + [Fraction(0)] * (L + 1 - len(C))
    return C[:L + 1]


def minimal_recurrence(seq: SequenceLike):
    """Shortest linear recurrence denominator v(z), integer coefficients,
    v(0) = 1; None when no recurrence of order <= len(seq)//2, the
    identifiability threshold, fits the window.  Callers that need the
    worst-case guarantee should supply windows of length
    2*expected_order + 4.
    """
    values = _finite_values(seq)
    if len(values) < 2:
        raise InputError("need at least two sequence values")
    C = berlekamp_massey(values)
    if len(C) - 1 > len(values) // 2:
        return None
    if any(c.denominator != 1 for c in C):
        # integer exponential sums have integer Fatou-normalized denominators;
        # a fractional fit means the window did not pin down the recurrence
        return None
    v = IntPolynomial.of(int(c) for c in C)
    # exponential sums have no transient (every base is nonzero), so the
    # recurrence must hold from the very first full window; sequences that
    # need a transient are not in the admissible normal form.  C generates
    # the window from n = L on, so only a C with a vanishing top coefficient
    # (deg v < L) needs the check
    if v.degree < len(C) - 1 and not _generates(v.coeffs, values):
        return None
    return v


def _series_div(num: list, den: Sequence[int], N: int) -> list:
    """First N+1 coefficients of num/den as exact ints; den[0] must be 1."""
    out = []
    for n in range(N + 1):
        c = num[n] if n < len(num) else 0
        for k in range(1, min(n, len(den) - 1) + 1):
            c -= den[k] * out[n - k]
        out.append(c)
    return out


def expand(rf: RationalFunction, N: int) -> list:
    """First N values of the sequence whose zeta function is rf, i.e. the
    coefficients of z * d/dz log rf."""
    if N < 0:
        raise InputError("negative expansion length")

    def logderiv(p: IntPolynomial) -> list:
        zp = [i * c for i, c in enumerate(p.coeffs)]  # z * p'
        return _series_div(zp, p.coeffs, N)

    a = logderiv(rf.numerator)
    b = logderiv(rf.denominator)
    return [a[n] - b[n] for n in range(1, N + 1)]


def residue_exponents(u: IntPolynomial, v: IntPolynomial) -> ExponentialSum:
    """Exponents chi_alpha per irreducible factor of v for the sequence with
    sum_{n>=1} a_n z^n = series of u/v, solved for by exact linear algebra
    on power sums.

    Errors: v not squarefree (polynomial-times-exponential terms are outside
    the rational-zeta normal form), deg u > deg v, and non-integer or
    inconsistent exponents.
    """
    return _exponential_sum(_residue_terms(u, v))


def _residue_terms(u: IntPolynomial, v: IntPolynomial) -> dict:
    """residue_exponents' {v_alpha: Fraction chi_alpha}, not yet integral."""
    if v.constant != 1:
        raise InputError("recurrence denominator must have constant term 1")
    if gcd_int(u, v).degree != 0:
        raise InputError("u and v must be coprime")
    if not is_squarefree(v):
        raise NotSquareFreeError(
            "recurrence denominator has a repeated factor; the sequence is "
            "not a plain integer exponential sum")
    if u.degree > v.degree:
        # a polynomial part of u/v is a transient, which no exponent fits
        raise InputError("u/v must have deg u <= deg v")
    polys = []  # the v_alpha, in factor_int's order of the factors of v
    for w, _ in factor_int(v)[1]:
        if w.constant == -1:
            w = -w
        if w.constant != 1:
            raise InputError("factor of v(0)=1 polynomial must have unit constant")
        polys.append(w.reverse())
    if not polys:
        return {}
    # r = deg v rows suffice, as the power sums of distinct nonzero roots
    # form a Vandermonde system
    r = v.degree
    a = _series_div(list(u.coeffs), v.coeffs, r)[1:]  # a_1 .. a_r
    sums = [power_sums(p, r) for p in polys]
    matrix = RatMatrix(r, len(polys),
                       tuple(Fraction(s[n]) for n in range(r) for s in sums))
    sol = rat_solve(matrix, [Fraction(x) for x in a])
    if sol is None:
        raise NonIntegerResidueError(
            "no Galois-constant exponents reproduce the sequence; it is not "
            "an integer exponential sum")
    if any(x == 0 for x in sol):
        raise NonIntegerResidueError("zero exponent contradicts minimality of v")
    return dict(zip(polys, sol))


def _exponential_sum(chis: dict) -> ExponentialSum:
    """chis in factor_int's order of the factors +-v.reverse() of a recurrence
    denominator (by degree, then +-v from the constant), all integers."""
    terms = sorted(chis.items(), key=lambda term: (
        term[0].degree, [c if term[0].constant > 0 else -c for c in term[0].coeffs]))
    for _, x in terms:
        if x.denominator != 1:
            raise NonIntegerResidueError(
                f"factor exponent {x} is not an integer; refusing to round")
    return ExponentialSum(terms=tuple((f, int(x)) for f, x in terms))


def zeta_from_sequence(seq: SequenceLike):
    """Reconstruct (zeta as RationalFunction, ExponentialSum) from an exact
    sequence by Berlekamp-Massey: exterior_zeta with seq as its one part."""
    return exterior_zeta([_finite_values(seq)], seq)


def _recurrence_terms(values: list) -> dict:
    """values' terms {v: Fraction chi}, found by Berlekamp-Massey."""
    v = minimal_recurrence(values)
    if v is None:
        raise NoRecurrenceError(
            f"no recurrence of admissible order fits the {len(values)}-term window")
    # u_A / v = sum a_{n+1} z^n, shifted once to residue_exponents' indexing
    u_coeffs = [sum(v.coeffs[i] * values[j - i] for i in range(j + 1))
                for j in range(v.degree)]
    return _residue_terms(IntPolynomial.of([0] + u_coeffs), v)


def _section_terms(cp: IntPolynomial, t: int, c: Fraction) -> Counter:
    """R_n = e (s c)^n det(I - A^n) as {monic irreducible v: chi}, A = B / t,
    cp = char B: the factors of each W_k = char wedge^k B, roots scaled by
    s c / t^k, exponent e (-1)^k times their multiplicity; e s and e are the
    signs of c^n det(I - A^n) at n = 1, 2 (t > 0), 1 where that parity is 0.
    Roots 0 add nothing for n >= 1 and are left out."""
    es = -1 if c * cp(t) < 0 else 1
    e = -1 if c * c * (-1) ** cp.degree * cp(t) * cp(-t) < 0 else 1
    symmetric = symmetric_galois_group(cp)
    chis = Counter()
    for k, w in enumerate(exterior_power_polynomials(cp)):
        factors = [(w, 1)] if symmetric and is_squarefree(w) else factor_int(w)[1]
        for f, m in factors:
            chis[f.scaled(*Fraction(es * e * c, t ** k).as_integer_ratio())] += e * (-1) ** k * m
    return Counter({f: chi for f, chi in chis.items() if chi and f.constant})


def _composed_products(left: Counter, right: Counter) -> Counter:
    """The product of two exponential sums {v: chi}, over the irreducible
    factors of the composed products of their terms (roots r r')."""
    chis = Counter()
    for f, a in left.items():
        for g, b in right.items():
            if f.degree == 1 or g.degree == 1:
                line, other = (f, g) if f.degree == 1 else (g, f)
                factors = [(other.scaled(-line.constant), 1)]
            else:
                factors = factor_int(composed_product(f, g))[1]
            for h, m in factors:
                chis[h] += a * b * m
    return Counter({h: chi for h, chi in chis.items() if chi})


def exterior_zeta(sections: Iterable, seq: SequenceLike):
    """(zeta, ExponentialSum) of the sequence seq of a system, the fold of
    its sections' sums (module docstring): each the triple (char B, t, c) of
    its commuting_form and zeta scale (_section_terms), or else its own
    window, a list or ReidemeisterSequence, for Berlekamp-Massey.  An
    all-zero seq is the empty sum, with no section read."""
    values = _finite_values(seq)
    if len(values) < 2:
        raise InputError("need at least two sequence values")
    chis = Counter({IntPolynomial.of([-1, 1]): 1}) if any(values) else Counter()
    for part in sections if chis else ():
        chis = _composed_products(chis, _section_terms(*part) if isinstance(part, tuple)
                                  else _recurrence_terms(_finite_values(part)))
    return _verified_zeta(_exponential_sum(chis), values)


def _verified_zeta(es: ExponentialSum, values: list):
    """(zeta, es) with zeta = prod vt_alpha^(-chi_alpha), once the zeta is
    checked to be in lowest terms and to reproduce every value."""
    num = IntPolynomial.of([1])
    den = IntPolynomial.of([1])
    for poly, chi in es.terms:
        vt = poly.reverse()
        if chi > 0:
            den = den * vt.pow(chi)
        else:
            num = num * vt.pow(-chi)
    rf = RationalFunction(numerator=num, denominator=den)
    rf.check_coprime()
    if expand(rf, len(values)) != values:
        raise NonIntegerResidueError(
            "reconstructed zeta does not reproduce the sequence")
    return rf, es


def realize_bouquet(es: ExponentialSum) -> BouquetRealization:
    """Block companion matrices realizing a_n = tr(A_e^n) - tr(A_o^n); empty
    sides are padded with a 1x1 zero block (keeps n_circles >= 2 and leaves
    all traces unchanged)."""
    blocks_e = []
    blocks_o = []
    for poly, chi in es.terms:
        M = companion_matrix(poly)
        if chi > 0:
            blocks_e.extend([M] * chi)
        else:
            blocks_o.extend([M] * (-chi))
    zero = BigIntMatrix.from_rows([[0]])
    if not blocks_e:
        blocks_e = [zero]
    if not blocks_o:
        blocks_o = [zero]
    return BouquetRealization(a_even=BigIntMatrix.block_diag(blocks_e),
                              a_odd=BigIntMatrix.block_diag(blocks_o))
