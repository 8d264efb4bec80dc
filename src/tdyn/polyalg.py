"""Exact polynomial algebra helpers (factorization, cyclotomics, composed
products) and the Smith normal form.

Thin bridge to sympy's exact routines so the rest of the package works with
tdyn's one polynomial type, ``IntPolynomial``.  Everything stays over Z;
nothing here is numeric.  All factoring in tdyn goes through
``factor_int``: a rational characteristic polynomial is held as its
primitive integer multiple, whose primitive factors over Z are its
irreducible factors over Q up to constants.  Factoring,
square-free decomposition, gcds, exact division and real-root counts run
sympy's dense kernels over ZZ (``dup_factor_list``, ``dup_sqf_list``,
``dup_gcd``, ``dup_exquo``, ``dup_isolate_real_roots_sqf``, the algorithms
``Poly`` reaches) on coefficient lists, highest degree first,
in through ``ZZ.convert`` and out through ``int``, so no ``Poly`` is built
and results are ints under any ``SYMPY_GROUND_TYPES``.  Before Zassenhaus
and the gcd, ``factor_int`` and ``is_squarefree`` try a certificate modulo
a few small primes that do not divide the leading coefficient (Dedekind's
reduction argument, Cohen, GTM 138, 3.5): a polynomial irreducible modulo
such a prime is irreducible, and one square-free modulo it is square-free.
The primes come from ``primes``, the stream the S_d certificate reads too.
The product and ratio polynomials are built in integers from power sums
with Newton's identities (Bostan, Flajolet, Salvy, Schost, "Fast
computation of special resultants", JSC 41, 2006) by
``exact_linalg.from_power_sums``, as are the characteristic and
exterior-power polynomials, which need no sympy.
Square-free parts are refined into a pairwise coprime base by gcds alone
(Bach, Driscoll, Shallit, "Factor refinement", J. Algorithms 15, 1993).
Cyclotomic polynomials and Euler's totient are computed in plain integer
arithmetic: building them as sympy expressions would make the first call in
a process import sympy's tensor and combinatorics packages.  Cyclotomic
factors are found by exact division, with no factoring.  The Smith normal
form of an integer matrix, with its unimodular transforms, is sympy's
``smith_normal_decomp`` over ZZ, its entries read back through ``int``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, takewhile
from math import gcd, isqrt, prod
from typing import Optional

import sympy
from sympy.polys.densearith import dup_div, dup_exquo
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_gcd
from sympy.polys.factortools import dup_factor_list
from sympy.polys.galoistools import (
    gf_ddf_zassenhaus,
    gf_frobenius_map,
    gf_frobenius_monomial_base,
    gf_gcd,
    gf_sqf_p,
    gf_sub,
)
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import smith_normal_decomp
from sympy.polys.polyerrors import ExactQuotientFailed
from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
from sympy.polys.sqfreetools import dup_sqf_list

from .errors import InputError
from .exact_linalg import BigIntMatrix, IntPolynomial, from_power_sums, power_sums

_X = sympy.Symbol("x")


def to_sympy(p: IntPolynomial) -> sympy.Poly:
    return sympy.Poly(list(reversed(p.coeffs)), _X, domain=sympy.ZZ)


def _dense(p: IntPolynomial) -> list:
    """p as a dense ZZ list, highest degree first; the zero polynomial is []."""
    return [] if p.is_zero else [ZZ.convert(c) for c in reversed(p.coeffs)]


def _from_dense(f: list) -> IntPolynomial:
    return IntPolynomial.of([int(c) for c in reversed(f)] or [0])


def primes():
    """2, 3, 5, 7, ...: every prime in turn, each found by trial division by
    the smaller ones.  The one prime stream of the mod-p certificates."""
    found = []
    for n in count(2):
        if all(n % q for q in takewhile(lambda q: q * q <= n, found)):
            found.append(n)
            yield n


# factor_int and is_squarefree try their mod-p certificates modulo this many
# primes that do not divide the leading coefficient before the route over Z
_CERTIFICATE_PRIMES = 8


def _reductions(coeffs):
    """(p, f) for the first _CERTIFICATE_PRIMES primes p that do not divide
    the leading coefficient of coeffs (ascending, degree >= 1), with f the
    monic reduction of the polynomial modulo p, highest degree first, of
    the same degree."""
    lead = coeffs[-1]
    for p in islice((p for p in primes() if lead % p), _CERTIFICATE_PRIMES):
        inverse = pow(lead, -1, p)
        yield p, [c * inverse % p for c in reversed(coeffs)]


def _irreducible_mod(f: list, p: int) -> bool:
    """Ben-Or's test for the monic f over GF(p), highest degree first: f of
    degree n is irreducible unless it shares a factor with x^(p^i) - x for
    some i <= n/2, whose irreducible factors are those of degree dividing
    i.  A reducible f has a factor of degree at most n/2, so the test needs
    no square-free input, and it stops at the first shared factor."""
    x = [1, 0]
    base = gf_frobenius_monomial_base(f, p, ZZ)
    h = x
    for _ in range((len(f) - 1) // 2):
        h = gf_frobenius_map(h, f, base, p, ZZ)
        if gf_gcd(f, gf_sub(h, x, p, ZZ), p, ZZ) != [1]:
            return False
    return True


def factor_int(p: IntPolynomial):
    """Irreducible primitive factors with multiplicity; (content_sign_unit, factors).

    Factors carry positive leading coefficients (sympy's convention over Z).
    A polynomial of positive degree that is irreducible modulo a prime not
    dividing its leading coefficient (the degree is kept, so a factorization
    over Z would survive the reduction) is its content times one primitive
    factor; every other goes through sympy's Zassenhaus route.
    """
    if p.is_zero:
        raise InputError("cannot factor the zero polynomial")
    if p.degree >= 1:
        unit = gcd(*p.coeffs) * (1 if p.leading > 0 else -1)
        q = [c // unit for c in p.coeffs]
        if any(_irreducible_mod(f, prime) for prime, f in _reductions(q)):
            return unit, [(IntPolynomial.of(q), 1)]
    unit, factors = dup_factor_list(_dense(p), ZZ)
    return int(unit), [(_from_dense(f), m) for f, m in factors]


def exact_quotient(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p / q over Z; InputError unless q divides p exactly."""
    try:
        return _from_dense(dup_exquo(_dense(p), _dense(q), ZZ))
    except (ExactQuotientFailed, ZeroDivisionError):
        raise InputError("divisor does not divide the polynomial exactly") from None


def gcd_int(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    return _from_dense(dup_gcd(_dense(p), _dense(q), ZZ))


def is_squarefree(p: IntPolynomial) -> bool:
    """Whether p has no repeated factor over Q.  A repeated factor stays
    repeated modulo a prime that does not divide the leading coefficient,
    so p square-free modulo one such prime is square-free; otherwise
    gcd(p, p') decides."""
    if p.degree >= 1 and any(gf_sqf_p(f, prime, ZZ) for prime, f in _reductions(p.coeffs)):
        return True
    return gcd_int(p, p.derivative()).degree == 0


def squarefree_parts(p: IntPolynomial) -> list:
    """Yun's square-free decomposition of p, of degree >= 1: the pairs (part,
    exponent) with p = c * prod part^exponent for an integer c, each part
    primitive and square-free with positive degree and leading coefficient,
    the parts pairwise coprime."""
    if p.degree < 1:
        raise InputError("square-free parts need degree >= 1")
    return [(_from_dense(f), k) for f, k in dup_sqf_list(_dense(p), ZZ)[1]]


def real_root_count(p: IntPolynomial) -> int:
    """The number of real roots of p, of degree >= 1, with multiplicity:
    the continued-fraction isolation of each of its square-free parts
    (Vincent-Collins-Akritas), with no factoring."""
    return sum(k * len(dup_isolate_real_roots_sqf(f, ZZ))
               for f, k in dup_sqf_list(_dense(p), ZZ)[1])


def coprime_base(polys) -> list:
    """Factor refinement of square-free primitive polynomials of positive
    degree: pairs (b, labels), the b pairwise coprime and of positive degree,
    labels the indices of the inputs that b divides.  Input i is, up to sign,
    the product of the b whose labels hold i, so two inputs share a root
    exactly when one b carries both their labels."""
    base = []
    for i, s in enumerate(polys):
        refined = []
        for b, labels in base:
            g = gcd_int(s, b)
            if g.degree == 0:
                refined.append((b, labels))
                continue
            s = exact_quotient(s, g)
            refined.append((g, labels | {i}))
            rest = exact_quotient(b, g)
            if rest.degree > 0:
                refined.append((rest, labels))
        base = refined
        if s.degree > 0:
            base.append((s, {i}))
    return base


# symmetric_galois_group's budget: it gives up after the first
# _CYCLE_PRIMES * d primes that do not divide the discriminant, whatever
# types it has seen.  A d-cycle, of density 1/d in S_d, is missed by all of
# them with probability (1 - 1/d)^(8d) < e^-8
_CYCLE_PRIMES = 8


def symmetric_galois_group(cp: IntPolynomial) -> bool:
    """True if the Galois group of the monic integer polynomial cp, of
    degree d >= 2, is certified to be the full symmetric group S_d; False
    when it is not or the certificate is not found.

    Modulo a prime p that does not divide the discriminant, the degrees of
    the irreducible factors of cp are the cycle type of a Frobenius element
    of the Galois group G (Dedekind).  The type [d] makes G transitive, and
    [d - 1, 1] then makes it 2-transitive, hence primitive.  A type with one
    2-cycle and otherwise odd cycles has a power that is a transposition,
    and a primitive group that contains a transposition is S_d (Jordan; see
    Cohen, GTM 138, 6.3).  A square discriminant puts G inside A_d, so it
    and a zero constant term (cp reducible) fail at once; any other group,
    reducible cp included, fails after the first _CYCLE_PRIMES * d good
    primes.  Giving up never makes the answer wrong, only slower to use.
    """
    d = cp.degree
    if d < 2 or not cp.is_monic or cp.constant == 0:
        return False
    f = _dense(cp)
    disc = int(dup_discriminant(f, ZZ))
    if disc == 0 or (disc > 0 and isqrt(disc) ** 2 == disc):
        return False
    transitive = primitive = transposition = False
    for p in islice((p for p in primes() if disc % p), _CYCLE_PRIMES * d):
        # distinct-degree factorization: (product of the factors of degree k, k)
        cycles = sorted(k for g, k in gf_ddf_zassenhaus([int(c) % p for c in f], p, ZZ)
                        for _ in range((len(g) - 1) // k))
        transitive = transitive or cycles == [d]
        primitive = primitive or cycles == [1, d - 1]
        transposition = transposition or (
            cycles.count(2) == 1 and all(k == 2 or k % 2 for k in cycles))
        if transitive and primitive and transposition:
            return True
    return False


def totients(limit: int) -> list:
    """[phi(0), phi(1), ..., phi(limit)] for Euler's phi (phi(0) = 0), by a
    sieve over the primes."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime: no smaller prime has touched it
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


def factorization(n: int) -> dict:
    """{p: e} with p^e exactly dividing n >= 1: trial division, cheaper
    than sympy.factorint's set-up on the small n of a sequence window or a
    cyclotomic index, and sympy's factoring above 2^40, where trial
    division would take up to 2^19 steps."""
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


def mobius_divisors(n: int) -> list:
    """The pairs (mu(n/d), d) over the d | n with mu(n/d) != 0, for n >= 1:
    n/d runs over the products of subsets of the distinct primes of n,
    starting at d = n and ending at d = n / rad(n)."""
    pairs = [(1, n)]
    for p in factorization(n):
        pairs += [(-mu, d // p) for mu, d in pairs]
    return pairs


def cyclotomic(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial, the product over d | m of
    (x^d - 1)^mu(m/d): the factors with mu = 1 multiplied out first, then
    exact synthetic divisions by those with mu = -1."""
    if m < 1:
        raise InputError("cyclotomic polynomials are indexed by m >= 1")
    pairs = mobius_divisors(m)
    coeffs = [1]
    for d in (d for mu, d in pairs if mu == 1):
        # times x^d - 1
        coeffs = [a - b for a, b in zip([0] * d + coeffs, coeffs + [0] * d)]
    for d in (d for mu, d in pairs if mu == -1):
        # over x^d - 1: a_i = q_(i-d) - q_i, so q_i = q_(i-d) - a_i
        q = []
        for i in range(len(coeffs) - d):
            q.append((q[i - d] if i >= d else 0) - coeffs[i])
        coeffs = q
    return IntPolynomial.of(coeffs)


def cyclotomic_order(p: IntPolynomial) -> Optional[int]:
    """m if p equals the m-th cyclotomic polynomial, else None."""
    # Phi_1(0) = -1 and Phi_m(0) = 1 for m >= 2
    if p.is_zero or not p.is_monic or abs(p.constant) != 1:
        return None
    d = p.degree
    # phi(m) >= sqrt(m/2), so phi(m) = d forces m <= 2 d^2
    limit = 2 * d * d + 1
    phi = totients(limit)
    for m in range(1, limit + 1):
        if phi[m] == d and cyclotomic(m) == p:
            return m
    return None


def _cyclotomic_values(m: int, points) -> list:
    """cyclotomic(m)(a) for each integer a in points, |a| >= 2, as the
    product over d | m of (a^d - 1)^mu(m/d)."""
    pairs = mobius_divisors(m)
    return [prod(a ** d - 1 for mu, d in pairs if mu == 1)
            // prod(a ** d - 1 for mu, d in pairs if mu == -1) for a in points]


# cyclotomic_factors' evaluation points: cyclotomic(m) dividing p makes
# cyclotomic(m)(a) divide p(a), a test that costs one integer remainder
_PROBES = (2, 3)


def cyclotomic_factors(p: IntPolynomial):
    """All (m, multiplicity) with cyclotomic(m) dividing p, m ascending.

    Every m with phi(m) <= deg p is tried by exact division, repeated for
    the multiplicity, on the cofactor left by the smaller m.  A division is
    attempted only when cyclotomic(m)(a) divides the cofactor's value at
    each a in _PROBES, a necessary condition; cyclotomic(m)(2) is about
    2^phi(m), so an m whose cyclotomic polynomial does not divide rarely
    passes it.
    """
    if p.is_zero:
        raise InputError("cannot find the cyclotomic factors of the zero polynomial")
    out = []
    q, values = _dense(p), [p(a) for a in _PROBES]
    limit = 2 * p.degree ** 2 + 1  # phi(m) >= sqrt(m/2)
    phi = totients(limit)
    for m in range(1, limit + 1):
        if phi[m] > len(q) - 1:
            continue
        probes = _cyclotomic_values(m, _PROBES)
        if any(v % c for v, c in zip(values, probes)):
            continue
        f, mult = _dense(cyclotomic(m)), 0
        while len(q) >= len(f):
            quotient, remainder = dup_div(q, f, ZZ)
            if remainder:
                break
            q, mult = quotient, mult + 1
            values = [v // c for v, c in zip(values, probes)]
        if mult:
            out.append((m, mult))
    return out


def _monic_scaled(v: IntPolynomial) -> IntPolynomial:
    """a^(d-1) v(x/a) for v of degree d and leading coefficient a: monic,
    integral, with roots a r for the roots r of v."""
    a, d = v.leading, v.degree
    return IntPolynomial.of([c * a ** (d - 1 - i) for i, c in enumerate(v.coeffs[:-1])]
                            + [1])


def ratio_polynomial(v: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial, positive leading coefficient, whose roots are the
    cross ratios r_i/r_j (i != j) of the roots of v.  With a and b the
    leading and constant coefficients of v, a r_i and b / r_j are roots of
    monic integer polynomials, so the cross ratios times ab have the integer
    power sums P_k(a r) P_k(b / r) - deg v (ab)^k."""
    if v.degree < 1:
        raise InputError("ratio polynomial needs degree >= 1")
    if v.constant == 0:
        raise InputError("ratio polynomial needs a nonzero constant term")
    d = v.degree
    n = d * (d - 1)
    ab = v.leading * v.constant
    sums = zip(power_sums(_monic_scaled(v), n), power_sums(_monic_scaled(v.reverse()), n))
    return from_power_sums(
        [p * q - d * ab ** k for k, (p, q) in enumerate(sums, start=1)], ab)


def product_polynomial(v: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial, positive leading coefficient, whose roots are
    all products r_i * r_j of roots of v (ordered pairs, so |r|^2 appears once
    per complex-conjugate incidence).  With a the leading coefficient of v,
    the products times a^2 have the integer power sums P_k(a r)^2."""
    if v.degree < 1:
        raise InputError("product polynomial needs degree >= 1")
    sums = power_sums(_monic_scaled(v), v.degree ** 2)
    return from_power_sums([p * p for p in sums], v.leading ** 2)


@dataclass(frozen=True)
class SmithForm:
    """U*A*V = D with U, V unimodular and D diagonal, d_1 | d_2 | ... , zeros last."""

    D: BigIntMatrix
    U: BigIntMatrix
    V: BigIntMatrix
    rank: int

    def diagonal(self) -> list:
        return [self.D.get(i, i) for i in range(min(self.D.rows, self.D.cols))]


def smith_normal_form(A: BigIntMatrix) -> SmithForm:
    """sympy's smith_normal_decomp of A over ZZ, as int matrices."""
    D, U, V = (BigIntMatrix.from_rows([[int(x) for x in row] for row in M.to_list()])
               for M in smith_normal_decomp(DomainMatrix.from_list(A.row_lists(), ZZ)))
    rank = sum(1 for i in range(min(D.rows, D.cols)) if D.get(i, i))
    return SmithForm(D=D, U=U, V=V, rank=rank)
