"""Exact polynomial algebra helpers (factorization, cyclotomics, composed
products) and the Smith normal form.

Everything works on tdyn's one polynomial type, ``IntPolynomial``, and stays
over Z; nothing here is numeric.  All factoring in tdyn goes through
``factor_int``: a rational characteristic polynomial is held as its
primitive integer multiple, whose primitive factors over Z are its
irreducible factors over Q up to constants.

The kernels are in-tree, on plain int lists with ascending coefficients:
- over GF(p): product, remainder, gcd and the Frobenius powers x^(p^k) mod
  f, which feed Ben-Or's irreducibility test and the distinct-degree cycle
  types of ``symmetric_galois_group`` (Cohen, GTM 138, 3.4-3.5);
- over Z: division with remainder (``exact_quotient`` and
  ``cyclotomic_factors``), the discriminant, the gcd with its cofactors (the
  heuristic gcd of Char, Geddes and Gonnet, J. Symb. Comp. 7, 1989, with a
  primitive remainder sequence behind it), which alone decides
  ``is_squarefree``, and Yun's square-free parts;
- ``is_prime``: Miller-Rabin, deterministic below 3.3 * 10^24.

sympy is imported only inside the fallbacks that need it: Zassenhaus
(``dup_factor_list``) in ``factor_int`` after the mod-p certificate fails,
the continued-fraction isolator of ``real_root_count``, ``to_sympy`` (for
``CRootOf``), ``smith_normal_decomp`` in ``smith_normal_form``,
``factorint`` above 2^40 and ``isprime`` above the Miller-Rabin bound.
Their results are read back through ``int``, so they are ints under any
``SYMPY_GROUND_TYPES``.

Only ``factor_int`` has a mod-p certificate: before Zassenhaus it tries a
few small primes that do not divide the leading coefficient (Dedekind's
reduction argument, Cohen, GTM 138, 3.5), since a polynomial irreducible
modulo such a prime is irreducible.  The primes come from ``primes``, the
stream the S_d certificate reads too.  ``composed_product``, whose roots
are the products of the roots of two polynomials, and the ratio polynomial
are built in integers from power sums with Newton's identities (Bostan,
Flajolet, Salvy, Schost, "Fast computation of special resultants", JSC 41,
2006) by ``exact_linalg.from_power_sums``, as are the characteristic and
exterior-power polynomials; the product polynomial is one composed
product.  Square-free parts are refined into a pairwise coprime base by
gcds alone (Bach, Driscoll, Shallit, "Factor refinement", J. Algorithms 15,
1993).  Cyclotomic polynomials and Euler's totient are
computed in plain integer arithmetic, and cyclotomic factors are found by
exact division, with no factoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice, takewhile, zip_longest
from math import gcd, isqrt, prod
from typing import Optional

from .errors import InputError
from .exact_linalg import (
    BigIntMatrix,
    IntPolynomial,
    det_exact,
    from_power_sums,
    power_sums,
)


def to_sympy(p: IntPolynomial) -> "sympy.Poly":
    import sympy
    return sympy.Poly(list(reversed(p.coeffs)), sympy.Symbol("x"), domain=sympy.ZZ)


def _coeffs(p: IntPolynomial) -> list:
    """p's ascending coefficients; the zero polynomial is []."""
    return [] if p.is_zero else list(p.coeffs)


def _poly(f: list) -> IntPolynomial:
    return IntPolynomial(tuple(f) or (0,))


def _strip(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def primes():
    """2, 3, 5, 7, ...: every prime in turn, each found by trial division by
    the smaller ones.  The one prime stream of the mod-p certificates."""
    found = []
    for n in count(2):
        if all(n % q for q in takewhile(lambda q: q * q <= n, found)):
            found.append(n)
            yield n


# ---------------------------------------------------------------- over GF(p)
# ascending lists of residues, the zero polynomial []

def _gf_mul(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return _strip([c % p for c in out])


def _gf_rem(f: list, g: list, p: int) -> list:
    """f mod g over GF(p), g nonzero."""
    n = len(g) - 1
    inverse = pow(g[-1], -1, p)
    r = list(f)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] * inverse % p
        if c:
            r[i - n:i] = [a - c * b for a, b in zip(r[i - n:i], g)]
    return _strip([c % p for c in r[:n]])


def _gf_gcd(f: list, g: list, p: int) -> list:
    """The monic gcd over GF(p) of f and g, not both zero."""
    while g:
        f, g = g, _gf_rem(f, g, p)
    inverse = pow(f[-1], -1, p)
    return [c * inverse % p for c in f]


def _frobenius_powers(f: list, p: int):
    """x^p, x^(p^2), ... mod f over GF(p), f of degree n >= 1.  Raising to
    the p-th power is a ring map, h(x)^p = h(x^p), so each is the one
    before evaluated at x^p: a combination of x^(ip) mod f, i < n."""
    n = len(f) - 1
    xp, square, e = [1], _gf_rem([0, 1], f, p), p
    while e:
        if e & 1:
            xp = _gf_rem(_gf_mul(xp, square, p), f, p)
        e >>= 1
        if e:
            square = _gf_rem(_gf_mul(square, square, p), f, p)
    base = [[1]]
    for _ in range(n - 1):
        base.append(_gf_rem(_gf_mul(base[-1], xp, p), f, p))
    h = _gf_rem([0, 1], f, p)
    while True:
        acc = [0] * n
        for c, b in zip(h, base):
            if c:
                for j, v in enumerate(b):
                    acc[j] += c * v
        h = _strip([c % p for c in acc])
        yield h


def _minus_x(h: list, p: int) -> list:
    h = h + [0] * (2 - len(h))
    h[1] = (h[1] - 1) % p
    return _strip(h)


def _irreducible_mod(f: list, p: int) -> bool:
    """Ben-Or's test for the monic f over GF(p): f of degree n is
    irreducible unless it shares a factor with x^(p^i) - x for some i <=
    n/2, whose irreducible factors are those of degree dividing i.  A
    reducible f has a factor of degree at most n/2, so the test needs no
    square-free input, and it stops at the first shared factor."""
    for _, h in zip(range((len(f) - 1) // 2), _frobenius_powers(f, p)):
        if len(_gf_gcd(f, _minus_x(h, p), p)) > 1:
            return False
    return True


def _cycle_type(f: list, p: int) -> list:
    """The ascending degrees of the irreducible factors of the monic f, of
    degree >= 1 and square-free over GF(p), by distinct-degree
    factorization: gcd(f, x^(p^i) - x) is the product of the factors of
    degree dividing i, so its degree less that of the factors found below i
    counts those of degree i.  Once 2i exceeds the degree left, what is left
    is one factor."""
    cycles, rest = [], len(f) - 1
    for i, h in enumerate(_frobenius_powers(f, p), start=1):
        shared = len(_gf_gcd(f, _minus_x(h, p), p)) - 1
        k = (shared - sum(j for j in cycles if i % j == 0)) // i
        cycles += [i] * k
        rest -= i * k
        if 2 * (i + 1) > rest:
            break
    if rest:
        cycles.append(rest)
    return cycles


# ---------------------------------------------------------------- over Z
# ascending int lists, the zero polynomial []

def _divmod(f: list, g: list):
    """(q, r) with f = q g + r: division steps while the leading coefficient
    of g divides that of the remainder (sympy's ``dup_rr_div``), so r is
    zero exactly when g divides f over Z; ZeroDivisionError for g zero."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    n, lead = len(g) - 1, g[-1]
    q, r = [0] * max(len(f) - n, 0), list(f)
    while len(r) > n:
        c, rem = divmod(r[-1], lead)
        if rem:
            break
        i = len(r) - 1
        q[i - n] = c
        r[i - n:i] = [a - c * b for a, b in zip(r[i - n:i], g)]
        r.pop()
        _strip(r)
    return _strip(q), r


def _primitive(f: list) -> list:
    """The nonzero f over its content, with a positive leading coefficient."""
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    return f if c == 1 else [a // c for a in f]


def _derivative(f: list) -> list:
    return [i * a for i, a in enumerate(f)][1:]


# the heuristic gcd tries this many evaluation points before the remainder
# sequence takes over (sympy's HEU_GCD_MAX)
_HEURISTIC_POINTS = 6


def _interpolate(v: int, x: int) -> list:
    """The polynomial with coefficients in (-x/2, x/2] and value v at x."""
    f = []
    while v:
        c = v % x
        if c > x // 2:
            c -= x
        f.append(c)
        v = (v - c) // x
    return f


def _exact(f: list, g: list):
    """f / g when g divides f over Z, else None."""
    q, r = _divmod(f, g)
    return None if r else q


def _readings(f: list, g: list, x: int):
    """Candidates for the gcd of f and g from their values at x: the integer
    gcd of the values read back as a polynomial, then f and g over their
    cofactors read back the same way."""
    fx, gx = _poly(f)(x), _poly(g)(x)
    if fx and gx:
        hx = gcd(fx, gx)
        yield _primitive(_interpolate(hx, x))
        yield _exact(f, _interpolate(fx // hx, x))
        yield _exact(g, _interpolate(gx // hx, x))


def _heuristic_gcd(f: list, g: list):
    """(h, f / h, g / h) for the gcd h of f and g, of degree >= 1 and with
    coprime contents, or None: past twice the coefficients' size, a
    candidate read off the values at x that divides both is the gcd."""
    f_norm, g_norm = max(map(abs, f)), max(map(abs, g))
    b = 2 * min(f_norm, g_norm) + 29
    x = max(min(b, 99 * isqrt(b)),
            2 * min(f_norm // abs(f[-1]), g_norm // abs(g[-1])) + 4)
    for _ in range(_HEURISTIC_POINTS):
        for h in _readings(f, g, x):
            if h and (cff := _exact(f, h)) is not None and (cfg := _exact(g, h)) is not None:
                return h, cff, cfg
        x = 73794 * x * isqrt(isqrt(x)) // 27011
    return None


def _remainder_sequence_gcd(f: list, g: list):
    """(h, f / h, g / h) as _heuristic_gcd, by the primitive remainder
    sequence: pseudo-remainders, each divided by its content."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while b:
        n, lead = len(b) - 1, b[-1]
        r = list(a)
        while len(r) > n:
            c = r.pop()
            r = [lead * v for v in r]
            r[len(r) - n:] = [v - c * w for v, w in zip(r[len(r) - n:], b)]
            _strip(r)
        a, b = b, _primitive(r) if r else r
    h = _primitive(a)
    return h, _exact(f, h), _exact(g, h)


def _gcd(f: list, g: list):
    """(h, f / h, g / h): h the gcd over Z with a positive leading
    coefficient and content the gcd of the contents (sympy's ``dup_gcd``),
    zero only when both are."""
    if not f or not g:
        sign = -1 if (f or g or [0])[-1] < 0 else 1
        return [sign * a for a in f or g], [sign] if f else [], [sign] if g else []
    c = gcd(gcd(*f), gcd(*g))
    if c != 1:
        f, g = [a // c for a in f], [a // c for a in g]
    if len(f) == 1 or len(g) == 1:
        return [c], f, g
    h, cff, cfg = _heuristic_gcd(f, g) or _remainder_sequence_gcd(f, g)
    return [c * a for a in h], cff, cfg


def _squarefree_decomposition(f: list) -> list:
    """Yun's algorithm on the nonzero f: the pairs (part, k), k ascending,
    with f = c * prod part^k for an integer c, the parts primitive,
    square-free, pairwise coprime and of positive degree and leading
    coefficient (sympy's ``dup_sqf_list``)."""
    f, parts, k = _primitive(f), [], 1
    if len(f) == 1:
        return parts
    _, p, q = _gcd(f, _derivative(f))
    while True:
        h = _strip([a - b for a, b in zip_longest(q, _derivative(p), fillvalue=0)])
        if not h:
            parts.append((p, k))
            return parts
        g, p, q = _gcd(p, h)
        if len(g) > 1:
            parts.append((g, k))
        k += 1


def _discriminant(f: list) -> int:
    """The discriminant (-1)^(n(n-1)/2) res(f, f') / lc(f) of f, of degree n,
    with the resultant the determinant of the Sylvester matrix; 0 for
    degree <= 0."""
    n = len(f) - 1
    if n < 1:
        return 0
    d = _derivative(f)
    rows = ([[0] * i + f[::-1] + [0] * (n - 2 - i) for i in range(n - 1)]
            + [[0] * i + d[::-1] + [0] * (n - 1 - i) for i in range(n)])
    resultant = det_exact(BigIntMatrix.from_rows(rows))
    return (-1) ** (n * (n - 1) // 2) * resultant // f[-1]


# ---------------------------------------------------------------- primality

# Miller-Rabin to the first 13 prime bases is deterministic below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime: deterministic Miller-Rabin below
    _MILLER_RABIN_BOUND, sympy's isprime above it."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    if n >= _MILLER_RABIN_BOUND:
        from sympy import isprime
        return isprime(n)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------- the public helpers

# factor_int tries its mod-p certificate modulo this many primes that do not
# divide the leading coefficient before Zassenhaus
_CERTIFICATE_PRIMES = 8


def _reductions(coeffs):
    """(p, f) for the first _CERTIFICATE_PRIMES primes p that do not divide
    the leading coefficient of coeffs (ascending, degree >= 1), with f the
    monic reduction of the polynomial modulo p, ascending, of the same
    degree."""
    lead = coeffs[-1]
    for p in islice((p for p in primes() if lead % p), _CERTIFICATE_PRIMES):
        inverse = pow(lead, -1, p)
        yield p, [c * inverse % p for c in coeffs]


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
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dup_factor_list
    unit, factors = dup_factor_list([ZZ.convert(c) for c in reversed(p.coeffs)], ZZ)
    return int(unit), [(IntPolynomial.of([int(c) for c in reversed(f)]), m)
                       for f, m in factors]


def exact_quotient(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p / q over Z; InputError unless q divides p exactly."""
    quotient = None if q.is_zero else _exact(_coeffs(p), list(q.coeffs))
    if quotient is None:
        raise InputError("divisor does not divide the polynomial exactly")
    return _poly(quotient)


def gcd_int(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    return _poly(_gcd(_coeffs(p), _coeffs(q))[0])


def is_squarefree(p: IntPolynomial) -> bool:
    """Whether p has no repeated factor over Q: gcd(p, p') is a constant."""
    return gcd_int(p, p.derivative()).degree == 0


def squarefree_parts(p: IntPolynomial) -> list:
    """Yun's square-free decomposition of p, of degree >= 1: the pairs (part,
    exponent) with p = c * prod part^exponent for an integer c, each part
    primitive and square-free with positive degree and leading coefficient,
    the parts pairwise coprime."""
    if p.degree < 1:
        raise InputError("square-free parts need degree >= 1")
    return [(_poly(f), k) for f, k in _squarefree_decomposition(list(p.coeffs))]


def real_root_count(p: IntPolynomial) -> int:
    """The number of real roots of p, of degree >= 1, with multiplicity:
    the continued-fraction isolation of each of its square-free parts
    (Vincent-Collins-Akritas), with no factoring."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_isolate_real_roots_sqf
    return sum(k * len(dup_isolate_real_roots_sqf([ZZ.convert(c) for c in reversed(f)], ZZ))
               for f, k in _squarefree_decomposition(list(p.coeffs)))


def coprime_base(polys) -> list:
    """Factor refinement of square-free primitive polynomials of positive
    degree: pairs (b, labels), the b pairwise coprime and of positive degree,
    labels the indices of the inputs that b divides.  Input i is, up to sign,
    the product of the b whose labels hold i, so two inputs share a root
    exactly when one b carries both their labels."""
    base = []
    for i, poly in enumerate(polys):
        s = list(poly.coeffs)
        refined = []
        for b, labels in base:
            g, s_rest, b_rest = _gcd(s, b)
            if len(g) == 1:
                refined.append((b, labels))
                continue
            s = s_rest
            refined.append((g, labels | {i}))
            if len(b_rest) > 1:
                refined.append((b_rest, labels))
        base = refined
        if len(s) > 1:
            base.append((s, {i}))
    return [(_poly(b), labels) for b, labels in base]


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
    f = list(cp.coeffs)
    disc = _discriminant(f)
    if disc == 0 or (disc > 0 and isqrt(disc) ** 2 == disc):
        return False
    transitive = primitive = transposition = False
    for p in islice((p for p in primes() if disc % p), _CYCLE_PRIMES * d):
        cycles = _cycle_type([c % p for c in f], p)
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
        from sympy import factorint
        return factorint(n)
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
    q, values = list(p.coeffs), [p(a) for a in _PROBES]
    limit = 2 * p.degree ** 2 + 1  # phi(m) >= sqrt(m/2)
    phi = totients(limit)
    for m in range(1, limit + 1):
        if phi[m] > len(q) - 1:
            continue
        probes = _cyclotomic_values(m, _PROBES)
        if any(v % c for v, c in zip(values, probes)):
            continue
        f, mult = list(cyclotomic(m).coeffs), 0
        while len(q) >= len(f):
            quotient, remainder = _divmod(q, f)
            if remainder:
                break
            q, mult = quotient, mult + 1
            values = [v // c for v, c in zip(values, probes)]
        if mult:
            out.append((m, mult))
    return out


def composed_product(f: IntPolynomial, g: IntPolynomial, c: int = 1) -> IntPolynomial:
    """The primitive polynomial, positive leading coefficient, whose roots
    are r r' / c over the roots r of f and r' of g, monic of degree >= 1,
    with multiplicity: its power sums are P_k(f) P_k(g) (Bostan, Flajolet,
    Salvy, Schost, JSC 41, 2006)."""
    n = f.degree * g.degree
    return from_power_sums([p * q for p, q in zip(power_sums(f, n), power_sums(g, n))], c)


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
    sums = zip(power_sums(v.scaled(v.leading), n),
               power_sums(v.reverse().scaled(v.constant), n))
    return from_power_sums(
        [p * q - d * ab ** k for k, (p, q) in enumerate(sums, start=1)], ab)


def product_polynomial(v: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial, positive leading coefficient, whose roots are
    all products r_i * r_j of roots of v (ordered pairs, so |r|^2 appears once
    per complex-conjugate incidence).  With a the leading coefficient of v,
    the products times a^2 have the integer power sums P_k(a r)^2."""
    if v.degree < 1:
        raise InputError("product polynomial needs degree >= 1")
    monic = v.scaled(v.leading)
    return composed_product(monic, monic, v.leading ** 2)


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
    from sympy.polys.domains import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import smith_normal_decomp
    D, U, V = (BigIntMatrix.from_rows([[int(x) for x in row] for row in M.to_list()])
               for M in smith_normal_decomp(DomainMatrix.from_list(A.row_lists(), ZZ)))
    rank = sum(1 for i in range(min(D.rows, D.cols)) if D.get(i, i))
    return SmithForm(D=D, U=U, V=V, rank=rank)
