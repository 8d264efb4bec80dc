"""Exact polynomial algebra helpers (factorization, cyclotomics, resultants).

Thin bridge to sympy's exact routines so the rest of the package works with
tdyn's own polynomial types.  Everything stays over Z or Q; nothing here is
numeric.  All factoring in tdyn goes through ``factor_int``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import sympy

from .errors import InputError
from .exact_linalg import IntPolynomial, RatPolynomial

_X = sympy.Symbol("x")


def to_sympy(p: IntPolynomial) -> sympy.Poly:
    if not isinstance(p, IntPolynomial):
        raise InputError(f"cannot convert {type(p).__name__} to a sympy polynomial")
    return sympy.Poly(list(reversed(p.coeffs)), _X, domain=sympy.ZZ)


def from_sympy_int(poly: sympy.Poly) -> IntPolynomial:
    coeffs = poly.all_coeffs()[::-1]
    out = []
    for c in coeffs:
        r = sympy.Rational(c)
        if r.q != 1:
            raise InputError("polynomial has non-integer coefficients")
        out.append(int(r.p))
    return IntPolynomial.of(out)


def factor_int(p: IntPolynomial):
    """Irreducible primitive factors with multiplicity; (content_sign_unit, factors).

    Factors carry positive leading coefficients (sympy's convention over Z).
    """
    if p.is_zero:
        raise InputError("cannot factor the zero polynomial")
    unit, factors = to_sympy(p).factor_list()
    out = [(from_sympy_int(f), m) for f, m in factors]
    return int(unit), out


def factor_rat(p: RatPolynomial):
    """Monic irreducible factors over Q with multiplicity, in factor_int's
    order (factor_int of p with its denominators cleared)."""
    _, factors = factor_int(p.clear_denominators()[0])
    return [(RatPolynomial.of(Fraction(c, f.leading) for c in f.coeffs), m)
            for f, m in factors]


def exact_quotient(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """p / q over Z; InputError unless q divides p exactly."""
    quo, rem = sympy.div(to_sympy(p), to_sympy(q))
    if not rem.is_zero:
        raise InputError("divisor does not divide the polynomial exactly")
    return from_sympy_int(quo)


def gcd_int(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    return from_sympy_int(sympy.gcd(to_sympy(p), to_sympy(q)))


def is_squarefree(p: IntPolynomial) -> bool:
    return gcd_int(p, p.derivative()).degree == 0


def cyclotomic(m: int) -> IntPolynomial:
    return from_sympy_int(sympy.Poly(sympy.cyclotomic_poly(m, _X), _X))


def cyclotomic_order(p: IntPolynomial) -> Optional[int]:
    """m if p equals the m-th cyclotomic polynomial, else None."""
    if p.is_zero or not p.is_monic:
        return None
    d = p.degree
    for m in range(1, 2 * d * d + 2):
        if sympy.totient(m) == d and cyclotomic(m) == p:
            return m
    return None


def cyclotomic_factors(p: IntPolynomial):
    """All (m, multiplicity) with cyclotomic(m) dividing p."""
    out = []
    _, factors = factor_int(p)
    for f, mult in factors:
        m = cyclotomic_order(f)
        if m is not None:
            out.append((m, mult))
    return sorted(out)


def _resultant_in_y(f_y, g_xy):
    return sympy.resultant(f_y, g_xy, sympy.Symbol("y"))


def ratio_polynomial(v: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial whose roots are the cross ratios r_i/r_j (i != j)
    of the roots of the squarefree polynomial v; diagonal ratios r_i/r_i = 1
    are divided out exactly."""
    if v.degree < 1:
        raise InputError("ratio polynomial needs degree >= 1")
    if v.constant == 0:
        raise InputError("ratio polynomial needs a nonzero constant term")
    y = sympy.Symbol("y")
    vy = sum(c * y ** i for i, c in enumerate(v.coeffs))
    vxy = sum(c * (_X * y) ** i for i, c in enumerate(v.coeffs))
    res = sympy.Poly(_resultant_in_y(vy, sympy.expand(vxy)), _X)
    diag = sympy.Poly((_X - 1) ** v.degree, _X)
    quo, rem = sympy.div(res, diag, domain=sympy.QQ)
    if not rem.is_zero:
        raise InputError("unexpected: diagonal ratios do not divide cleanly")
    quo = quo.primitive()[1]
    return from_sympy_int(sympy.Poly(quo, _X, domain=sympy.ZZ))


def product_polynomial(v: IntPolynomial) -> IntPolynomial:
    """Primitive polynomial whose roots are all products r_i * r_j of roots of
    v (ordered pairs, so |r|^2 appears once per complex-conjugate incidence)."""
    if v.degree < 1:
        raise InputError("product polynomial needs degree >= 1")
    y = sympy.Symbol("y")
    vy = sum(c * y ** i for i, c in enumerate(v.coeffs))
    d = v.degree
    # y^d * v(x/y) has roots (in y) x / r_j
    vxy = sum(c * _X ** i * y ** (d - i) for i, c in enumerate(v.coeffs))
    res = sympy.Poly(_resultant_in_y(vy, sympy.expand(vxy)), _X)
    res = res.primitive()[1]
    return from_sympy_int(sympy.Poly(res, _X, domain=sympy.ZZ))
