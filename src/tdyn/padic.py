"""Exact p-adic valuations via Newton polygons.

The p-adic absolute value of an algebraic eigenvalue is only ever read off the
Newton polygon of an exact characteristic polynomial: a hull segment of slope
s and horizontal length l certifies exactly l roots of valuation -s, i.e. of
absolute value p**s.  No p-adic root finding happens anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Union

from .errors import InputError, UnsupportedPairingError, finite_float
from .exact_linalg import IntPolynomial
from .group_model import AbelianSection, joint_blocks
from .polyalg import is_prime

__all__ = ["ord_p", "NewtonPolygon", "newton_polygon", "root_valuations", "zeta_scale",
           "PadicGrowthFactor", "padic_growth_factor", "joint_block_exponent"]


def _check_prime(p: int):
    """InputError unless p is prime; the message prints p only below 2^64,
    since str() refuses integers of more than 4,300 digits."""
    if not is_prime(p):
        raise InputError(f"{p if abs(p) < 2 ** 64 else 'p'} is not prime")


def ord_p(q: Union[int, Fraction], p: int) -> int:
    """p-adic ordinal of a nonzero rational; |q|_p = p**(-ord_p(q))."""
    _check_prime(p)
    q = Fraction(q)
    if q == 0:
        raise InputError("ord_p(0) is undefined (the norm is 0)")
    return _ord_int(q.numerator, p) - _ord_int(q.denominator, p)


def _ord_int(n: int, p: int) -> int:
    """The largest k with p^k | n, for n != 0: divide by p, p^2, p^4, ...
    while they divide, then by the same powers back down, so O(log k) big
    divisions instead of k."""
    k, squares = 0, []
    q = p
    while n % q == 0:
        n //= q
        k += 1 << len(squares)
        squares.append(q)
        q *= q
    # what is left has valuation below the last power tried, 2^len(squares)
    for i in reversed(range(len(squares))):
        if n % squares[i] == 0:
            n //= squares[i]
            k += 1 << i
    return k


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower convex hull of (i, ord_p(a_i)); slopes strictly increase."""

    prime: int
    segments: tuple  # of (slope: Fraction, length: int)


def newton_polygon(f: IntPolynomial, p: int) -> NewtonPolygon:
    """Newton polygon at p of a nonzero integer polynomial.  A rational
    polynomial is read as its integer multiple (exact_linalg.char_poly):
    scaling moves every point by one constant and the polygon's slopes not
    at all.

    Zero roots (trailing zero coefficients) are excluded: the polygon starts
    at the first nonzero coefficient, so total length = degree - (multiplicity
    of the root 0).
    """
    _check_prime(p)
    points = [(i, _ord_int(c, p)) for i, c in enumerate(f.coeffs) if c]
    if not points:
        raise InputError("newton_polygon of the zero polynomial")
    # lower hull, left to right (Andrew monotone chain, lower part only)
    hull = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # keep hull[-1] only while the slope strictly increases at it
            if (y2 - y1) * (pt[0] - x1) < (pt[1] - y1) * (x2 - x1):
                break
            hull.pop()
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(prime=p, segments=tuple(segments))


def root_valuations(f: IntPolynomial, p: int) -> list:
    """Valuations of all roots of f, zero roots reported as math.inf.

    Returned with multiplicity; a segment of slope s contributes ``length``
    copies of -s.
    """
    if f.is_zero:
        raise InputError("zero polynomial has no root valuations")
    zeros = next(i for i, c in enumerate(f.coeffs) if c)
    vals: list = [inf] * zeros
    for slope, length in newton_polygon(f, p).segments:
        vals.extend([-slope] * length)
    return vals


def zeta_scale(form, primes):
    """delta kappa for a commuting_form (char B, t, delta, sign) over the
    primes S, None if some root beta of char B has beta / t a p-adic unit.
    Otherwise |alpha^n - 1|_p = max(1, |alpha|_p)^n for alpha = beta / t, so
    R_n = |(delta kappa)^n det(A^n - I)| with kappa the product over S of
    p^(-v_p(delta) + sum_beta max(0, v_p(t) - v_p(beta)))."""
    cp, t, delta, _ = form
    scale = Fraction(delta)
    for p in primes:
        v_t, vals = _ord_int(t, p), root_valuations(cp, p)
        if v_t in vals:
            return None
        scale *= Fraction(p) ** int(sum(max(0, v_t - v) for v in vals) - _ord_int(delta, p))
    return scale


@dataclass(frozen=True)
class PadicGrowthFactor:
    """Factor p**exponent contributed to the growth rate at the prime p."""

    prime: int
    exponent: Fraction

    @property
    def value(self) -> float:
        if not self.exponent:
            return 1.0
        return finite_float("growth_factor value",
                            lambda: float(self.prime) ** float(self.exponent))


def _pair_exponent(v_list, w_list) -> Fraction:
    """Sum of -min(v_i, w_i) over pairs; this is log_p of prod max(|xi|,|eta|)
    with the equal-valuation pairs contributing |eta| (same number)."""
    total = Fraction(0)
    for v, w in zip(v_list, w_list):
        m = min(v, w)
        if m == inf:
            raise UnsupportedPairingError(
                "xi = eta = 0 on a common eigenvector; the pair is not tame")
        total -= Fraction(m)
    return total


def _single_slope(vals) -> bool:
    return len(set(vals)) == 1


def padic_growth_factor(sec: AbelianSection, p: int) -> PadicGrowthFactor:
    """p-adic factor of the growth rate for one section: the product of
    max(|xi_i|_p, |eta_i|_p) over the pairing of group_model.joint_blocks
    (with psi = identity, of max(|xi|_p, 1) over the eigenvalues of phi).
    Raises UnsupportedPairingError where joint_blocks certifies no pairing
    or a block's valuations cannot be paired (joint_block_exponent).
    """
    _check_prime(p)
    return PadicGrowthFactor(p, joint_block_exponent(joint_blocks(sec), p))


def joint_block_exponent(blocks, p: int) -> Fraction:
    """log_p of the p-adic growth factor of a section, from its joint blocks
    (group_model.joint_blocks), so that callers needing several primes
    derive the blocks once.  A block pairs by valuation when one of its two
    Newton polygons has a single slope: a scalar side's (x - s)^d always
    does, so each xi_i pairs with s."""
    exponent = Fraction(0)
    for f_alpha, _, g_alpha in blocks:
        v_phi = root_valuations(f_alpha, p)
        v_psi = root_valuations(g_alpha, p)
        if _single_slope(v_phi):
            exponent += _pair_exponent(v_psi, [v_phi[0]] * len(v_psi))
        elif _single_slope(v_psi):
            exponent += _pair_exponent(v_phi, [v_psi[0]] * len(v_phi))
        else:
            raise UnsupportedPairingError(
                f"mixed Newton polygon slopes at p={p} in both factors of a "
                "joint block; valuation pairing is ambiguous")
    return exponent
