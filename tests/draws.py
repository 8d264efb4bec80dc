"""Hypothesis draws shared by the test modules of the power-difference
determinants, the tameness check, the sequences and the zeta."""

from fractions import Fraction

from hypothesis import strategies as st

from tdyn.exact_linalg import IntPolynomial, RatMatrix, poly_at_matrix
from tdyn.group_model import section


@st.composite
def commuting_sections(draw, max_rank=3, integer=False):
    """A section with psi = h(phi): phi's entries and h's coefficients in
    [-3, 3], deg h <= 2.  Of three kinds: any h; psi singular, with phi's
    first column a e_1 for a nonzero a and h = (x - a) g, so that phi is
    mostly invertible and the roles of phi and psi swap; both singular, the
    same with a = 0.  Unless integer, phi and psi are then divided by
    denominators from {1, 2, 3}, whose primes make the prime support."""
    d = draw(st.integers(1, max_rank))
    small = st.integers(-3, 3)
    rows = [[draw(small) for _ in range(d)] for _ in range(d)]
    h = IntPolynomial.of(draw(st.lists(small, min_size=1, max_size=3)))
    kind = draw(st.sampled_from(("any", "singular_psi", "both_singular")))
    if kind != "any":
        a = 0 if kind == "both_singular" else draw(small.filter(bool))
        for i in range(d):
            rows[i][0] = a if i == 0 else 0
        h = IntPolynomial.of([-a, 1]) * IntPolynomial.of(h.coeffs[:2])
    phi = RatMatrix.from_rows(rows)
    psi = poly_at_matrix(h, phi)
    if not integer:
        L, M = (draw(st.sampled_from((1, 2, 3))) for _ in range(2))
        phi, psi = phi.scale(Fraction(1, L)), psi.scale(Fraction(1, M))
    primes = [p for p in (2, 3)
              if any(e.denominator % p == 0 for e in phi.entries + psi.entries)]
    return section(d, phi, psi, primes=primes)
