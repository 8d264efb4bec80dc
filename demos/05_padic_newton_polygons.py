"""p-adic valuations of eigenvalues via Newton polygons.

No p-adic root finding happens anywhere: the valuations of the roots of an
exact characteristic polynomial are read off the lower convex hull of the
coefficient valuations.  A segment of slope s and length l certifies l roots
of absolute value p**s.
"""

from fractions import Fraction

from tdyn import (
    IntPolynomial,
    char_poly,
    newton_polygon,
    ord_p,
    padic_growth_factor,
    root_valuations,
    s_integer,
)

print("ord_2(12) =", ord_p(12, 2), "   ord_3(1/9) =", ord_p(Fraction(1, 9), 3))

f = IntPolynomial.of([-2, 0, 1])  # x^2 - 2
np_ = newton_polygon(f, 2)
print("\npolygon of x^2 - 2 at p=2:", np_.segments,
      "-> |root|_2 = 2^(-1/2) twice:", root_valuations(f, 2))

g = IntPolynomial.of([1, -3, 1])  # both roots 5-adic units
print("polygon of x^2 - 3x + 1 at p=5:", newton_polygon(g, 5).segments)

# mixed slopes: (x - 2)(2x - 1), the roots 2 and 1/2
h = IntPolynomial.of([2, -5, 2])
print("valuations of (x-2)(2x-1) at p=2:", root_valuations(h, 2))

# the p-adic factor of the growth rate of x/2 on Z[1/2]
sec = s_integer(Fraction(1, 2), [2]).sections[0]
print("\nchar poly of phi:", char_poly(sec.phi).coeffs)
pf = padic_growth_factor(sec, 2)
print(f"2-adic growth factor: {pf.prime}^{pf.exponent} = {pf.value}")
