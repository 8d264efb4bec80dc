"""The limit-point trichotomy of R_n / lambda^n.

lambda is the dominant root modulus of the exponential sum.  When every
dominant angle is a rational multiple of a full turn the normalized sequence
is asymptotically periodic; one certified irrational angle makes the limit
set contain an interval (Kronecker density).  The dominant roots are those
whose |root|^2 cell separates above every other root's; a tie at the top,
such as 2 against -2 below, is decided by exact polynomial arithmetic:
|root|^2 via the product polynomial (roots r_i r_j, built from power sums).
The angle comes from cyclotomic identification of the root/conjugate ratio.
"""

from tdyn import (
    ExponentialSum,
    IntPolynomial,
    classify_limit_points,
    coincidence_sequence,
    dominant_spectrum,
    limit_points_sample,
    nielsen_sequence,
    z_pair,
    z_times_d,
    zeta_from_sequence,
)

# R_n = 2^n - 1: lambda = 2, samples converge to the single limit point 1
seq = coincidence_sequence(z_times_d(2), 24)
_, es = zeta_from_sequence(seq)
ds = dominant_spectrum(es)
print("2^n - 1:  lambda =", ds.lam, " count =", ds.count)
print("  ", classify_limit_points(ds))
print("   samples:", [round(s, 4) for s in limit_points_sample(seq, ds, 8)])

# Nielsen values of the pair (2x, -2x): dominant roots 2 and -2, period 2
nseq = nielsen_sequence(z_pair(2, -2), 24)
_, nes = zeta_from_sequence(nseq)
nds = dominant_spectrum(nes)
print("\n|2^n - (-2)^n|:  lambda =", nds.lam, " count =", nds.count)
print("  ", classify_limit_points(nds))
print("   samples:", [round(s, 4) for s in limit_points_sample(nseq, nds, 8)])

# roots sqrt(3) e^(+- i pi/6): the angle is 1/12 of a turn -> period 12
es12 = ExponentialSum(terms=((IntPolynomial.of([3, -3, 1]), 1),))
print("\nroots of x^2 - 3x + 3:")
print("  ", classify_limit_points(dominant_spectrum(es12)))

# roots 2 +- i: the angle arctan(1/2)/2pi is irrational, interval case
esiv = ExponentialSum(terms=((IntPolynomial.of([5, -4, 1]), 1),))
print("\nroots of x^2 - 4x + 5:")
print("  ", classify_limit_points(dominant_spectrum(esiv)))
