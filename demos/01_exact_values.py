"""Closed-form record probabilities: the independent baseline and the two
dependence families.

The probability that the n-th observation of an iid multivariate stream
sets a coordinatewise record depends on the law only through the
distribution of the survival value S(X) = P(X' >= X). This script walks
the exact formulas: Roman harmonic numbers for independent coordinates,
and Beta-power expectations for the marginalized-Dirichlet family (negative
dependence, records more likely) and the Exponential scale-mixture family
(positive dependence, records less likely).
"""

from fractions import Fraction

from paretorecords import (
    pn_independent,
    pn_independent_exact,
    pn_marginal_dirichlet,
    pn_marginal_dirichlet_exact,
    pn_scale_mixture,
    roman_harmonic,
)

print("Roman harmonic numbers H_n^(k) = sum_j (-1)^(j-1) C(n,j) j^(-k)")
print("(k = 1 recovers the ordinary harmonic numbers)\n")
for n in (1, 2, 3, 5, 10):
    row = "  ".join(f"k={k}: {roman_harmonic(n, k)!s:>12}" for k in (0, 1, 2))
    print(f"  n={n:2d}  {row}")

print("\nIndependent coordinates: p*_n = H_n^(d-1) / n, exact rationals")
print("(note p*_2 = 1 - 2^-d, and p*_n -> 1 as the dimension grows)\n")
header = "  n\\d " + "".join(f"{d:>12}" for d in (1, 2, 3, 4))
print(header)
for n in (2, 3, 5, 10):
    cells = "".join(f"{str(pn_independent_exact(n, d)):>12}" for d in (1, 2, 3, 4))
    print(f"  {n:3d} {cells}")

print("\nThe two families at n = 5, d = 2, bracketing the independent value")
p_star = pn_independent(5, 2)
print(f"  independent coordinates: p*_5 = {p_star:.6f}  (1/n = {1/5:.6f})\n")
print("       a   scale-mixture p_5   marginal-Dirichlet p_5")
for a in (0.001, 0.1, 1.0, 10.0, 1000.0):
    lo = pn_scale_mixture(5, 2, a)
    hi = pn_marginal_dirichlet(5, 2, a)
    print(f"  {a:8.3f}   {lo:.6f}            {hi:.6f}")
print(
    "\nAs a -> 0 the scale mixture collapses to a comonotone vector (p_n -> 1/n)\n"
    "while the Dirichlet family collapses onto the simplex antichain (p_n -> 1);\n"
    "as a -> infinity both converge to the independent value: together the two\n"
    "families sweep out every record probability in [1/n, 1]."
)

print("\nAt n = 80 the n-term alternating sum cancels far beyond float precision;")
print("exact rationals evaluate it, and the float route's d-term Beta sum agrees:")
exact = pn_marginal_dirichlet_exact(80, 2, Fraction(1, 2))
print(f"  p_80(dir, d=2, a=1/2) = {float(exact):.12f}  (exact rational)")
print(f"  p_80(dir, d=2, a=1/2) = {pn_marginal_dirichlet(80, 2, 0.5):.12f}  (float)")
