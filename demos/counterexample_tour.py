"""A tour of the diagonal-ideal counterexamples.

For the polynomial ring on x_1..x_n, the identification ideal I(n, ell)
consists of the polynomials killed by every identification of an
ell-subset of the variables, and the differentiated ideal DI(n, ell)
additionally requires all single-variable derivatives up to order n-3 to
land in I(n, ell).  The conjecture under test asserted that DI(n, ell)
needs generators of degree D = 3(C(n,3) - t_3(n, ell-1)); here we exhibit
explicit members of strictly smaller degree for every non-vacuous (ell, n).
"""

from math import comb

from turancover.diagonal import (
    DiagonalParams,
    counterexample_polynomial,
    generator_degree_bound,
    in_differentiated_ideal,
    verify_counterexample,
)
from turancover.hypergraph import turan_count

# ---------------------------------------------------------------------------
# The smallest case: ell = n = 3.  A single linear difference already lies in
# DI(3, 3), while the conjectured generator degree is 3.

params = DiagonalParams(3, 3)
F = counterexample_polynomial(params)
print("ell = n = 3")
print("  witness:", F)
print("  degree :", F.degree(), " conjectured bound:", generator_degree_bound(params))
assert in_differentiated_ideal(F, params)

# ---------------------------------------------------------------------------
# ell = 3, n >= 4: the full Vandermonde product of all pairwise differences.
# Its degree C(n,2) is quadratic in n, while the bound 3*C(n,3) is cubic.

for n in (4, 5):
    params = DiagonalParams(n, 3)
    F = counterexample_polynomial(params)
    print(f"ell = 3, n = {n}")
    print(f"  witness degree C({n},2) = {F.degree()},"
          f"  bound 3*C({n},3) = {generator_degree_bound(params)}")
    assert F.degree() == comb(n, 2)

# ---------------------------------------------------------------------------
# ell >= 4: split [n] into ell-2 balanced parts and multiply the differences
# inside each part.  Any identification of ell variables must, by pigeonhole,
# identify two variables from the same part and therefore kill one factor.
# Derivatives follow a counting rule (proved in `DifferenceProduct`): a
# product of differences lies in DI(n, ell) iff every ell-set S holds at
# least one of its pairs, and every S whose inside pairs all share one vertex
# holds more than min(n-3, degree) of them; otherwise a derivative in the
# shared vertex survives.  Here S puts ell vertices into ell-2 parts, so one
# part holds three of them (a triangle of pairs) or two parts hold two each
# (two disjoint pairs).  Either way the pairs inside S share no vertex, and
# the witness is a member for every n.

for ell, n in [(4, 4), (4, 5), (4, 6), (5, 5), (5, 6)]:
    params = DiagonalParams(n, ell)
    F = counterexample_polynomial(params)
    D = generator_degree_bound(params)
    print(f"ell = {ell}, n = {n}: witness degree {F.degree()} < bound {D}"
          f"  (t_3({n},{ell - 1}) = {turan_count(n, ell - 1, 3)})")

# ---------------------------------------------------------------------------
# The packaged verifier re-derives everything and refuses to confirm unless
# the membership test and the strict degree comparison both hold.

report = verify_counterexample(DiagonalParams(5, 4))
for key in ("F_degree", "F_homogeneous", "D", "in_DI", "degree_gap_ok", "verdict"):
    print(f"  {key}: {report[key]}")
