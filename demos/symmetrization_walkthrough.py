"""Symmetrizing a square-zero quadratic monomial quotient.

A quotient here is the squarefree ring on x_1..x_n modulo a set of
quadratic kill relations x_a x_b = 0.  Its degree-d Hilbert value counts
the d-subsets containing no killed pair.  If the degree-(q+1) piece
vanishes, repeatedly cloning one parallel class into another drives the
kill graph to a disjoint union of cliques without ever decreasing the
degree-r Hilbert value, which proves hilbert(r) <= t_r(n, q) with the
balanced partition structure attaining equality.
"""

import itertools

from turancover.squarezero import (
    SquareZeroQuotient,
    elem_sym,
    smoothing_step,
    symmetrize,
)
from turancover.hypergraph import RGraph, brute_force_gen_ex, turan_count

# ---------------------------------------------------------------------------
# A worked instance on four variables.

A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
print("start:", A)
print("  hilbert(2) =", A.hilbert(2), " degree-3 piece vanishes:", A.top_vanishing(2))

terminal, trace, sizes = symmetrize(A, q=2, r=2)
for i, step in enumerate(trace, 1):
    print(f"  step {i}: clone {step['source']} onto {step['target']}"
          f"  (hilbert {step['hilbert_before']} -> {step['hilbert_after']})")
print("terminal:", terminal)
print("  class sizes:", sizes,
      " hilbert(2) =", terminal.hilbert(2), "= e_2(sizes) =", elem_sym(sizes, 2))
assert terminal.hilbert(2) >= A.hilbert(2)

# ---------------------------------------------------------------------------
# From class sizes to the Turán count: each balancing move (a, b) -> (a-1, b+1)
# raises e_r by exactly (a - b - 1) * e_{r-2} of the remaining entries.

tup = (4, 1, 1)
while True:
    nxt, delta = smoothing_step(tup, 3)
    if nxt == tup:
        break
    print(f"smooth {tup} -> {nxt}: e_3 gains {delta}")
    tup = nxt
print("balanced:", tup, " e_3 =", elem_sym(tup, 3), "= t_3(6,3) =", turan_count(6, 3, 3))

# ---------------------------------------------------------------------------
# Small-n certainty: the standard r-sets of a quotient are the r-cliques of G,
# the complement of its kill graph, and the degree-(q+1) piece vanishes iff G
# is K_{q+1}-free.  So the largest hilbert(3) with a vanishing degree-4 piece
# on [7] is ex(7, K_3, K_4), which the independent gen-ex oracle computes.

best, G = brute_force_gen_ex(7, RGraph.complete(3, 2), RGraph.complete(4, 2))
kill = [p for p in itertools.combinations(range(1, 8), 2) if frozenset(p) not in G.edges]
W = SquareZeroQuotient(7, kill)
print(f"n=7, q=3, r=3: ex(7, K3, K4) = {best} = t_3(7, 3) = {turan_count(7, 3, 3)};"
      f" the witness's quotient has hilbert(4) = {W.hilbert(4)}, hilbert(3) = {W.hilbert(3)}")
assert best == turan_count(7, 3, 3) == W.hilbert(3) and W.hilbert(4) == 0
