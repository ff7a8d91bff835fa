"""The cover-ideal dictionary for Turán-type extremal numbers.

Attach one squarefree variable to every r-subset of [n] and let C be the
ideal of monomials whose support meets every copy of a forbidden pattern F.
Minimal members of C are minimum hitting sets of the copies, so the initial
degree of C equals C(n, r) - ex(n, F), and complements of minimum hitting
sets are exactly the extremal F-free constructions.  The generalized
version scores a support by how many target copies it leaves untouched.
"""

from math import comb

from turancover.dictionary import (
    alpha_target,
    cover_ideal,
    ex_via_cover,
    gen_ex_via_cover,
    make_instance,
)
from turancover.hypergraph import (
    CoreFamily,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    turan_count,
)
from turancover.monomial import initial_degree

# ---------------------------------------------------------------------------
# Ordinary Turán numbers.  The cover-ideal route and the branch-and-bound
# edge search are fully independent computations; we run both.

print("ex(n, K3) for n = 4..7:")
for n in range(4, 8):
    value, witness = ex_via_cover(n, builtin_spec("K3"))
    oracle, _ = brute_force_ex(n, builtin_spec("K3"))
    assert value == oracle == turan_count(n, 2, 2)
    print(f"  n = {n}: {value}  (witness: {sorted(map(sorted, witness.edges))})")

# The same machinery is uniformity-agnostic: forbid the 3-uniform family
# whose members put positive codegree on every pair of some 4-set.

for n in (4, 5):
    value, _ = ex_via_cover(n, CoreFamily(4, 3))
    print(f"ex({n}, K_4^(3) core family) = {value} = t_3({n},3) = {turan_count(n, 3, 3)}")

# ---------------------------------------------------------------------------
# The dictionary identity itself: initial degree = C(n, r) - ex(n, F).

n = 6
ideal = cover_ideal(make_instance(n, builtin_spec("K3")))
value, _ = ex_via_cover(n, builtin_spec("K3"))
print(f"alpha(cover ideal) = {initial_degree(ideal)} = C({n},2) - ex = {comb(n, 2) - value}")

# ---------------------------------------------------------------------------
# Generalized Turán numbers: the maximum number of triangles in a K4-free
# graph on 6 vertices is the Turán-graph count t_3(6,3) = 8.

for t, f, n in [("K3", "K4", 6), ("K2", "K3", 6), ("K3", "K5", 6)]:
    got = gen_ex_via_cover(n, builtin_spec(t), builtin_spec(f))
    oracle, _ = brute_force_gen_ex(n, builtin_spec(t), builtin_spec(f))
    assert got == oracle
    print(f"ex({n}, {t}, {f}) = {got}")

# The optimizing support: the fewest target copies any member of the cover
# ideal must kill, with a witness support (the first optimum the search
# reaches).

inst = make_instance(5, builtin_spec("K4"), builtin_spec("K3"))
alpha, witness_mask = alpha_target(inst)
print(f"alpha_T at n=5: kills {alpha} of {len(inst.target)} triangles;"
      f" support = {sorted(map(sorted, inst.ranker().unmask(witness_mask)))}")
