"""The codegree-star ideal and an algebraic route to a hypergraph Turán number.

In the squarefree ring with one variable y_E per r-subset E of [n], the
star monomial of a vertex pair {a, b} is the product of the y_E over all E
containing both a and b.  The star ideal J(n, ell, r) intersects, over all
ell-subsets L, the ideals generated by the stars of pairs inside L.  It
collapses to the cover ideal of the core-pair family K_ell^(r), and its
initial degree is C(n, r) - t_r(n, ell-1) -- which re-proves that the
extremal number of the core-pair family is the Turán count t_r(n, ell-1).
"""

from math import comb

from turancover.codegree_star import (
    StarParams,
    balanced_partition_monomial,
    codegree_star_monomial,
    core_family_turan_number,
    in_star_ideal,
    missing_edge_monomial,
    star_initial_degree,
    verify_collapse,
)
from turancover.hypergraph import RGraph, turan_construct, turan_count

params = StarParams(5, 4, 3)
ranker = params.ranker

# ---------------------------------------------------------------------------
# Star monomials: each has C(n-2, r-2) variables in its support.  A
# squarefree monomial is its support, a colex mask of r-sets that the ranker
# unmasks.

star = codegree_star_monomial(params, 1, 2)
print("star of {1,2} at (n,ell,r)=(5,4,3):", sorted(map(sorted, ranker.unmask(star))))
assert star.bit_count() == comb(3, 1)

# The star of {a,b} divides the missing-edge monomial of a hypergraph G
# exactly when the pair has codegree zero in G -- this is the divisibility
# law that turns freeness into ideal membership.

G = turan_construct(5, 3, 3)
m = missing_edge_monomial(params, G)
print("Turán construction T_3(5,3) has", len(G), "edges;"
      " missing-edge monomial degree", m.bit_count())
print("  member of the star ideal:", in_star_ideal(m, params))
assert in_star_ideal(m, params)
assert not in_star_ideal(missing_edge_monomial(params, RGraph.complete(5, 3)), params)

# ---------------------------------------------------------------------------
# Collapse: membership in the star ideal agrees with the core-family cover
# ideal, and with the missing-edge law, on every one of the 2^C(5,3)
# squarefree supports.  All supports are checked at once: each predicate is
# one integer of 2^10 bits whose bit S is its value at support S.

print("collapse verified exhaustively:", verify_collapse(params))

# ---------------------------------------------------------------------------
# Initial degree: a support is a member exactly when the pairs whose whole
# star it contains meet every ell-set, so alpha(J) is the generalized cover
# search with target K_r and forbidden K_ell on the pairs of [n]. Its result
# must equal C(n, r) - t_r(n, ell-1), which the balanced-partition monomial
# m0 attains, certifying the value rather than assuming it.

m0 = balanced_partition_monomial(params)
alpha, witness = star_initial_degree(params)
print(f"alpha(J) = {alpha} = C(5,3) - t_3(5,3) = {comb(5, 3) - turan_count(5, 3, 3)}")
print("  witness support:", sorted(map(sorted, ranker.unmask(witness))))
assert witness == m0 and witness.bit_count() == alpha

# ---------------------------------------------------------------------------
# And the Turán-number corollary, cross-checked against brute force.

value = core_family_turan_number(params)
print("ex(5, K_4^(3) core family):", value, "= t_3(5,3), checked by brute force")
