"""The missing codegree-star ideal and its initial degree.

In the edge-variable ring over the r-subsets of [n], the star monomial of a
vertex pair is the product of all edge variables whose edge contains the
pair.  The star ideal intersects, over all ell-subsets L, the ideals
generated by the star monomials of pairs inside L.  It coincides with the
cover ideal of the core-pair family, its initial degree is
C(n, r) - t_r(n, ell-1), and the product of the non-transversal r-sets of a
balanced (ell-1)-partition attains it.  A support is a member exactly
when the degree-ell Hilbert value of its vertex quotient, a square-zero
quotient on [n], is 0.  A squarefree monomial is its support: a colex
mask of r-sets (`hypergraph.edge_mask`), which `StarParams.ranker` unmasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from math import comb
from operator import and_, or_

from .dictionary import alpha_target, make_instance, vertex_quotient
from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import (
    CoreFamily,
    EdgeRanker,
    RGraph,
    _mask_of,
    balanced_partition,
    brute_force_ex,
    edge_mask,
    pair_stars,
    partition_pairs,
    turan_count,
)


@dataclass(frozen=True)
class StarParams:
    """Parameters (n, ell, r) of the codegree-star ideal."""

    n: int
    ell: int
    r: int

    def __post_init__(self):
        if self.ell < 2 or self.r < 2 or self.n < 1:
            raise InputError(f"need n >= 1 and ell, r >= 2, got {self}")

    @cached_property
    def ranker(self) -> EdgeRanker:
        """The edge variables, built once per parameter set."""
        return EdgeRanker(self.n, self.r)


def codegree_star_monomial(params: StarParams, a: int, b: int) -> int:
    """Support of the product of all edge variables whose edge contains
    {a, b}, the r-sets {a, b} | S; its size is C(n-2, r-2)."""
    if a == b or not (1 <= a <= params.n and 1 <= b <= params.n):
        raise InputError(f"bad pair ({a}, {b})")
    others = [v for v in range(1, params.n + 1) if v != a and v != b]
    return edge_mask((a, b, *S) for S in itertools.combinations(others, params.r - 2))


def missing_edge_monomial(params: StarParams, G: RGraph) -> int:
    """Support of the product of the edge variables over the non-edges of G;
    a star monomial of a pair divides it exactly when the pair has codegree
    zero in G."""
    if (G.n, G.r) != (params.n, params.r):
        raise InputError("graph incompatible with star parameters")
    return ((1 << comb(params.n, params.r)) - 1) ^ edge_mask(G.edges)


def in_star_ideal(m: int, params: StarParams) -> bool:
    """Membership: for every ell-subset L of [n] some pair inside L has its
    whole star in the support.  Trivially true when n < ell.  Those pairs
    are the kill graph of `dictionary.vertex_quotient`, so the bridge to
    square-zero quotients: m is a member iff its degree-ell Hilbert value
    there is 0."""
    return vertex_quotient(m, params.ranker).hilbert(params.ell) == 0


def balanced_partition_monomial(params: StarParams) -> int:
    """Support of the product of all non-transversal r-sets of the balanced
    (ell-1)-partition of [n], the missing-edge monomial of T_r(n, ell-1);
    degree C(n, r) - t_r(n, ell-1) and a member of the star ideal.  These
    are the r-sets meeting some part twice: for r = 2, the pairs in a part.
    Only the first min(q, n) parts are nonempty, so only those are built."""
    n, q, r = params.n, params.ell - 1, params.r
    if r == 2:
        return edge_mask(partition_pairs(n, q))
    part = [-1] + [i for i, P in enumerate(balanced_partition(n, min(q, n))) for _ in P]
    return _mask_of([i for i, t in enumerate(params.ranker.sets) if len({part[v] for v in t}) < r])


def _variable_tables(nvars: int) -> list[int]:
    """Truth tables of the variables over all 2^nvars supports: bit S of the
    i-th table is bit i of S.  Each is one period (2^i zeros, then 2^i ones)
    doubled by shifts until it spans 2^nvars bits."""
    size = 1 << nvars
    tables = []
    for i in range(nvars):
        width = 1 << i
        t, length = ((1 << width) - 1) << width, 2 * width
        while length < size:
            t |= t << length
            length *= 2
        tables.append(t)
    return tables


def _collapse_tables(params: StarParams) -> tuple[int, int]:
    """Star and missing-edge truth tables over every support S of the
    C(n, r) edge variables; see `verify_collapse`."""
    n, ell, ranker = params.n, params.ell, params.ranker
    T = _variable_tables(ranker.count)
    full = (1 << (1 << ranker.count)) - 1
    # no ell-set for ell > n, where `combinations` would still allocate ell
    # indices
    ell_sets = [
        list(itertools.combinations(L, 2))
        for L in (itertools.combinations(range(1, n + 1), ell) if ell <= n else ())
    ]

    killed = {
        p: reduce(and_, (t for i, t in enumerate(T) if s >> i & 1), full)
        for p, s in pair_stars(ranker).items()
    }
    in_j = reduce(and_, (reduce(or_, (killed[p] for p in L), 0) for L in ell_sets), full)

    covered = dict.fromkeys(itertools.combinations(range(1, n + 1), 2), 0)
    for e, t in zip(ranker.sets, T):
        for p in itertools.combinations(e, 2):
            covered[p] |= full ^ t
    contains = reduce(or_, (reduce(and_, (covered[p] for p in L), full) for L in ell_sets), 0)
    return in_j, full ^ contains


COLLAPSE_CAP = 1 << 21


def verify_collapse(params: StarParams) -> bool:
    """Exhaustively check, on every squarefree support S of the N = C(n, r)
    edge variables, that star-ideal membership equals membership in the
    cover ideal of the core-pair family, through the missing-edge law: the
    missing-edge monomial of G is a member iff G is core-family-free.

    S meets every copy of the core-pair family iff its complement G holds
    none, that is iff G is core-family-free, so the cover ideal's table is
    the missing-edge table.  All 2^N supports are evaluated at once on
    truth tables: Python ints of 2^N bits whose bit S is a predicate's value
    at S.  The table of variable i has bit S equal to bit i of S.  Two
    tables are built, each from its own source:

    * star, from `pair_stars`: a pair is killed where its whole star lies
      in S (AND of its variables); S is a member where every ell-set holds a
      killed pair.
    * missing-edge, from the edges of G = complement of S only: a pair is
      covered where some edge of G contains it; G is free where no ell-set
      has all its pairs covered.

    A wrong star mask (`hypergraph.pair_stars`) shows against the
    missing-edge table, built from `EdgeRanker.sets` alone.

    The claims hold iff the two tables are equal.  Raises ScaleGuardError
    when 2^N exceeds COLLAPSE_CAP, so each table has at most COLLAPSE_CAP
    bits (256 KB, N = 21); about N + 2 C(n, 2) tables are alive at once.
    """
    nvars = comb(params.n, params.r)
    # COLLAPSE_CAP is a power of two: compare exponents, never building 2^nvars
    if nvars > COLLAPSE_CAP.bit_length() - 1:
        raise ScaleGuardError(f"2^{nvars} supports exceeds cap {COLLAPSE_CAP}")
    in_j, free = _collapse_tables(params)
    return in_j == free


def star_initial_degree(params: StarParams) -> tuple[int, int]:
    """Exact initial degree of the star ideal, returned with a colex
    witness support, which `params.ranker` unmasks.

    The value is `alpha_target` on the pair instance `make_instance(n,
    CoreFamily(ell, r))`: the fewest r-sets with a pair in M, over pair sets
    M meeting every ell-clique of K_n, which is C(n, r) - ex(n, K_r, K_ell).
    The search holds no list of those r-sets: a branch on a pair meets the
    r-sets of its codegree star (`pair_stars` of `params.ranker`, the
    ranker this function's certificate unmasks), the support of
    `codegree_star_monomial`, and for ell <= r every r-set holds an
    ell-clique, so all of them are met at the root and no star is read.
    It is the star ideal's initial degree.  Let P(S) be the pairs whose
    star lies in a support S.  S is a member iff P(S) meets every ell-set,
    and S holds every r-set with a pair in P(S); conversely, the union of
    the stars over such an M is a member of exactly that size.  (By
    `make_instance`'s shadow argument it is also C(n, r) - ex(n,
    K_ell^(r)).)  Zykov (1949) gives ex(n, K_r, K_ell) = t_r(n, ell-1).
    That value is certified, not assumed: the search must equal it, and the
    returned balanced-partition monomial must be a member of that degree.
    The search's floors come from its own links, never from t_r(n, ell-1),
    which would let it stop on any set of that size.  The instance's guards
    raise ScaleGuardError before either clique is built.

    For r > n, [n] has no r-set, so the ring has no variable and the ideal
    is the whole ring: (0, 0) is returned before the pair instance, whose
    one-edge target has r vertices, is built.
    """
    n, ell, r = params.n, params.ell, params.r
    if r > n:
        return 0, 0
    lb = comb(n, r) - turan_count(n, ell - 1, r)
    alpha, _ = alpha_target(make_instance(n, CoreFamily(ell, r)), params.ranker)
    if alpha != lb:
        raise ClaimCheckError(f"pair-graph search gives {alpha}, not C(n,r) - t_r(n,ell-1) = {lb}")
    m0 = balanced_partition_monomial(params)
    if m0.bit_count() != lb:
        raise ClaimCheckError("balanced-partition monomial has unexpected degree")
    if not in_star_ideal(m0, params):
        raise ClaimCheckError("balanced-partition monomial is not a member")
    return lb, m0


def core_family_turan_number(params: StarParams) -> int:
    """t_r(n, ell-1) as the extremal number of the core-pair family, checked
    against the brute-force oracle: raises `ClaimCheckError` unless
    `brute_force_ex` gives the same value."""
    value = turan_count(params.n, params.ell - 1, params.r)
    oracle, _ = brute_force_ex(params.n, CoreFamily(params.ell, params.r))
    if oracle != value:
        raise ClaimCheckError("brute-force extremal number disagrees")
    return value


__all__ = [
    "StarParams",
    "codegree_star_monomial",
    "missing_edge_monomial",
    "in_star_ideal",
    "balanced_partition_monomial",
    "verify_collapse",
    "star_initial_degree",
    "core_family_turan_number",
]
