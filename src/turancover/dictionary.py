"""The cover-ideal dictionary for ordinary and generalized Turán numbers.

Ordinary: the initial degree of the cover ideal of the forbidden copies is
C(n, r) minus the extremal number, with minimum hitting sets complementing
extremal witnesses.  Generalized (graphs only): the objective becomes the
number of target-copy monomials surviving a missing-edge quotient, and the
optimum is |targets| minus the minimum number of killed target copies over
monomials of the cover ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import (
    COPY_CAP,
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    FamilySpec,
    RGraph,
    core_family_free,
    count_copies,
    enumerate_forbidden_copies,
    explicit_copy_count,
)
from .monomial import SquarefreeIdeal, guard_search_setup, min_hitting_set, min_targets_met
from .squarezero import SquareZeroQuotient


@dataclass(frozen=True)
class CoverInstance:
    """An edge-variable cover-ideal instance: forbidden copies plus an
    optional target-copy family for the generalized problem."""

    n: int
    r: int
    forbidden: CopyFamily
    target: CopyFamily | None = None

    def __post_init__(self):
        if (self.forbidden.n, self.forbidden.r) != (self.n, self.r):
            raise InputError("forbidden family has incompatible (n, r)")
        if self.target is not None and (self.target.n, self.target.r) != (self.n, self.r):
            raise InputError("target family has incompatible (n, r)")

    def ranker(self) -> EdgeRanker:
        return EdgeRanker(self.n, self.r)

    def restrict(self, m: int) -> "CoverInstance":
        """The instance on [m], m <= n: both families cut to their copies
        inside [m] (`CopyFamily.restrict`)."""
        target = self.target.restrict(m) if self.target is not None else None
        return CoverInstance(m, self.r, self.forbidden.restrict(m), target)


def make_instance(
    n: int, forbid_spec: FamilySpec, target_spec: FamilySpec | None = None
) -> CoverInstance:
    """The copy families of an instance.  Families of different uniformity
    raise InputError before either is listed.  When both patterns are
    explicit, their copy counts are exact before enumeration, so
    `alpha_target`'s setup guard refuses an oversized pair before any copy
    is listed."""
    if target_spec is not None and target_spec.r != forbid_spec.r:
        raise InputError("target and forbidden families must share uniformity")
    if isinstance(forbid_spec, RGraph) and isinstance(target_spec, RGraph):
        guard_search_setup(explicit_copy_count(target_spec, n), explicit_copy_count(forbid_spec, n))
    forbidden = enumerate_forbidden_copies(forbid_spec, n)
    target = enumerate_forbidden_copies(target_spec, n) if target_spec is not None else None
    return CoverInstance(n, forbidden.r, forbidden, target)


def cover_ideal(inst: CoverInstance) -> SquarefreeIdeal:
    """Cover-form ideal: a monomial is a member iff its support meets every
    forbidden copy.  An empty forbidden family gives the whole ring."""
    return SquarefreeIdeal.from_copy_family(inst.forbidden)


def _require_vertices(n: int) -> None:
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")


def _chain_alpha(inst: CoverInstance, k: int | None) -> tuple[int, int]:
    """(minimum, witness) of the instance's search, certified link by link.

    The targets are the instance's target copies, or with no target family
    the C(n, r) single edges (`min_hitting_set`); every target spans k
    vertices.  The averaging bound of Katona, Nemetz and Simonovits (1964):
    the property of having no forbidden copy passes to induced subgraphs,
    and each target copy on [m] lies inside m - k of the m vertex-deleted
    subsets of [m], so summing the target count over those subsets gives
    ex(m) * (m - k) <= m * ex(m - 1), with ex(m) the most targets that a
    support hitting every forbidden copy on [m] leaves unmet.  So
    |targets on [m]| - floor(ex(m-1) * m / (m - k)) is a proven lower bound
    on the minimum at m, and `min_targets_met` stops once it reaches it.

    Links run for m = k..n on `CoverInstance.restrict(m)`, prefixes of the
    copy lists enumerated once at n; each floor comes from the previous
    link's value only, never from a theorem a caller checks.  The first link
    and k = None (a target family whose copies have no common vertex count)
    get floor 0.  The setup guard of the n-instance runs before the first
    link; each link's search has its own ALPHA_CAP_NODES budget, and the
    final link expands a prefix of the nodes the floor-free search on [n]
    expands, returning its (minimum, witness).
    """
    n, r = inst.n, inst.r

    def target_count(link: CoverInstance) -> int:
        return comb(link.n, r) if link.target is None else len(link.target)

    guard_search_setup(target_count(inst), len(inst.forbidden))
    previous = None
    for m in range(min(k, n), n + 1) if k is not None else (n,):
        link = inst.restrict(m)
        floor = 0 if previous is None else target_count(link) - previous * m // (m - k)
        if link.target is None:
            alpha, witness = min_hitting_set(link.forbidden.copies, comb(m, r), floor)
        else:
            alpha, witness = min_targets_met(
                link.forbidden.copies, link.target.copies, comb(m, r), floor
            )
        previous = target_count(link) - alpha
    return alpha, witness


def ex_via_cover(n: int, spec: FamilySpec) -> tuple[int, RGraph]:
    """ex(n, spec) = C(n, r) - alpha, with an extremal witness.  n < 1 raises
    InputError; a witness with a forbidden copy or without `value` edges
    raises ClaimCheckError.

    For an explicit pattern, alpha is that of the cover ideal of its copies,
    listed once at n and searched link by link (`_chain_alpha` with k = r),
    and the witness is the complement of a minimum hitting set.  More than
    ALPHA_CAP_NODES variable-copy pairs raise ScaleGuardError before any copy
    is listed.  For the core-pair family, alpha is `core_pair_alpha`'s, on
    the pair variables, and the witness is the r-cliques of K_n - M."""
    _require_vertices(n)
    r, total = spec.r, comb(n, spec.r)
    if isinstance(spec, CoreFamily):
        alpha, killed = core_pair_alpha(n, spec.ell, r)
        pairs = EdgeRanker(n, 2)
        witness = RGraph(n, r, (
            e for e in itertools.combinations(range(1, n + 1), r)
            if not pairs.mask(itertools.combinations(e, 2)) & killed
        ))
        free = core_family_free(witness, spec.ell)
    else:
        guard_search_setup(total, explicit_copy_count(spec, n))
        fam = enumerate_forbidden_copies(spec, n)
        alpha, hitting = _chain_alpha(CoverInstance(n, r, fam), r)
        witness = RGraph(n, r, EdgeRanker(n, r).unmask(((1 << total) - 1) ^ hitting))
        free = count_copies(witness, fam) == 0
    value = total - alpha
    if not free or len(witness) != value:
        raise ClaimCheckError(f"witness of {len(witness)} edges is not a forbidden-free graph of {value}")
    return value, witness


# ---------------------------------------------------------------------------
# generalized Turán


def quotient_rank(M: int, target_masks: list[int]) -> int:
    """Number of target copies disjoint from the support M (copies whose
    monomial survives the quotient killing the variables of M)."""
    return sum(1 for t in target_masks if not (t & M))


def alpha_target(inst: CoverInstance, k: int | None = None) -> tuple[int, int]:
    """Minimum number of target copies meeting M, over supports M hitting
    every forbidden copy.  Returns (minimum, witness support mask).

    The search is `min_targets_met` over the edge variables: forced targets
    (those containing a forbidden copy) are counted up front, the witness is
    the first optimum in its fixed branching order, and past ALPHA_CAP_NODES
    search nodes it raises ScaleGuardError.  So does a setup of more than
    ALPHA_CAP_NODES target-copy pairs, before the search starts.

    When every target copy spans exactly k vertices (the edge-covered
    vertices of an explicit target pattern), the search is certified link by
    link on the prefixes [k], ..., [n] (`_chain_alpha`); the minimum and
    witness are those of the single search, reached sooner.  k = None runs
    the single search.
    """
    if inst.target is None:
        raise InputError("generalized instance needs a target family")
    return _chain_alpha(inst, k)


def _clique_copies(n: int, s: int) -> CopyFamily:
    """The s-cliques of K_n, each as the mask of its C(s, 2) pairs."""
    ranker = EdgeRanker(n, 2)
    copies = (
        ranker.mask(itertools.combinations(clique, 2))
        for clique in itertools.combinations(range(1, n + 1), s)
    )
    return CopyFamily(n, 2, tuple(sorted(copies)))


def core_pair_alpha(n: int, ell: int, r: int) -> tuple[int, int]:
    """The core-pair family (ell, r) on [n], reduced to its shadow graph.

    Returns (alpha, M): the fewest r-sets with a pair in M, over pair sets M
    (masks over `EdgeRanker(n, 2)`) meeting every ell-clique of K_n, and one
    such M.  So alpha = C(n, r) - ex(n, K_r, K_ell), and it is also:

    * C(n, r) - ex(n, K_ell^(r)).  An r-graph H contains a member iff its
      shadow graph (the pairs of positive codegree) has an ell-clique.  H
      lies in K_r(shadow(H)), and K_r(G) has its shadow inside G, so the
      largest free H are the K_r(G) with G = K_n - M free of K_ell.
    * The codegree-star ideal's initial degree.  Let P(S) be the pairs whose
      star lies in a support S.  S is a member iff P(S) meets every ell-set,
      and S holds every r-set with a pair in P(S); conversely, the union of
      the stars over such an M is a member of exactly that size.

    The search is `alpha_target` with forbidden family K_ell and target
    family K_r on the pairs, certified link by link (k = r).  More than
    COPY_CAP cliques, or more than ALPHA_CAP_NODES target-copy pairs, raise
    ScaleGuardError before any clique is built.
    """
    cliques = comb(n, ell) + comb(n, r)
    if cliques > COPY_CAP:
        raise ScaleGuardError(f"{cliques} ell- and r-cliques exceed cap {COPY_CAP}")
    guard_search_setup(comb(n, r), comb(n, ell))
    return alpha_target(CoverInstance(n, 2, _clique_copies(n, ell), _clique_copies(n, r)), r)


def gen_ex_via_cover(n: int, target_spec: FamilySpec, forbid_spec: FamilySpec) -> int:
    """ex(n, T, F) = |target copies| - alpha_T(cover ideal).  n < 1 raises
    InputError.

    For an explicit target T whose edges cover k vertices, the search is
    certified link by link (`_chain_alpha`): both copy lists are enumerated
    once, at n, the instance on [m] is their prefix below 1 << C(m, r), and
    ex(m, T, F) <= floor(ex(m-1, T, F) * m / (m - k)) gives each link its
    floor.  A core-pair target family is searched at n alone, with no floor.
    """
    _require_vertices(n)
    inst = make_instance(n, forbid_spec, target_spec)
    k = len(set().union(*target_spec.edges)) if isinstance(target_spec, RGraph) else None
    alpha, _ = alpha_target(inst, k)
    return len(inst.target) - alpha


def vertex_quotient_of_cover(M: int, n: int) -> SquareZeroQuotient:
    """Read a support over the edge variables of K_n as a kill graph on [n]:
    a target clique survives M iff its vertex set is standard here."""
    kill = [tuple(sorted(e)) for e in EdgeRanker(n, 2).unmask(M)]
    return SquareZeroQuotient(n, kill)


__all__ = [
    "CoverInstance",
    "make_instance",
    "cover_ideal",
    "ex_via_cover",
    "quotient_rank",
    "alpha_target",
    "core_pair_alpha",
    "gen_ex_via_cover",
    "vertex_quotient_of_cover",
]
