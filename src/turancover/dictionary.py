"""The cover-ideal dictionary for ordinary and generalized Turán numbers.

The cover ideal of an instance is held as its forbidden copy masks: a
support (an int mask over `EdgeRanker` ranks) is a member iff it meets
every forbidden copy, and an empty family gives the whole ring.

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

from .errors import ClaimCheckError, InputError
from .hypergraph import (
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    FamilySpec,
    RGraph,
    core_family_free,
    count_copies,
    enumerate_forbidden_copies,
    explicit_copy_count,
    explicit_shapes,
    guard_copy_listing,
)
from .monomial import guard_search_setup, min_hitting_set, min_targets_met
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
    """The copy families of an instance; no target family means the C(n, r)
    single edges (`alpha_target`).  Families of different uniformity raise
    InputError before either is listed.  For an explicit forbidden pattern
    with an explicit target or none, the number of targets and of copies
    is exact before enumeration, so `alpha_target`'s setup guard refuses an
    oversized instance before any copy is listed."""
    if target_spec is not None and target_spec.r != forbid_spec.r:
        raise InputError("target and forbidden families must share uniformity")
    forbid_shapes = target_shapes = None  # each pattern's shapes, found once
    if isinstance(forbid_spec, RGraph) and not isinstance(target_spec, CoreFamily):
        nvars = ntargets = comb(n, forbid_spec.r)
        if target_spec is not None:
            target_shapes = explicit_shapes(target_spec, n)
            ntargets = explicit_copy_count(target_shapes, n)
        forbid_shapes = explicit_shapes(forbid_spec, n)
        guard_search_setup(ntargets, explicit_copy_count(forbid_shapes, n), nvars)
    forbidden = enumerate_forbidden_copies(forbid_spec, n, forbid_shapes)
    target = (
        enumerate_forbidden_copies(target_spec, n, target_shapes) if target_spec is not None else None
    )
    return CoverInstance(n, forbidden.r, forbidden, target)


def _require_vertices(n: int) -> None:
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")


def ex_via_cover(n: int, spec: FamilySpec) -> tuple[int, RGraph]:
    """ex(n, spec) = C(n, r) - alpha, with an extremal witness.  n < 1 raises
    InputError; a witness with a forbidden copy or without `value` edges
    raises ClaimCheckError.

    For an explicit pattern, alpha is the initial degree of the cover ideal
    of its copies, `alpha_target` on `make_instance(n, spec)` with the
    single edges as targets, and the witness is the complement of a minimum
    hitting set.  For the core-pair family, alpha is
    `core_pair_alpha`'s, on the pair variables, and the witness is the
    r-cliques of K_n - M."""
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
        inst = make_instance(n, spec)
        alpha, hitting = alpha_target(inst)
        witness = RGraph(n, r, EdgeRanker(n, r).unmask(((1 << total) - 1) ^ hitting))
        free = count_copies(witness, inst.forbidden) == 0
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


def alpha_target(inst: CoverInstance) -> tuple[int, int]:
    """Minimum number of targets meeting M, over supports M hitting every
    forbidden copy.  Returns (minimum, witness support mask).

    The targets are the instance's target copies (`min_targets_met`), or
    with no target family the C(n, r) single edges (`min_hitting_set`), whose
    minimum is the cover ideal's initial degree.  Forced targets (those
    containing a forbidden copy) are counted up front, and the witness is the
    first optimum in the search's fixed branching order.

    When every target spans k vertices (k = r for single edges, else the
    target family's `span`), the search is certified link by link.  The
    averaging bound of Katona, Nemetz and Simonovits (1964): the property of
    having no forbidden copy passes to induced subgraphs, and each target on
    [m] lies inside m - k of the m vertex-deleted subsets of [m], so summing
    the target count over those subsets gives
    ex(m) * (m - k) <= m * ex(m - 1), with ex(m) the most targets that a
    support hitting every forbidden copy on [m] leaves unmet.  So
    |targets on [m]| - floor(ex(m-1) * m / (m - k)) is a proven lower bound
    on the minimum at m, and the search stops once it reaches it.

    Links run for m = k..n on `CoverInstance.restrict(m)`, prefixes of the
    copy lists enumerated once at n; each floor comes from the previous
    link's value only, never from a theorem a caller checks.  The first link
    gets floor 0, and a target family without a span (core-pair copies, a
    family built by hand) runs the single search on [n].  The final link
    expands a prefix of the nodes the floor-free search on [n] expands, so
    the minimum and witness are that search's, reached sooner.

    A setup on [n] past `monomial.guard_search_setup`'s budget raises
    ScaleGuardError before the first link; each link's search raises it past
    its own ALPHA_CAP_NODES nodes.
    """
    n, r = inst.n, inst.r
    k = r if inst.target is None else inst.target.span

    def target_count(link: CoverInstance) -> int:
        return comb(link.n, r) if link.target is None else len(link.target)

    guard_search_setup(target_count(inst), len(inst.forbidden), comb(n, r))
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

    The search is `alpha_target` on `make_instance` with forbidden pattern
    K_ell and target pattern K_r on the pairs, certified link by link.  A
    pattern K_s holds C(s, 2) edges, so the enumerator's listing guard
    (C(n, s) x C(s, 2) > COPY_CAP) and the search's setup guard (C(n, r)
    targets and C(n, ell) copies over C(n, 2) variables) raise
    ScaleGuardError before either pattern is built.  A clique on s > n
    vertices has no copy in K_n, and neither has the edgeless pattern on s
    vertices passed in its place.
    """
    for s in (ell, r):
        guard_copy_listing(comb(n, s), comb(s, 2))
    guard_search_setup(comb(n, r), comb(n, ell), comb(n, 2))
    forbid, target = (RGraph.complete(s, 2) if s <= n else RGraph(s, 2) for s in (ell, r))
    return alpha_target(make_instance(n, forbid, target))


def gen_ex_via_cover(n: int, target_spec: FamilySpec, forbid_spec: FamilySpec) -> int:
    """ex(n, T, F) = |target copies| - alpha_T(cover ideal).  n < 1 raises
    InputError.

    For an explicit target T whose edges cover k vertices, `alpha_target`
    certifies the search link by link on [k], ..., [n]; a core-pair target
    family is searched at n alone, with no floor.
    """
    _require_vertices(n)
    inst = make_instance(n, forbid_spec, target_spec)
    alpha, _ = alpha_target(inst)
    return len(inst.target) - alpha


def vertex_quotient_of_cover(M: int, n: int) -> SquareZeroQuotient:
    """Read a support over the edge variables of K_n as a kill graph on [n]:
    a target clique survives M iff its vertex set is standard here."""
    kill = [tuple(sorted(e)) for e in EdgeRanker(n, 2).unmask(M)]
    return SquareZeroQuotient(n, kill)


__all__ = [
    "CoverInstance",
    "make_instance",
    "ex_via_cover",
    "quotient_rank",
    "alpha_target",
    "core_pair_alpha",
    "gen_ex_via_cover",
    "vertex_quotient_of_cover",
]
