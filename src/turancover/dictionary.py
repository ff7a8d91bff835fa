"""The cover-ideal dictionary for ordinary and generalized Turán numbers.

The cover ideal of an instance is held as its forbidden copy masks: a
support (a colex mask, `hypergraph.edge_mask`) is a member iff it meets
every forbidden copy, and an empty family gives the whole ring.

Generalized, on r-graphs of any uniformity: ex(n, T, F) is the number of
target copies minus the fewest of them a member M meets.  The copies M
leaves are the target monomials surviving the quotient that kills M
(`quotient_rank`), the copies of T in the F-free graph M leaves.
Ordinary: ex(n, F) is the case of a one-edge target (`one_edge`), whose
copies are the r-sets of [n]: on an edge instance the variables
themselves, on a pair instance the r-sets a branch meets through each
pair's codegree star, so no target list is held.  On an edge instance
the minimum is the cover ideal's initial degree C(n, r) - ex(n, F), and
minimum hitting sets complement extremal witnesses.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb

from .errors import ClaimCheckError, InputError
from .hypergraph import (
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    FamilySpec,
    RGraph,
    _bits,
    check_target_spec,
    colex_unrank,
    complete_shape,
    core_family_free,
    count_copies,
    enumerate_forbidden_copies,
    explicit_copy_count,
    explicit_shapes,
    pair_shadows,
    place_copies,
)
from .monomial import guard_search_setup, setup_search
from .squarezero import SquareZeroQuotient


@dataclass(frozen=True)
class CoverInstance:
    """A cover-ideal instance over C(n, r) variables, the edges (or pairs
    for the core-pair family, with r = 2) at their colex ranks: forbidden
    copies and target copies, as colex masks.  `target` None holds no list:
    the targets are the copies of a one-edge target, the k-sets of [n]
    with k = `span` (the variables themselves when the span is r, or when
    there is none).  `count(m)` is the number of targets on [m], the one
    count that the search's links and the value ex(n, T, F) read.

    `span`, the k vertices each target copy spans, is the symmetry claim:
    both families, cut to the r-sets of [m], are invariant under every
    permutation of [m] for each m <= n, so that `alpha_target` may take
    averaging floors from smaller m and cut the search's sibling branches
    by orbits.  Only `make_instance` sets it; None makes no claim, and it
    takes no part in equality."""

    n: int
    r: int
    forbidden: CopyFamily
    target: CopyFamily | None
    span: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.forbidden.n, self.forbidden.r) != (self.n, self.r):
            raise InputError("forbidden family has incompatible (n, r)")
        if self.target is not None and (self.target.n, self.target.r) != (self.n, self.r):
            raise InputError("target family has incompatible (n, r)")

    def ranker(self) -> EdgeRanker:
        return EdgeRanker(self.n, self.r)

    def count(self, m: int) -> int:
        """The number of target copies on [m], m <= n, with multiplicity:
        C(m, k) k-sets with no list, else the listed copies below the cut
        `1 << C(m, r)`, a prefix of the sorted list."""
        if self.target is None:
            return comb(m, self.span or self.r)
        return bisect_left(self.target.copies, 1 << comb(m, self.r))


def one_edge(r: int) -> RGraph:
    """The r-graph of one edge, the target T with ex(n, T, F) = ex(n, F)."""
    return RGraph(r, r, [range(1, r + 1)])


def make_instance(
    n: int, forbid_spec: FamilySpec, target_spec: FamilySpec | None = None
) -> CoverInstance:
    """The copy families of ex(n, T, F), F = `forbid_spec` and T =
    `target_spec`, by default `one_edge(F.r)`, the instance of ex(n, F).  A
    target failing `check_target_spec` raises InputError before anything is
    listed.

    For an explicit F the variables are the C(n, r) edges, and the copies
    of F and of T are listed by `place_copies`.  Both copy counts are exact
    before enumeration, so the search's setup guard refuses an oversized
    instance before any copy is listed.

    For the core-pair family K_ell^(r) the variables are the C(n, 2) pairs.
    An r-graph H contains a member iff its shadow graph (the pairs of
    positive codegree) has an ell-clique, and H lies in K_r(shadow(H)).  So
    the largest free r-graphs are the K_r(K_n - M) over pair sets M meeting
    every ell-clique, and the copies of T there are those whose shadow
    avoids M: the forbidden copies are the ell-cliques of K_n, and the
    targets the pair shadows of the copies of T (`pair_shadows`), a
    multiset.  Before anything is placed, ScaleGuardError refuses a search
    setup past `guard_search_setup`'s budget, which prices the C(n, k)
    targets whether they are placed or not; then the cliques are placed,
    and then the targets, each under `place_copies`'s guard.

    Both families hold every copy placed on [n], so cut to the r-sets of
    [m] they are invariant under the permutations of [m]: the instance's
    `span` is the k vertices of T's shapes, None when no target copy is
    placed (T.n > n).  A T spanning as many vertices as an edge of F is one
    edge, whose copies are the r-sets of [n], each once: the instance's
    `target` is None and no target is placed.  On an edge instance these
    are the variables; on a pair instance with r >= 3 the search reads
    them off the pairs' codegree stars (`alpha_target`)."""
    if target_spec is None:
        target_spec = one_edge(forbid_spec.r)
    check_target_spec(target_spec, forbid_spec)
    r = forbid_spec.r
    target_shapes = explicit_shapes(target_spec, n)  # each pattern's shapes, found once
    ntargets = explicit_copy_count(target_shapes, n)
    span = target_shapes[0] or None  # k = 0 iff no shape
    if isinstance(forbid_spec, CoreFamily):
        ell = forbid_spec.ell
        guard_search_setup(ntargets, comb(n, ell), comb(n, 2))
        cliques = place_copies(complete_shape(ell, 2) if ell <= n else (0, set()), n, 2)
        targets = None if span == r else place_copies(pair_shadows(target_shapes), n, 2)
        return CoverInstance(n, 2, cliques, targets, span)
    forbid_shapes = explicit_shapes(forbid_spec, n)
    guard_search_setup(ntargets, explicit_copy_count(forbid_shapes, n), comb(n, r))
    forbidden = enumerate_forbidden_copies(forbid_spec, n, forbid_shapes)
    targets = None if span == r else place_copies(target_shapes, n, r)
    return CoverInstance(n, r, forbidden, targets, span)


def ex_via_cover(n: int, spec: FamilySpec) -> tuple[int, RGraph]:
    """ex(n, F) = C(n, r) - alpha with an extremal witness, certified:
    `gen_ex_via_cover` with the one-edge target `one_edge(F.r)`.  For an
    explicit F, alpha is the initial degree of the cover ideal of F's
    copies and the witness the complement of a minimum hitting set M; for
    the core-pair family, the witness is the r-cliques of K_n - M.

    For 1 <= n < r, [n] has no r-set: the value is 0 and the witness empty,
    returned before the r-vertex target is built."""
    if 1 <= n < spec.r:
        return 0, RGraph(n, spec.r)
    return gen_ex_via_cover(n, one_edge(spec.r), spec)


# ---------------------------------------------------------------------------
# generalized Turán


def quotient_rank(M: int, target_masks: list[int]) -> int:
    """Number of target copies disjoint from the support M (copies whose
    monomial survives the quotient killing the variables of M)."""
    return sum(1 for t in target_masks if not (t & M))


def alpha_target(inst: CoverInstance, ranker: EdgeRanker | None = None) -> tuple[int, int]:
    """Minimum number of target copies meeting M, over supports M hitting
    every forbidden copy.  Returns (minimum, witness support mask).

    The search is `monomial.setup_search`'s, set up once per call on the
    copy lists enumerated at n, and each link passes it `inst.count(m)`,
    the targets on [m].  With `target` None the targets are the copies of
    `one_edge`, the k-sets of [n] (k = span).  On an edge instance they are
    the variables, and the minimum is |M|, the cover ideal's initial
    degree.  On a pair instance with r >= 3 they are the r-sets, which
    each pair meets through its codegree star: the search takes as its
    targets `ranker`, an `EdgeRanker(n, k)` the caller already holds, or
    one built here when none is given (InputError for another n or k).

    When the instance has a `span`, every target spans k = span vertices
    (k = r for single edges) and the search is certified link by link.
    The averaging bound of Katona, Nemetz and Simonovits (1964): the
    property of having no forbidden copy passes to induced subgraphs, each
    vertex-deleted subset of [m] carries the instance on [m - 1] up to
    relabelling (by the symmetry), and each target on [m] lies inside
    m - k of those m subsets, so summing the target count over them gives
    ex(m) * (m - k) <= m * ex(m - 1), with ex(m) the most targets that a
    support hitting every forbidden copy on [m] leaves unmet.  So
    |targets on [m]| - floor(ex(m-1) * m / (m - k)) is a proven lower bound
    on the minimum at m, and the search stops once it reaches it.

    Link m searches the masks below the cut `1 << C(m, r)`: colex ranks
    put the r-sets of [m] first, so these are the families on [m].  Each
    floor comes from the previous link's value only, never from a theorem a
    caller checks.  The first link gets floor 0, and an instance without a
    span (hand-built, or with no target placed) runs one search on [n].
    The bound holds for repeated targets too, counted with multiplicity.

    With a span every link also cuts orbits (`setup_search` with r): the
    families below each cut are invariant under the permutations of [m], so
    a sibling branch that one of them maps onto an earlier branch is
    skipped.  An instance without a span runs the uncut tree.  Either way
    the final link expands a prefix of the floor-free search's nodes (the
    floor-free cut search's, with a span), and its
    minimum and witness are those of the uncut search on [n], reached
    sooner.

    `setup_search` refuses a setup on [n] past
    `monomial.guard_search_setup`'s budget with ScaleGuardError before the
    first link; each link's search raises it past its own ALPHA_CAP_NODES
    nodes.
    """
    n, r, k = inst.n, inst.r, inst.span
    targets = None if inst.target is None else inst.target.copies
    if targets is None and k not in (None, r):  # the k-sets of a pair instance
        if ranker is None:
            ranker = EdgeRanker(n, k)
        elif (ranker.n, ranker.r) != (n, k):
            raise InputError(f"need the {k}-sets of [{n}], got a ranker of ({ranker.n}, {ranker.r})")
        targets = ranker
    search = setup_search(inst.forbidden.copies, targets, comb(n, r), None if k is None else r)
    previous = None
    for m in range(k, n + 1) if k is not None else (n,):
        ntargets = inst.count(m)
        floor = 0 if previous is None else ntargets - previous * m // (m - k)
        alpha, witness, _ = search(comb(m, r), floor, ntargets)
        previous = ntargets - alpha
    return alpha, witness


def gen_ex_via_cover(
    n: int, target_spec: FamilySpec, forbid_spec: FamilySpec
) -> tuple[int, RGraph]:
    """ex(n, T, F) = |target copies| - alpha_T(cover ideal), with a witness.
    n < 1, and a target that fails `check_target_spec` (a core-pair family,
    another uniformity, or no edge), raise InputError.

    The value is `inst.count(n) - alpha`.  One witness rule for every
    instance: the witness is what the support M of `alpha_target` leaves,
    the r-sets of [n] none of whose variables lies in M (the r-set itself,
    or its pairs for the core-pair family).  The target copies M leaves are
    the copies of T in it, so ClaimCheckError is raised unless it holds no
    member of F and their count, the rank, equals the value.  A T whose
    copies span r vertices (`inst.span`) is one edge, with the C(n, r)
    r-sets as its copies and no list: the rank is the witness's edge
    count.  Any other T has the rank `quotient_rank(M, targets)`.  When
    copies of a clique K_s on graphs are placed (r = 2, s = span, the
    one-edge K_2 included), the rank must also be the degree-s Hilbert
    value of `vertex_quotient(M)`, whose kill graph is M: a K_s survives
    iff its vertex set is standard."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    inst = make_instance(n, forbid_spec, target_spec)
    alpha, M = alpha_target(inst)
    r, k = forbid_spec.r, inst.span
    # M's variables unranked by formula: no ranker of [n]'s pairs is built
    # beside the r-sets a pair instance's search lists for its stars
    killed = {colex_unrank(i, inst.r) for i in _bits(M)}
    witness = RGraph(n, r, (
        e for e in itertools.combinations(range(1, n + 1), r)
        if killed.isdisjoint(itertools.combinations(e, inst.r))
    ))
    free = (core_family_free(witness, forbid_spec.ell) if isinstance(forbid_spec, CoreFamily)
            else count_copies(witness, inst.forbidden) == 0)
    value = inst.count(n) - alpha
    # T is one edge, its copies the r-sets
    rank = len(witness) if k == r else quotient_rank(M, inst.target.copies)
    if not free or rank != value:
        raise ClaimCheckError(f"witness of {rank} target copies is not a forbidden-free graph of {value}")
    if r == 2 and k is not None and len(target_spec.edges) == comb(k, 2):
        standard = vertex_quotient(M, inst.ranker()).hilbert(k)
        if standard != rank:
            raise ClaimCheckError(f"{rank} K{k} copies survive the support, but its vertex quotient has {standard}")
    return value, witness


def vertex_quotient(support: int, ranker: EdgeRanker) -> SquareZeroQuotient:
    """The square-zero quotient on [n] killing x_a x_b iff the support, a
    mask over `ranker`, holds the star of {a, b} (`pair_stars`).  Every
    r-set outside the support is standard.  For r = 2 the kill graph is the
    support, so an s-clique survives it iff its vertex set is standard.

    A pair survives iff some r-set through it lies outside the support, so
    the pairs of those r-sets are marked and no star mask is built: the
    C(n, 2) masks of `pair_stars` hold up to C(n, r) bits each, quadratic
    in the support's length for r = 2."""
    n = ranker.n
    kept = [0] * (n + 1)
    for i in _bits(((1 << ranker.count) - 1) & ~support):
        for a, b in itertools.combinations(ranker.sets[i], 2):
            kept[a] |= 1 << b
    kill = [(a, b) for a, b in itertools.combinations(range(1, n + 1), 2) if not kept[a] >> b & 1]
    return SquareZeroQuotient(n, kill)


__all__ = [
    "CoverInstance",
    "one_edge",
    "make_instance",
    "ex_via_cover",
    "quotient_rank",
    "alpha_target",
    "gen_ex_via_cover",
    "vertex_quotient",
]
