"""Squarefree monomials and cover ideals in the edge-variable ring.

A squarefree monomial is its support: an int bitmask over the edge
variables at their colex ranks (`hypergraph.colex_rank`, the same for every
n), and its degree is the mask's `bit_count()`.  A cover ideal is given by
its copy masks: the intersection of variable ideals over a copy family, so
a support is a member iff it meets every copy (`all(m & c for c in
copies)`).  No copies give the whole ring; an empty copy gives the zero
ideal.  `minimal_supports`, the inclusion-minimal masks of a list, lives in
`hypergraph` and is re-exported here.

`setup_search` sets the one hitting-set search up and returns it as a
function of a cut, a floor and the number of targets below the cut, which
the caller counts.  Its targets are listed masks, the variables (None), or
the k-sets of an `EdgeRanker` over pair variables.  The minimum hitting set
is its search over every variable, with no floor and the variables
themselves as targets, `min_hitting_set`; the library's one entry is
`dictionary.alpha_target`, which counts each link's targets with
`CoverInstance.count`, and whose `ex` targets are the r-sets: the
variables too on an edge instance, and on a pair instance the ranker's
k-sets, which each pair meets through its codegree star.  Given the
uniformity r of vertex-symmetric families, the search also skips the
sibling branches that a vertex permutation maps onto earlier ones (orbit
cuts); `alpha_target` asks for that on instances `make_instance` built,
and the other entries search the uncut tree.
"""

from __future__ import annotations

from functools import reduce
from math import comb
from operator import and_
from typing import Callable, Iterable, Sequence

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import EdgeRanker, _bits, _mask_of, colex_unrank, minimal_supports, pair_stars


# ---------------------------------------------------------------------------
# the hitting-set search


ALPHA_CAP_NODES = 2_000_000


def guard_search_setup(ntargets: int, ncopies: int, nvars: int) -> None:
    """Refuse a search whose setup alone exceeds the ALPHA_CAP_NODES budget.
    Callers with exact copy counts run it before any copy is listed.

    ntargets * ncopies counts the target-copy pairs whose containment the
    forced-target pass of listed targets decides: each copy ANDs the rows
    of the target table at its variables, bitsets over the target indices.
    The target and copy masks have up to nvars bits each, and the index
    tables (`_index_sets`) hold one bitset per variable over the target and
    copy indices, so together they take up to 2 * nvars * (ntargets +
    ncopies) bits; past ALPHA_CAP_NODES KiB that is refused too.

    One-edge targets held as no list are priced the same way, though their
    setup does less: the variables as targets, nvars of them, build neither
    list nor table, and the k-sets over pair variables build no list and
    run no forced pass, only C(n, 2) codegree stars of up to ntargets bits
    each (none when every target is forced).  The price stays: past it the
    search itself can run for minutes before ALPHA_CAP_NODES stops it."""
    work = ntargets * ncopies
    if work > ALPHA_CAP_NODES:
        raise ScaleGuardError(
            f"{ntargets} targets x {ncopies} copies = {work} setup steps exceed {ALPHA_CAP_NODES}"
        )
    kib = 2 * nvars * (ntargets + ncopies) // 8192
    if kib > ALPHA_CAP_NODES:
        raise ScaleGuardError(
            f"masks and index tables of {ntargets} targets and {ncopies} copies over"
            f" {nvars} variables take {kib} KiB, exceeding {ALPHA_CAP_NODES} KiB"
        )


def _index_sets(masks: list[int], nvars: int) -> list[int]:
    """For each variable, the indices of the masks containing it, as a bitmask."""
    out = [0] * nvars
    for i, m in enumerate(masks):
        bit = 1 << i
        for v in _bits(m):
            out[v] |= bit
    return out


class _VertexMasks(dict):
    """Variable -> the vertex mask of its r-set (bit u for vertex u),
    unranked (`colex_unrank`) on first use."""

    def __init__(self, r: int):
        super().__init__()
        self.r = r

    def __missing__(self, v: int) -> int:
        mask = 0
        for u in colex_unrank(v, self.r):
            mask |= 1 << u
        self[v] = mask
        return mask


def setup_search(
    copies: Iterable[int], targets: Sequence[int] | EdgeRanker | None, nvars: int,
    r: int | None = None,
) -> Callable:
    """Set the hitting-set search up once for the copy and target masks over
    nvars variables, and return `search(cut, floor, ntargets)`: the minimum
    number of targets below `1 << cut` meeting M, over supports M meeting
    every copy below it, a witness M, and the number of nodes the search
    expanded (0 with no copy below the cut).  Under colex ranks those are the
    families on [m] for cut = C(m, r), so one setup at n serves every
    m <= n.  `ntargets` is the number of targets below the cut, which the
    caller counts (`dictionary.CoverInstance.count`).

    Each variable's row is the bitset of the targets it meets, and a
    target containing a copy meets every hitting set.  Each search starts
    its root with these forced targets below its cut already met.  The
    targets take one of three forms:

    * listed masks: sorted, so that the targets below a cut are a prefix,
      with the target table `targets_at` as rows.  The AND of its rows over
      a copy's variables holds the targets containing that copy, so the
      forced set is the OR of those ANDs.  A forced target's copy has a
      smaller mask, so it lies below the same cut.
    * None: the nvars variables themselves, target v being variable v
      (`ex`, `min_hitting_set`).  No target list or table is built, a
      branch on v meets target v unless it is met already, and the forced
      targets are the one-variable copies.
    * an `EdgeRanker(n, k)` the caller holds, over pair variables (r = 2):
      the k-sets of [n] at their colex ranks, each below the cut of [m]
      iff its pairs are (the one-edge target of a pair instance).  A pair
      meets the k-sets through it, so its row is its codegree star, read
      from `pair_stars` in pair-rank order.  A k-set holds a copy iff it
      holds that copy's vertices; by the symmetry that r promises (below)
      some k-set does iff some copy lies in [k], and then every one does.
      So the forced targets are all of them or none: all when the smallest
      copy mask lies below the cut C(k, 2), and then no row is built, since
      no branch meets a target that is not met already.  A ranker without
      r = 2 raises InputError.

    The copies below a cut keep their sorted order, so the sort, the
    `_index_sets` tables, the rows and the forced set are built once, and
    each search expands the nodes of one set up on the masks below its cut
    alone.

    Branch-and-bound over minimal hitting sets, in one branch loop: branch
    on the allowed variables of an uncovered copy with the fewest of them,
    in increasing order, banning each variable in the branches after its
    own.  The count of targets met is monotone in M, so a branch is cut as
    soon as it meets as many targets as the incumbent.  `floor` is a proven
    lower bound on the minimum.  A node stops walking its branches once the
    incumbent meets no more targets than its stop limit, the larger of the
    node's own count and the floor: no branch can beat the node's own set,
    and none needs to beat the floor.  A floor at or below the minimum
    keeps the floor-free answer, reached after a prefix of its nodes; a
    floor above it may stop on a set that is not optimal.  Uncovered copies
    and unmet targets are bitsets over their indices.

    Packing bound.  With the variables as targets (None), a node first
    packs the uncovered copies greedily, in sorted order: a copy is packed
    when none of its allowed variables is met already or allowed in a copy
    packed before it, and each packed copy drops the copies through its
    allowed variables.  Every set below the node holds an allowed variable
    of each packed copy, each unmet and no two the same, so it meets at
    least the node's count plus the packed copies; a copy with a met allowed
    variable may be hit for nothing, so it is not packed.  The node is cut
    as soon as that bound reaches the incumbent, before its pivot is
    chosen.  The scan stops early once the bound plus the unmet allowed
    variables that no packed copy holds falls below the incumbent, since
    each further packed copy with an allowed variable takes one of them:
    on families of small overlapping copies, such as P3's, the bound
    rarely cuts, and a full scan would cost more than the nodes it saves.
    No set below a cut node beats the incumbent, and only a strictly
    better set replaces it, so the bound keeps the value and witness of
    the search without it, which walks a superset of its nodes.  Listed
    and k-set targets build no bound.

    Orbit cut.  Given `r`, variable v is the r-set `colex_unrank(v, r)`,
    and the caller promises that the copies and the targets below each cut
    C(m, r) are, as multisets, invariant under every permutation of [m].
    Each node carries T, the vertices of its chosen and banned variables,
    and skips the branch on v when an earlier sibling u has the same
    vertices in T (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 1998).  A permutation of [m] fixing T pointwise then maps v
    to u and fixes the node's chosen and banned sets, so it maps each set
    of v's branch to one of the same count in the branches up to u's.  A
    skipped variable is still banned in the later siblings' branches.  At
    the root T is empty and only the first branch runs; with fewer than two
    vertices of [m] outside T no two variables match, and none is skipped.

    The witness is the first optimum in the fixed branching order: only a
    strictly better set replaces the incumbent, and no skipped branch holds
    that first optimum, so the cut changes neither value nor witness.

    ScaleGuardError refuses a setup past `guard_search_setup`'s budget
    before any table is built, a search past ALPHA_CAP_NODES nodes (a budget
    per search), and a witness deeper than Python's recursion limit.
    """
    stars = isinstance(targets, EdgeRanker)
    if stars and r != 2:
        raise InputError("k-set targets need pair variables and r = 2")
    # smallest copies first, so the first copy avoiding every banned
    # variable is the smallest of those
    forb = sorted(copies, key=lambda c: (c.bit_count(), c))
    if not forb:
        return lambda cut, floor, ntargets: (0, 0, 0)
    ntargets = nvars if targets is None else targets.count if stars else len(targets)
    guard_search_setup(ntargets, len(forb), nvars)
    if forb[0] == 0:
        raise InputError("empty copy cannot be hit")
    copies_at = _index_sets(forb, nvars)
    unit = targets is None
    # each variable's complement row: the copies avoiding it, as a bitset
    missing_at = [~row for row in copies_at] if unit else None
    # the forced targets, an index bitset: each holds every variable of
    # some copy, so every hitting set meets it
    forced = 0
    targets_at = None
    if targets is None:
        # the one-variable copies, which sort first
        for c in forb:
            if c & (c - 1):
                break
            forced |= c
    elif not stars:
        # only counts of targets met matter, so sorted targets cut to a prefix
        targets_at = _index_sets(sorted(targets), nvars)
        for c in forb:
            forced |= reduce(and_, map(targets_at.__getitem__, _bits(c)))
    elif min(forb) >> comb(targets.r, 2):
        # no copy in [k]: none is forced, and each pair's row is its star
        targets_at = list(pair_stars(targets).values())
    else:
        forced = -1  # every k-set holds a copy
    verts = None if r is None else _VertexMasks(r)

    def search(cut: int, floor: int, ntargets: int) -> tuple[int, int, int]:
        below = 1 << cut
        uncovered = _mask_of([i for i, c in enumerate(forb) if c < below])
        if not uncovered:
            return 0, 0, 0
        alive = (1 << ntargets) - 1
        met = forced & alive  # met at the root, by every hitting set
        best, best_mask, nodes = ntargets + 1, 0, 0
        # [m]'s vertices, m the top vertex of the last variable below the
        # cut; none without the orbit cut, and then no node skips a branch
        # and T stays empty
        ground = 0 if verts is None else (2 << colex_unrank(cut - 1, r)[-1]) - 2

        def dfs(
            chosen: int, banned: int, banned_copies: int, uncovered: int, alive: int, killed: int,
            fixed: int,
        ) -> None:
            # uncovered: copies not hit yet; banned_copies: copies through a
            # banned variable; alive: targets not met yet; fixed: T
            nonlocal best, best_mask, nodes
            nodes += 1
            if nodes > ALPHA_CAP_NODES:
                raise ScaleGuardError(f"hitting-set search exceeds {ALPHA_CAP_NODES} nodes")
            if not uncovered:
                best, best_mask = killed, chosen
                return
            allowed = ~banned
            if unit:
                # the packing bound: each packed copy needs its own unmet
                # variable, so the node is cut once killed + packed >= best;
                # room: the unmet allowed variables no packed copy holds
                bound, free = killed, uncovered
                room = (alive & allowed).bit_count()
                while free and bound + room >= best:
                    low = free & -free
                    free ^= low
                    avail = forb[low.bit_length() - 1] & allowed
                    if avail & ~alive:  # a met variable hits it for nothing
                        continue
                    bound += 1
                    if bound >= best:
                        return
                    room -= avail.bit_count()
                    while avail:  # drop the copies through its variables
                        bit = avail & -avail
                        avail ^= bit
                        free &= missing_at[bit.bit_length() - 1]
            whole = uncovered & ~banned_copies
            if whole:
                pivot = (whole & -whole).bit_length() - 1
                size = forb[pivot].bit_count()
            else:
                pivot, size = -1, nvars + 1
            touched = uncovered & banned_copies
            while touched and size > 1:
                low = touched & -touched
                touched ^= low
                j = low.bit_length() - 1
                k = (forb[j] & allowed).bit_count()
                if k < size or (k == size and j < pivot):
                    pivot, size = j, k
            avail = forb[pivot] & allowed
            local_copies, reach = banned_copies, fixed
            # the vertices of [m] outside T, which a permutation fixing T may
            # move; with fewer than two of them no two variables match, here
            # or below, and every child gets T unchanged
            moved = ground ^ fixed
            orbit = moved & (moved - 1)
            if orbit:
                # one branch per key vv & T among the pivot's variables; each
                # child's T adds its own and earlier siblings.  At the root
                # every key is 0, so only the first branch runs
                keys = []
                if not fixed:
                    avail &= -avail
            # each branch bans the pivot's variables before its own, found
            # from `pool` only when it runs; the node returns once the
            # incumbent is down to its stop limit
            pool, stop = avail, killed if killed > floor else floor
            while avail:
                bit = avail & -avail
                avail ^= bit
                v = bit.bit_length() - 1
                if orbit:
                    vv = verts[v]
                    reach |= vv
                    key = vv & fixed
                    if key in keys:
                        local_copies |= copies_at[v]
                        continue
                    keys.append(key)
                # no rows: the variables as targets, or every target met
                hit = (bit if targets_at is None else targets_at[v]) & alive
                total = killed + hit.bit_count()
                if total < best:
                    rest = uncovered & ~copies_at[v]
                    ban = banned | pool & (bit - 1)
                    dfs(chosen | bit, ban, local_copies, rest, alive ^ hit, total, reach)
                    if best <= stop:
                        return
                local_copies |= copies_at[v]

        try:
            dfs(0, 0, 0, uncovered, alive ^ met, met.bit_count(), 0)
        except RecursionError:
            raise ScaleGuardError("hitting-set search exceeds the recursion limit") from None
        if best > ntargets:
            raise ClaimCheckError("no hitting set found for a nonempty copy family")
        return best, best_mask, nodes

    return search


def min_hitting_set(copies: Sequence[int], nvars: int) -> tuple[int, int]:
    """Exact minimum-cardinality transversal of the copy masks.

    Returns (size, witness mask).  This is `setup_search`'s search over all
    nvars variables, with no floor and the variables as targets, so the
    number of targets met is |M|; the witness is the first optimum in that
    search's fixed branching order.
    Empty family -> (0, 0); an empty copy mask raises InputError.  A setup
    past `guard_search_setup`'s budget raises ScaleGuardError.
    """
    return setup_search(copies, None, nvars)(nvars, 0, nvars)[:2]


__all__ = [
    "minimal_supports",
    "ALPHA_CAP_NODES",
    "guard_search_setup",
    "setup_search",
    "min_hitting_set",
]
