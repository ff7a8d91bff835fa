"""Squarefree monomials and cover ideals in the edge-variable ring.

A squarefree monomial is its support: an int bitmask over the edge
variables, ranked by `hypergraph.EdgeRanker`, and its degree is the mask's
`bit_count()`.  A cover ideal is given by its copy masks: the intersection
of variable ideals over a copy family, so a support is a member iff it
meets every copy (`all(m & c for c in copies)`).  No copies give the whole
ring; an empty copy gives the zero ideal.  `alexander_dual`, which turns
copy masks into the minimal generators of that ideal, lives in `hypergraph`
beside `minimal_supports` and is re-exported here.

`min_targets_met` is the one hitting-set search: the minimum hitting set
(the initial degree of a cover ideal) is the instance with one singleton
target per variable, and the dictionary reaches both through
`dictionary.alpha_target`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import alexander_dual, minimal_supports


# ---------------------------------------------------------------------------
# the hitting-set search


ALPHA_CAP_NODES = 2_000_000


def guard_search_setup(ntargets: int, ncopies: int, nvars: int) -> None:
    """Refuse a search whose setup alone exceeds the ALPHA_CAP_NODES budget.
    Callers with exact copy counts run it before any copy is listed.

    The forced-target filter takes one step per target-copy pair.  The
    target and copy masks have up to nvars bits each, and the index tables
    (`_index_sets`) hold one bitset per variable over the target and copy
    indices, so together they take up to 2 * nvars * (ntargets + ncopies)
    bits; past ALPHA_CAP_NODES KiB that is refused too."""
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
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= 1 << i
            m ^= low
    return out


class _FloorReached(Exception):
    """The incumbent has reached the floor: no better set exists."""


def min_targets_met(
    copies: Iterable[int], targets: Sequence[int], nvars: int, floor: int = 0
) -> tuple[int, int]:
    """Minimum number of target masks meeting M, over supports M that meet
    every copy mask.  Returns (minimum, witness support mask); an empty copy
    family gives (0, 0) and an empty copy mask raises InputError.

    A target that contains a copy meets every hitting set.  These forced
    targets are counted up front and the search runs over the others only;
    when every target is forced, the search just finds one hitting set.

    Branch-and-bound over minimal hitting sets: branch on the allowed
    variables of an uncovered copy with the fewest of them, banning each
    variable in the branches after its own.  The count of targets met is
    monotone in M, so a branch is cut as soon as it meets as many targets
    as the incumbent.  The witness is therefore the first optimum the search
    reaches in its fixed branching order, not a canonical one.  Uncovered
    copies and unmet targets are kept as bitsets over their indices.

    `floor` is a proven lower bound on the minimum.  The search stops as
    soon as the incumbent reaches it (forced + best <= floor), since no later
    set can be strictly better.  The incumbent is only ever replaced by a
    strictly better set, so the (minimum, witness) at the stop are the ones
    the floor-free search returns, after a prefix of its nodes.  A floor at
    or below the minimum therefore never changes the answer; a floor above
    it may stop the search on a set that is not optimal.  The dictionary
    takes its floors from the averaging bound (`dictionary.alpha_target`).

    Every search node counts against ALPHA_CAP_NODES; past it the search
    raises ScaleGuardError.  A setup past `guard_search_setup`'s budget raises
    it before the filter runs.  So each call ends in bounded time.
    Each recursion level adds one variable to M, so a witness deeper than
    Python's recursion limit also raises ScaleGuardError.
    """
    # smallest copies first, so the first copy avoiding every banned
    # variable is the smallest of those
    forb = sorted(copies, key=lambda c: (c.bit_count(), c))
    if not forb:
        return 0, 0
    guard_search_setup(len(targets), len(forb), nvars)
    if forb[0] == 0:
        raise InputError("empty copy cannot be hit")
    free = [t for t in targets if not any(c & t == c for c in forb)]
    forced = len(targets) - len(free)
    targets_at = _index_sets(free, nvars)
    copies_at = _index_sets(forb, nvars)

    best = len(free) + 1
    best_mask = 0
    nodes = 0

    def dfs(
        chosen: int, banned: int, banned_copies: int, uncovered: int, alive: int, killed: int
    ) -> None:
        # uncovered: copies not hit yet; banned_copies: copies through a
        # banned variable; alive: free targets not met yet
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > ALPHA_CAP_NODES:
            raise ScaleGuardError(f"hitting-set search exceeds {ALPHA_CAP_NODES} nodes")
        if not uncovered:
            best, best_mask = killed, chosen
            if forced + best <= floor:
                raise _FloorReached
            return
        allowed = ~banned
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
        local_ban, local_copies = banned, banned_copies
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            hit = targets_at[v] & alive
            total = killed + hit.bit_count()
            if total < best:
                rest = uncovered & ~copies_at[v]
                dfs(chosen | bit, local_ban, local_copies, rest, alive ^ hit, total)
            local_ban |= bit
            local_copies |= copies_at[v]

    try:
        dfs(0, 0, 0, (1 << len(forb)) - 1, (1 << len(free)) - 1, 0)
    except _FloorReached:
        pass
    except RecursionError:
        raise ScaleGuardError("hitting-set search exceeds the recursion limit") from None
    if best > len(free):
        raise ClaimCheckError("no hitting set found for a nonempty copy family")
    return forced + best, best_mask


def min_hitting_set(copies: Sequence[int], nvars: int, floor: int = 0) -> tuple[int, int]:
    """Exact minimum-cardinality transversal of the copy masks.

    Returns (size, witness mask).  This is `min_targets_met` with one
    singleton target per variable, so the number of targets met is |M|; the
    witness is the first optimum in that search's fixed branching order, and
    `floor`, a proven lower bound on the size, only stops the search early.
    Empty family -> (0, 0); an empty copy mask raises InputError.  A setup
    past `guard_search_setup`'s budget raises ScaleGuardError before the
    singletons are built.
    """
    if not copies:
        return 0, 0
    guard_search_setup(nvars, len(copies), nvars)
    return min_targets_met(copies, [1 << v for v in range(nvars)], nvars, floor)


__all__ = [
    "minimal_supports",
    "alexander_dual",
    "ALPHA_CAP_NODES",
    "guard_search_setup",
    "min_targets_met",
    "min_hitting_set",
]
