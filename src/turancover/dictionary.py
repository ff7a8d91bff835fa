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
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    FamilySpec,
    RGraph,
    core_family_free,
    count_copies,
    enumerate_forbidden_copies,
)
from .monomial import SquarefreeIdeal, VarUniverse, min_hitting_set
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

    def universe(self) -> VarUniverse:
        return VarUniverse.edge_universe(self.n, self.r)

    def ranker(self) -> EdgeRanker:
        return EdgeRanker(self.n, self.r)


def make_instance(
    n: int, forbid_spec: FamilySpec, target_spec: FamilySpec | None = None
) -> CoverInstance:
    forbidden = enumerate_forbidden_copies(forbid_spec, n)
    target = enumerate_forbidden_copies(target_spec, n) if target_spec is not None else None
    if target is not None and target.r != forbidden.r:
        raise InputError("target and forbidden families must share uniformity")
    return CoverInstance(n, forbidden.r, forbidden, target)


def cover_ideal(inst: CoverInstance) -> SquarefreeIdeal:
    """Cover-form ideal: a monomial is a member iff its support meets every
    forbidden copy.  An empty forbidden family gives the whole ring."""
    return SquarefreeIdeal.from_copy_family(inst.forbidden)


def _is_free(G: RGraph, spec: FamilySpec, fam: CopyFamily) -> bool:
    if isinstance(spec, CoreFamily):
        return core_family_free(G, spec.ell)
    return count_copies(G, fam) == 0


def ex_via_cover(n: int, spec: FamilySpec) -> tuple[int, RGraph]:
    """ex(n, spec) = C(n, r) - alpha(cover ideal), witnessed by the complement
    of a minimum hitting set of the forbidden copies."""
    fam = enumerate_forbidden_copies(spec, n)
    ranker = EdgeRanker(fam.n, fam.r)
    total = ranker.count
    size, witness_mask = min_hitting_set(fam.masks(ranker), total)
    value = total - size
    complement_mask = ((1 << total) - 1) ^ witness_mask
    witness = RGraph(n, fam.r, ranker.unmask(complement_mask))
    if not _is_free(witness, spec, fam):
        raise ClaimCheckError("hitting-set complement is not forbidden-free")
    return value, witness


# ---------------------------------------------------------------------------
# generalized Turán


def quotient_rank(M: int, target_masks: list[int]) -> int:
    """Number of target copies disjoint from the support M (copies whose
    monomial survives the quotient killing the variables of M)."""
    return sum(1 for t in target_masks if not (t & M))


def killed_count(M: int, target_masks: list[int]) -> int:
    return sum(1 for t in target_masks if t & M)


ALPHA_CAP_NODES = 2_000_000


def _index_sets(masks: list[int], nvars: int) -> list[int]:
    """For each variable, the indices of the masks containing it, as a bitmask."""
    out = [0] * nvars
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= 1 << i
            m ^= low
    return out


def alpha_target(inst: CoverInstance, cap_nodes: int = ALPHA_CAP_NODES) -> tuple[int, int]:
    """Minimum number of target copies meeting M, over supports M hitting
    every forbidden copy.  Returns (minimum, witness support mask).

    A target copy that contains a forbidden copy meets every hitting set.
    These forced targets are counted up front and the search runs over the
    others only; when every target is forced (say K_r targets against K_ell
    with r >= ell), the search just finds one hitting set.

    Branch-and-bound over minimal hitting sets: branch on the allowed
    variables of an uncovered forbidden copy with the fewest of them,
    banning each variable in the branches after its own.  The killed count
    is monotone in M, so a branch is cut as soon as it kills as many targets
    as the incumbent.  The witness is therefore the first optimum the search
    reaches in its fixed branching order, not a canonical one.  Uncovered
    copies and unmet targets are kept as bitsets over their indices.

    Every search node counts against ``cap_nodes``; past it the search raises
    ScaleGuardError, so each call ends in bounded time.
    """
    if inst.target is None:
        raise InputError("generalized instance needs a target family")
    ranker = inst.ranker()
    forb = inst.forbidden.masks(ranker)
    targ = inst.target.masks(ranker)
    if not forb:
        return 0, 0
    free = [t for t in targ if not any(c & t == c for c in forb)]
    forced = len(targ) - len(free)
    # smallest copies first, so the first copy avoiding every banned
    # variable is the smallest of those
    forb.sort(key=lambda c: (c.bit_count(), c))
    targets_at = _index_sets(free, ranker.count)
    copies_at = _index_sets(forb, ranker.count)

    best = len(free) + 1
    best_mask = 0
    nodes = 0

    def dfs(
        chosen: int, banned: int, banned_copies: int, uncovered: int, alive: int, killed: int
    ) -> None:
        # uncovered: forbidden copies not hit yet; banned_copies: copies
        # through a banned variable; alive: free targets not met yet
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > cap_nodes:
            raise ScaleGuardError(f"alpha_target search exceeds {cap_nodes} nodes")
        if not uncovered:
            best, best_mask = killed, chosen
            return
        allowed = ~banned
        whole = uncovered & ~banned_copies
        if whole:
            pivot = (whole & -whole).bit_length() - 1
            size = forb[pivot].bit_count()
        else:
            pivot, size = -1, ranker.count + 1
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

    dfs(0, 0, 0, (1 << len(forb)) - 1, (1 << len(free)) - 1, 0)
    if best > len(free):
        raise ClaimCheckError("no hitting set found for a nonempty forbidden family")
    return forced + best, best_mask


def gen_ex_via_cover(n: int, target_spec: FamilySpec, forbid_spec: FamilySpec) -> int:
    """ex(n, T, F) = |target copies| - alpha_T(cover ideal)."""
    inst = make_instance(n, forbid_spec, target_spec)
    alpha, _ = alpha_target(inst)
    return len(inst.target) - alpha


def vertex_quotient_of_cover(M: int, n: int) -> SquareZeroQuotient:
    """Read a support over the edge variables of K_n as a kill graph on [n]:
    a target clique survives M iff its vertex set is standard here."""
    universe = VarUniverse.edge_universe(n, 2)
    kill = [tuple(sorted(e)) for e in universe.unmask(M)]
    return SquareZeroQuotient(n, kill)


__all__ = [
    "CoverInstance",
    "make_instance",
    "cover_ideal",
    "ex_via_cover",
    "quotient_rank",
    "killed_count",
    "ALPHA_CAP_NODES",
    "alpha_target",
    "gen_ex_via_cover",
    "vertex_quotient_of_cover",
]
