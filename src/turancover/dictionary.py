"""The cover-ideal dictionary for ordinary and generalized Turán numbers.

Ordinary: the initial degree of the cover ideal of the forbidden copies is
C(n, r) minus the extremal number, with minimum hitting sets complementing
extremal witnesses.  Generalized (graphs only): the objective becomes the
number of target-copy monomials surviving a missing-edge quotient, and the
optimum is |targets| minus the minimum number of killed target copies over
monomials of the cover ideal.
"""

from __future__ import annotations

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


def make_instance(
    n: int, forbid_spec: FamilySpec, target_spec: FamilySpec | None = None
) -> CoverInstance:
    """The copy families of an instance.  When both patterns are explicit,
    their copy counts are exact before enumeration, so `alpha_target`'s
    setup guard refuses an oversized pair before any copy is listed."""
    if (
        isinstance(forbid_spec, RGraph)
        and isinstance(target_spec, RGraph)
        and target_spec.r == forbid_spec.r
    ):
        guard_search_setup(explicit_copy_count(target_spec, n), explicit_copy_count(forbid_spec, n))
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
    of a minimum hitting set of the forbidden copies.  More than
    ALPHA_CAP_NODES variable-copy pairs raise ScaleGuardError before the
    search starts, and for an explicit pattern, whose copy count is exact
    beforehand, before any copy is listed.  (A core-pair family's projected
    count overcounts, so `min_hitting_set` guards it after enumeration.)"""
    if isinstance(spec, RGraph):
        guard_search_setup(comb(n, spec.r), explicit_copy_count(spec, n))
    fam = enumerate_forbidden_copies(spec, n)
    total = comb(n, fam.r)
    size, witness_mask = min_hitting_set(fam.copies, total)
    value = total - size
    complement_mask = ((1 << total) - 1) ^ witness_mask
    witness = RGraph(n, fam.r, EdgeRanker(n, fam.r).unmask(complement_mask))
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


def alpha_target(inst: CoverInstance) -> tuple[int, int]:
    """Minimum number of target copies meeting M, over supports M hitting
    every forbidden copy.  Returns (minimum, witness support mask).

    The search is `min_targets_met` over the edge variables: forced targets
    (those containing a forbidden copy) are counted up front, the witness is
    the first optimum in its fixed branching order, and past ALPHA_CAP_NODES
    search nodes it raises ScaleGuardError.  So does a setup of more than
    ALPHA_CAP_NODES target-copy pairs, before the search starts.
    """
    if inst.target is None:
        raise InputError("generalized instance needs a target family")
    return min_targets_met(inst.forbidden.copies, inst.target.copies, comb(inst.n, inst.r))


def gen_ex_via_cover(n: int, target_spec: FamilySpec, forbid_spec: FamilySpec) -> int:
    """ex(n, T, F) = |target copies| - alpha_T(cover ideal)."""
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
    "cover_ideal",
    "ex_via_cover",
    "quotient_rank",
    "killed_count",
    "alpha_target",
    "gen_ex_via_cover",
    "vertex_quotient_of_cover",
]
