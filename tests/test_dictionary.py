import random
from math import comb

import pytest

from turancover import dictionary, hypergraph, monomial
from turancover.dictionary import (
    CoverInstance,
    alpha_target,
    ex_via_cover,
    gen_ex_via_cover,
    make_instance,
    quotient_rank,
    vertex_quotient_of_cover,
)
from turancover.errors import ClaimCheckError, InputError, ScaleGuardError
from turancover.hypergraph import (
    COPY_CAP,
    CoreFamily,
    EdgeRanker,
    RGraph,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    core_family_free,
    count_copies,
    enumerate_forbidden_copies,
    turan_count,
)
from turancover.monomial import min_hitting_set, min_targets_met
from turancover.squarezero import SquareZeroQuotient


# ---------------------------------------------------------------------------
# ordinary Turán numbers via the cover ideal


@pytest.mark.parametrize(
    "n,spec,expected",
    [
        (4, "K3", 4),
        (5, "K3", 6),
        (6, "K3", 9),
        (7, "K3", 12),
        (5, "K4", 8),
        (6, "K4", 12),
        (5, "P3", 2),
        (5, "C4", 6),
    ],
)
def test_ex_known_graph_values(n, spec, expected):
    value, witness = ex_via_cover(n, builtin_spec(spec))
    assert value == expected
    assert len(witness) == expected


def test_ex_triangle_matches_turan_count():
    for n in range(3, 8):
        value, _ = ex_via_cover(n, builtin_spec("K3"))
        assert value == turan_count(n, 2, 2)


def test_ex_hypergraph_core_family():
    value, witness = ex_via_cover(5, CoreFamily(3, 3))
    assert value == 0 and len(witness) == 0
    value, witness = ex_via_cover(5, CoreFamily(4, 3))
    assert value == turan_count(5, 3, 3) == 4


# the oracle's grid: every n up to 7 (r = 3 stops at 6, past which C(n, 3)
# exceeds its 30 edges).  P3 declared on 5 vertices has no copies below
# n = 5, while the averaging chain's links on [3] and [4] hold copies of its
# edges.
EX_SPECS = {
    name: builtin_spec(name)
    for name in ["K2", "K3", "K4", "K5", "C4", "P3", "K_ell_r(3,2)", "K_ell_r(4,3)", "K_ell_r(3,3)"]
}
EX_SPECS["padded P3"] = RGraph(5, 2, [(1, 2), (2, 3)])


@pytest.mark.parametrize(
    "n,spec",
    [(n, name) for name, family in EX_SPECS.items() for n in range(1, 8 if family.r == 2 else 7)],
)
def test_ex_matches_brute_force(n, spec):
    family = EX_SPECS[spec]
    value, witness = ex_via_cover(n, family)
    assert value == len(witness) == brute_force_ex(n, family)[0]


def _systems(n, ell, r):
    """The edge enumerator's projected one-edge-per-pair systems."""
    return comb(n, ell) * comb(n - 2, r - 2) ** comb(ell, 2)


def _core_grid():
    """(ell, r, n) with ell 2..5, r 2..4, n <= 6 (n <= 7 at r = 2), where
    the edge-level enumerator lists the minimal core-pair copies."""
    for ell in range(2, 6):
        for r in range(2, 5):
            for n in range(1, 8 if r == 2 else 7):
                if n < max(ell, r) or _systems(n, ell, r) <= COPY_CAP:
                    yield ell, r, n


@pytest.mark.parametrize("ell,r,n", list(_core_grid()))
def test_core_pair_reduction_matches_the_edge_cover_ideal(ell, r, n):
    # the initial degree of the cover ideal of the minimal copies, over the
    # C(n, r) edge variables, against the pair reduction's value
    family = CoreFamily(ell, r)
    fam = enumerate_forbidden_copies(family, n)
    size, mask = min_hitting_set(fam.copies, comb(n, r))
    value, witness = ex_via_cover(n, family)
    assert size == comb(n, r) - value
    if r == 2:
        # the pair variables are the edge variables, and both searches are
        # the same search
        complement = EdgeRanker(n, 2).unmask(((1 << comb(n, 2)) - 1) ^ mask)
        assert witness == RGraph(n, 2, complement)


def test_ex_core_family_beyond_the_edge_enumerator():
    # the edge-level enumerator refuses (8, 5, 3): its projected systems
    # exceed COPY_CAP.  The CLI tests check (9, 4, 3).
    assert _systems(8, 5, 3) > COPY_CAP
    value, witness = ex_via_cover(8, CoreFamily(5, 3))
    assert value == len(witness) == turan_count(8, 4, 3) == 32
    assert core_family_free(witness, 5)


def test_ex_core_family_guards_setup_before_listing_cliques(monkeypatch):
    # (20, 4, 3): 5,985 cliques fit COPY_CAP, but 1,140 triangle targets x
    # 4,845 K4 copies = 5,523,300 setup steps exceed ALPHA_CAP_NODES
    monkeypatch.setattr(dictionary, "enumerate_forbidden_copies", _no_enumeration)
    with pytest.raises(ScaleGuardError, match="5523300 setup steps"):
        ex_via_cover(20, CoreFamily(4, 3))


def test_ex_core_family_checks_its_witness(monkeypatch):
    alpha, killed = dictionary.core_pair_alpha(6, 4, 3)
    # no killed pair: the witness is K_6^(3), which holds every core
    monkeypatch.setattr(dictionary, "core_pair_alpha", lambda n, ell, r: (alpha, 0))
    with pytest.raises(ClaimCheckError, match="not a forbidden-free graph"):
        ex_via_cover(6, CoreFamily(4, 3))
    # a value one below the witness's edge count
    monkeypatch.setattr(dictionary, "core_pair_alpha", lambda n, ell, r: (alpha + 1, killed))
    with pytest.raises(ClaimCheckError, match="not a forbidden-free graph"):
        ex_via_cover(6, CoreFamily(4, 3))


def test_ex_witness_is_forbidden_free():
    value, witness = ex_via_cover(6, builtin_spec("K4"))
    fam = enumerate_forbidden_copies(builtin_spec("K4"), 6)
    assert count_copies(witness, fam) == 0


def test_initial_degree_is_complement_of_ex():
    for n in (4, 5, 6):
        value, _ = ex_via_cover(n, builtin_spec("K3"))
        assert alpha_target(make_instance(n, builtin_spec("K3")))[0] == comb(n, 2) - value


def test_hitting_sets_complement_extremal_graphs():
    # every minimum hitting set's complement is extremal, exhaustively at n=5
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 5)
    rk = EdgeRanker(5, 2)
    copies = fam.copies
    size, _ = min_hitting_set(copies, rk.count)
    full = (1 << rk.count) - 1
    for m in range(1 << rk.count):
        if m.bit_count() == size and all(m & c for c in copies):
            G = RGraph(5, 2, rk.unmask(full ^ m))
            assert count_copies(G, fam) == 0
            assert len(G) == comb(5, 2) - size == 6


# ---------------------------------------------------------------------------
# the averaging chain: links on [k], ..., [n] with Katona-Nemetz-Simonovits floors


def test_chain_returns_the_single_search_witness():
    # the final link stops on the first optimum of the floor-free search
    for name, n in [("K3", 8), ("K4", 8), ("C4", 7), ("P3", 7), ("K_ell_r(4,3)", 6)]:
        spec = builtin_spec(name)
        fam = enumerate_forbidden_copies(spec, n)
        total = comb(n, fam.r)
        size, mask = min_hitting_set(fam.copies, total)
        complement = EdgeRanker(n, fam.r).unmask(((1 << total) - 1) ^ mask)
        assert ex_via_cover(n, spec) == (total - size, RGraph(n, fam.r, complement))
    for target, forbid, n in [("K3", "K4", 8), ("P3", "K3", 8), ("C4", "K3", 7)]:
        inst = make_instance(n, builtin_spec(forbid), builtin_spec(target))
        reference = min_targets_met(inst.forbidden.copies, inst.target.copies, comb(n, 2))
        assert alpha_target(inst) == reference


def _no_link(*args, **kwargs):
    raise AssertionError("a link was searched")


def test_chain_guards_the_whole_instance_before_the_first_link(monkeypatch):
    inst = make_instance(7, builtin_spec("K4"), builtin_spec("K3"))
    # K_ell_r(3,2) at n = 7: 21 pair targets x 35 triangle copies = 735
    # setup steps, refused before the small links, which would pass
    monkeypatch.setattr(dictionary, "min_hitting_set", _no_link)
    monkeypatch.setattr(dictionary, "min_targets_met", _no_link)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 734)
    with pytest.raises(ScaleGuardError, match="735 setup steps"):
        ex_via_cover(7, CoreFamily(3, 2))
    # 35 triangle targets x 35 K4 copies at n = 7
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1224)
    with pytest.raises(ScaleGuardError, match="1225 setup steps"):
        alpha_target(inst)


# ---------------------------------------------------------------------------
# quotient rank bookkeeping


def test_quotient_rank_worked_example():
    # killing y_{12} and y_{34} kills every triangle of K4
    inst = make_instance(4, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    targ = inst.target.copies
    M = rk.mask([frozenset((1, 2))]) | rk.mask([frozenset((3, 4))])
    assert quotient_rank(M, targ) == 0
    assert len(targ) - quotient_rank(M, targ) == 4


def test_quotient_rank_complement_identity():
    rng = random.Random(7)
    inst = make_instance(5, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    targ = inst.target.copies
    for _ in range(20):
        M = rng.randrange(1 << rk.count)
        assert quotient_rank(M, targ) + sum(1 for t in targ if t & M) == len(targ)


def test_quotient_rank_counts_surviving_cliques():
    inst = make_instance(4, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    targ = inst.target.copies
    M = rk.mask([frozenset((1, 2))])
    # triangles avoiding the pair {1,2}: 134, 234
    assert quotient_rank(M, targ) == 2


def test_vertex_quotient_of_cover():
    rk = EdgeRanker(4, 2)
    M = rk.mask([frozenset((1, 2)), frozenset((3, 4))])
    A = vertex_quotient_of_cover(M, 4)
    assert A == SquareZeroQuotient(4, [(1, 2), (3, 4)])
    # surviving triangles == standard 3-subsets
    inst = make_instance(4, builtin_spec("K4"), builtin_spec("K3"))
    targ = inst.target.copies
    assert quotient_rank(M, targ) == A.hilbert(3) == 0


def test_quotient_rank_equals_hilbert_on_random_supports():
    rng = random.Random(19)
    n, s = 5, 3
    inst = make_instance(n, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    targ = inst.target.copies
    for _ in range(25):
        M = rng.randrange(1 << rk.count)
        A = vertex_quotient_of_cover(M, n)
        assert quotient_rank(M, targ) == A.hilbert(s)


def test_corollary_bound_over_cover_members():
    # for M in the K4-cover ideal the quotient kills every K4, hence the
    # degree-4 piece vanishes and the triangle rank is at most t_3(n, 3)
    n = 5
    inst = make_instance(n, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    forb = inst.forbidden.copies
    targ = inst.target.copies
    bound = turan_count(n, 3, 3)
    rng = random.Random(23)
    seen_tight = False
    for _ in range(200):
        M = rng.randrange(1 << rk.count)
        if not all(M & c for c in forb):
            continue
        A = vertex_quotient_of_cover(M, n)
        assert A.top_vanishing(3)
        r = quotient_rank(M, targ)
        assert r <= bound
        seen_tight |= r == bound
    assert bound == 4


# ---------------------------------------------------------------------------
# generalized Turán numbers


@pytest.mark.parametrize(
    "n,target,forbid,expected",
    [
        (4, "K3", "K4", 2),
        (5, "K3", "K4", 4),
        (6, "K3", "K4", 8),
        (6, "K2", "K3", 9),
        (6, "K3", "K5", 12),
        (5, "K3", "K3", 0),
    ],
)
def test_gen_ex_values(n, target, forbid, expected):
    assert gen_ex_via_cover(n, builtin_spec(target), builtin_spec(forbid)) == expected


GEN_EX_PAIRS = [
    ("K3", "K4"), ("K3", "K5"), ("K4", "K5"), ("P3", "K3"), ("C4", "K3"), ("K3", "C4"),
    ("K2", "K3"), ("P3", "K4"),
]


def test_gen_ex_matches_brute_force():
    for t, f in GEN_EX_PAIRS:
        for n in range(1, 8):
            got = gen_ex_via_cover(n, builtin_spec(t), builtin_spec(f))
            oracle, _ = brute_force_gen_ex(n, builtin_spec(t), builtin_spec(f))
            assert got == oracle, (t, f, n)


# (target, forbidden, largest n) with a core-pair family on either side
EDGE_3 = RGraph(3, 3, [(1, 2, 3)])
CHERRY_3 = RGraph(4, 3, [(1, 2, 3), (1, 2, 4)])
CORE_GEN_EX_GRID = [
    (EDGE_3, CoreFamily(4, 3), 6),
    (CHERRY_3, CoreFamily(4, 3), 6),
    (EDGE_3, CoreFamily(3, 3), 6),
    (builtin_spec("K2"), CoreFamily(3, 2), 7),
    (builtin_spec("P3"), CoreFamily(4, 2), 7),
    (CoreFamily(3, 2), builtin_spec("K4"), 7),
    (CoreFamily(3, 2), builtin_spec("C4"), 7),
    (CoreFamily(3, 3), CoreFamily(4, 3), 5),
]


@pytest.mark.parametrize(
    "target,forbid,top",
    CORE_GEN_EX_GRID,
    ids=["edge/K43", "cherry/K43", "edge/K33", "K2/K32", "P3/K42", "K32/K4", "K32/C4", "K33/K43"],
)
def test_gen_ex_on_core_pair_families_matches_brute_force(target, forbid, top):
    for n in range(1, top + 1):
        oracle, _ = brute_force_gen_ex(n, target, forbid)
        assert gen_ex_via_cover(n, target, forbid) == oracle, n


def test_gen_ex_with_edge_target_reduces_to_ex():
    for n in (4, 5, 6):
        assert gen_ex_via_cover(n, builtin_spec("K2"), builtin_spec("K3")) == (
            ex_via_cover(n, builtin_spec("K3"))[0]
        )


def test_alpha_target_witness_properties():
    inst = make_instance(5, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    alpha, witness = alpha_target(inst)
    forb = inst.forbidden.copies
    targ = inst.target.copies
    assert all(witness & c for c in forb)
    assert len(targ) - quotient_rank(witness, targ) == alpha
    assert len(targ) - alpha == 4


def test_alpha_target_exhaustive_reference():
    inst = make_instance(4, builtin_spec("K4"), builtin_spec("K3"))
    rk = inst.ranker()
    forb = inst.forbidden.copies
    targ = inst.target.copies
    alpha, _ = alpha_target(inst)
    best = min(
        len(targ) - quotient_rank(M, targ)
        for M in range(1 << rk.count)
        if all(M & c for c in forb)
    )
    assert alpha == best


@pytest.mark.parametrize("forbid", ["K2", "K3", "K4", "P3", "C4"])
@pytest.mark.parametrize("target", ["K2", "K3", "K4", "P3", "C4"])
def test_alpha_target_matches_exhaustive_minimum(target, forbid):
    # the grid includes targets that contain forbidden copies (K3/K3, K4/K3,
    # P3/P3), which the kernel counts up front instead of searching
    for n in range(2, 6):
        inst = make_instance(n, builtin_spec(forbid), builtin_spec(target))
        rk = inst.ranker()
        forb = inst.forbidden.copies
        targ = inst.target.copies
        alpha, witness = alpha_target(inst)
        best = min(
            len(targ) - quotient_rank(M, targ)
            for M in range(1 << rk.count)
            if all(M & c for c in forb)
        )
        assert alpha == best
        assert all(witness & c for c in forb)
        assert len(targ) - quotient_rank(witness, targ) == alpha


def test_gen_ex_scale_guard(monkeypatch):
    # the instance gen_ex_via_cover(7, K3, K4) searches: 35 triangle targets
    # x 35 K4 copies = 1,225 setup steps pass; the search needs 1,802 nodes
    inst = make_instance(7, builtin_spec("K4"), builtin_spec("K3"))
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1225)
    with pytest.raises(ScaleGuardError, match="nodes"):
        alpha_target(inst)


def _no_enumeration(spec, n):
    raise AssertionError("copies were listed")


def test_search_setup_refused_before_enumeration(monkeypatch):
    # 19,900 edge variables x 19,900 single-edge copies; their masks alone
    # would take about 25 MB, and the search setup 396M steps
    monkeypatch.setattr(dictionary, "enumerate_forbidden_copies", _no_enumeration)
    with pytest.raises(ScaleGuardError):
        ex_via_cover(200, builtin_spec("K2"))
    # 20 triangle targets x 15 K4 copies at n = 6: 300 setup steps
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 299)
    with pytest.raises(ScaleGuardError):
        alpha_target(make_instance(6, builtin_spec("K4"), builtin_spec("K3")))


@pytest.mark.parametrize("forbid,target", [("P3", None), ("C4", "P3"), ("K4", "K3"), ("C4", "C4")])
def test_make_instance_finds_each_pattern_shapes_once(monkeypatch, forbid, target):
    # once for the setup guard's count and the listing together
    found = []
    shapes = hypergraph._shapes
    monkeypatch.setattr(hypergraph, "_shapes", lambda F: found.append(F) or shapes(F))
    specs = [builtin_spec(name) for name in (target, forbid) if name is not None]
    make_instance(6, specs[-1], specs[0] if target else None)
    assert found == specs


@pytest.mark.parametrize("forbid", ["K3", "K4", "C4", "P3"])
def test_alpha_target_without_targets_is_the_minimum_hitting_set(forbid):
    # no target family: the targets are the single edges
    for n in range(1, 8):
        inst = make_instance(n, builtin_spec(forbid))
        reference = min_hitting_set(inst.forbidden.copies, comb(n, 2))
        assert alpha_target(inst) == reference


def test_instance_validation():
    fam3 = enumerate_forbidden_copies(builtin_spec("K3"), 4)
    fam5 = enumerate_forbidden_copies(builtin_spec("K3"), 5)
    with pytest.raises(InputError):
        CoverInstance(5, 2, fam3)
    with pytest.raises(InputError):
        CoverInstance(4, 2, fam3, fam5)
