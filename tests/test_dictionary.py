import collections
import itertools
import random
import tracemalloc
from math import comb

import pytest

from test_hypergraph import K4_MINUS_EDGE_3, below_cut, reference_core_copies
from turancover import dictionary, hypergraph, monomial
from turancover.dictionary import (
    CoverInstance,
    alpha_target,
    ex_via_cover,
    gen_ex_via_cover,
    make_instance,
    one_edge,
    quotient_rank,
    vertex_quotient,
)
from turancover.errors import ClaimCheckError, InputError, ScaleGuardError
from turancover.hypergraph import (
    COPY_CAP,
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    RGraph,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    core_family_free,
    count_copies,
    edge_mask,
    enumerate_forbidden_copies,
    explicit_shapes,
    pair_shadows,
    place_copies,
    turan_count,
)
from turancover.monomial import min_hitting_set, setup_search
from turancover.squarezero import SquareZeroQuotient


def target_list(inst: CoverInstance) -> tuple[int, ...]:
    """The instance's target copies as masks.  With `target` None they are
    the one-edge target's copies, held as no list: on an edge instance (or
    r = 2 pair instance) one singleton per variable, and on a pair instance
    with r >= 3 the pair shadows of the r-sets, listed here as the
    reference."""
    if inst.target is not None:
        return inst.target.copies
    if inst.span in (None, inst.r):
        return tuple(1 << v for v in range(comb(inst.n, inst.r)))
    return place_copies(pair_shadows(explicit_shapes(one_edge(inst.span), inst.n)), inst.n, 2).copies


def count_below(targets, cut: int) -> int:
    """The number of target masks below `1 << cut`, counted one by one."""
    return sum(t >> cut == 0 for t in targets)


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
    """The one-edge-per-pair systems `reference_core_copies` builds."""
    return comb(n, ell) * comb(n - 2, r - 2) ** comb(ell, 2)


def _core_grid():
    """(ell, r, n) with ell 2..5, r 2..4, n <= 6 (n <= 7 at r = 2), where
    the system product lists the minimal core-pair copies cheaply."""
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
    fam = reference_core_copies(ell, r, n)
    size, mask = min_hitting_set(fam.copies, comb(n, r))
    value, witness = ex_via_cover(n, family)
    assert size == comb(n, r) - value
    if r == 2:
        # the pair variables are the edge variables, and both searches are
        # the same search
        complement = EdgeRanker(n, 2).unmask(((1 << comb(n, 2)) - 1) ^ mask)
        assert witness == RGraph(n, 2, complement)


def test_ex_core_family_beyond_the_edge_enumerator():
    # (8, 5, 3) has more than COPY_CAP one-edge-per-pair systems, past what
    # the edge-level listing of minimal copies reached.  The CLI tests check
    # (9, 4, 3).
    assert _systems(8, 5, 3) > COPY_CAP
    value, witness = ex_via_cover(8, CoreFamily(5, 3))
    assert value == len(witness) == turan_count(8, 4, 3) == 32
    assert core_family_free(witness, 5)


def test_ex_core_family_guards_setup_before_listing_cliques(monkeypatch):
    # (20, 4, 3): 5,985 cliques fit COPY_CAP, but 1,140 triangle targets x
    # 4,845 K4 copies = 5,523,300 setup steps exceed ALPHA_CAP_NODES
    monkeypatch.setattr(dictionary, "place_copies", _no_enumeration)
    with pytest.raises(ScaleGuardError, match="5523300 setup steps"):
        ex_via_cover(20, CoreFamily(4, 3))


CHERRY_3 = RGraph(4, 3, [(1, 2, 3), (1, 2, 4)])


def _check_rejects_wrong_answers(monkeypatch, target, forbid, n=6):
    # the search reports the optimal count with a wrong support: one that
    # misses a forbidden copy (its quotient rank is still the value, so
    # only the freeness check can catch it), or a hitting set that meets
    # more targets than the optimum
    inst = make_instance(n, forbid, target)
    alpha, M = alpha_target(inst)
    nvars = comb(n, inst.r)

    def met(S):
        return sum(1 for t in target_list(inst) if t & S)

    missing = next(
        S for S in range(1 << nvars)
        if met(S) == alpha and not all(S & c for c in inst.forbidden.copies)
    )
    wasteful = next(M | 1 << v for v in range(nvars) if met(M | 1 << v) > alpha)
    for support in (missing, wasteful):
        monkeypatch.setattr(dictionary, "alpha_target", lambda inst: (alpha, support))
        with pytest.raises(ClaimCheckError, match="not a forbidden-free graph"):
            if target is None:
                ex_via_cover(n, forbid)
            else:
                gen_ex_via_cover(n, target, forbid)


def test_ex_core_family_checks_its_witness(monkeypatch):
    _check_rejects_wrong_answers(monkeypatch, None, CoreFamily(4, 3))


@pytest.mark.parametrize(
    "target,forbid",
    [
        (None, builtin_spec("K3")),
        (builtin_spec("K3"), builtin_spec("K4")),
        (CHERRY_3, CoreFamily(4, 3)),
    ],
    ids=["ex/K3", "gen-ex/K3-K4", "gen-ex/cherry-K43"],
)
def test_certificate_rejects_a_wrong_search_answer(monkeypatch, target, forbid):
    _check_rejects_wrong_answers(monkeypatch, target, forbid)


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
    for name, n in [("K3", 8), ("K4", 8), ("C4", 7), ("P3", 7)]:
        spec = builtin_spec(name)
        fam = enumerate_forbidden_copies(spec, n)
        total = comb(n, fam.r)
        size, mask = min_hitting_set(fam.copies, total)
        complement = EdgeRanker(n, fam.r).unmask(((1 << total) - 1) ^ mask)
        assert ex_via_cover(n, spec) == (total - size, RGraph(n, fam.r, complement))
    # the last two are pair instances of the core-pair family
    for target, forbid, n in [
        ("K3", "K4", 8), ("P3", "K3", 8), ("C4", "K3", 7),
        (None, "K_ell_r(4,3)", 8), (K4_MINUS_EDGE_3, "K_ell_r(4,3)", 7),
    ]:
        target, forbid = (builtin_spec(x) if isinstance(x, str) else x for x in (target, forbid))
        inst = make_instance(n, forbid, target)
        targets = target_list(inst)
        reference = setup_search(inst.forbidden.copies, targets, comb(n, 2))(comb(n, 2), 0, len(targets))
        assert alpha_target(inst) == reference[:2]


def _no_setup(*args, **kwargs):
    raise AssertionError("the search was set up")


def test_chain_guards_the_whole_instance_before_the_first_link(monkeypatch):
    inst = make_instance(7, builtin_spec("K4"), builtin_spec("K3"))
    # K_ell_r(3,2) at n = 7: 21 pair targets x 35 triangle copies = 735
    # setup steps, refused before the small links, which would pass
    monkeypatch.setattr(dictionary, "setup_search", _no_setup)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 734)
    with pytest.raises(ScaleGuardError, match="735 setup steps"):
        ex_via_cover(7, CoreFamily(3, 2))
    # 35 triangle targets x 35 K4 copies at n = 7, refused by the search's
    # setup on [n] before it builds a table or runs a link
    monkeypatch.setattr(dictionary, "setup_search", monomial.setup_search)
    monkeypatch.setattr(monomial, "_index_sets", _no_setup)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1224)
    with pytest.raises(ScaleGuardError, match="1225 setup steps"):
        alpha_target(inst)


# ex on four patterns, the six gen-ex menu pairs, two pairs whose every
# target contains a forbidden copy (forced) and a core-pair family
SHARED_SETUP_GRID = [
    *((None, name, 8) for name in ("K3", "K4", "C4", "P3")),
    *((target, forbid, 7) for target, forbid in [
        ("K3", "K4"), ("K3", "K5"), ("K4", "K5"), ("P3", "K3"), ("C4", "K3"), ("K3", "C4"),
        ("K4", "K3"), ("C4", "P3"),
    ]),
    (None, "K_ell_r(4,3)", 7),
]


def _record_links(monkeypatch) -> list:
    """Wrap `dictionary.setup_search` so that each link's search appends
    (cut, floor, orbit-cut uniformity r, (minimum, witness, nodes)) to the
    returned list."""
    links, setup = [], dictionary.setup_search

    def recording(copies, targets, nvars, r=None):
        search = setup(copies, targets, nvars, r)

        def link(cut, floor, ntargets):
            found = search(cut, floor, ntargets)
            links.append((cut, floor, r, found))
            return found

        return link

    monkeypatch.setattr(dictionary, "setup_search", recording)
    return links


@pytest.mark.parametrize(
    "target,forbid,top", SHARED_SETUP_GRID,
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_each_link_is_a_fresh_search_on_the_lists_below_its_cut(monkeypatch, target, forbid, top):
    # one setup at n serves every link: each link picks the pivots, expands
    # the nodes and returns the answer of a search set up on its own lists,
    # with the same orbit cut: none below the target's order, where no
    # target is placed and the instance has no span.  Variables as targets
    # (None) are searched fresh as None, under the same packing bound
    links = _record_links(monkeypatch)
    for n in range(1, top + 1):
        inst = make_instance(n, builtin_spec(forbid), target and builtin_spec(target))
        unit = inst.target is None and inst.span in (None, inst.r)
        links.clear()
        alpha_target(inst)
        assert links, n
        for cut, floor, r, found in links:
            assert r == (None if inst.span is None else inst.r)
            below = 1 << cut
            copies = [c for c in inst.forbidden.copies if c < below]
            targets = None if unit else [t for t in target_list(inst) if t < below]
            ntargets = cut if unit else len(targets)
            assert setup_search(copies, targets, cut, r)(cut, floor, ntargets) == found, (n, cut)


# ex on four patterns up to n = 8, and the r = 2 pair instances up to n = 9
UNIT_TARGET_GRID = [
    *((name, 8) for name in ("K3", "K4", "C4", "P3")),
    *((f"K_ell_r({ell},2)", 9) for ell in range(2, 10)),
]


@pytest.mark.parametrize("forbid,top", UNIT_TARGET_GRID)
def test_variables_as_targets_search_as_their_singleton_list(monkeypatch, forbid, top):
    # a one-edge target is held as no list (target None), and its search
    # cuts nodes by the packing bound; the same search set up on the
    # explicit list of single edges builds a target table and no bound.
    # Bound on and off, each link gives the same answer and witness, and
    # the bound walks no node that the search without it skips
    links = _record_links(monkeypatch)
    for n in range(1, top + 1):
        inst = make_instance(n, builtin_spec(forbid))
        assert (inst.target is None) == (inst.span == 2), n
        links.clear()
        alpha_target(inst)
        nvars = comb(n, inst.r)
        for cut, floor, r, found in links:
            listed = setup_search(inst.forbidden.copies, target_list(inst), nvars, r)(cut, floor, cut)
            assert listed[:2] == found[:2] and found[2] <= listed[2], (n, cut)


@pytest.mark.parametrize("r", range(3, 6))
@pytest.mark.parametrize("ell", range(3, 7))
def test_one_edge_pair_targets_search_as_their_listed_shadows(monkeypatch, ell, r):
    # the r-sets of a pair instance with r >= 3 are held as no list: each
    # pair's row is its codegree star, read once per search, and none is
    # read when an ell-clique fits in an r-set, where every target is
    # forced.  Each link of the chain gives the answer and walks the nodes
    # of the same search set up on the listed pair shadows
    links = _record_links(monkeypatch)
    rows, stars = [], monomial.pair_stars
    monkeypatch.setattr(monomial, "pair_stars", lambda ranker: rows.append(ranker.r) or stars(ranker))
    for n in range(r, 10):
        inst = make_instance(n, CoreFamily(ell, r))
        assert (inst.target, inst.span) == (None, r)
        links.clear()
        rows.clear()
        alpha_target(inst)
        assert rows == ([] if ell <= r or ell > n else [r]), n
        shadows = target_list(inst)
        listed = setup_search(inst.forbidden.copies, shadows, comb(n, 2), 2)
        for cut, floor, _, found in links:
            assert listed(cut, floor, count_below(shadows, cut)) == found, (n, cut)


def test_k_set_targets_refuse_a_misuse():
    # the codegree-star rows need pair variables under the orbit cut's
    # symmetry, and a ranker of the instance's own k-sets
    inst = make_instance(6, CoreFamily(4, 3))
    copies, sets, nvars = inst.forbidden.copies, EdgeRanker(6, 3), comb(6, 2)
    for r in (None, 3):
        with pytest.raises(InputError, match="^k-set targets need"):
            setup_search(copies, sets, nvars, r)
    with pytest.raises(InputError, match=r"need the 3-sets of \[6\]"):
        alpha_target(inst, EdgeRanker(7, 3))
    assert alpha_target(inst, sets) == alpha_target(inst)


def test_instance_counts_its_targets_on_each_prefix():
    # the instance's count of targets on [m], for every m <= n, against a
    # count one by one of the listed reference below the cut of [m]:
    # listed gen-ex targets, ex on edge instances, one-edge pair instances
    # (r = 3..5, some all forced), an instance with no span (no target
    # placed), and hand-built instances with no span, one with no list
    K3, K4 = builtin_spec("K3"), builtin_spec("K4")
    ex_k3 = make_instance(7, K3)
    stars = edge_mask((v, u) for v in (1, 2) for u in range(1, 8) if u != v)
    instances = [
        make_instance(7, K4, K3), make_instance(7, K3, builtin_spec("P3")),
        make_instance(6, builtin_spec("C4"), K3), make_instance(5, K3, K4),
        ex_k3, make_instance(7, builtin_spec("C4")), make_instance(6, K4),
        *(make_instance(8, CoreFamily(ell, r)) for r in range(3, 6) for ell in (3, r + 1)),
        make_instance(2, K4, K3),
        CoverInstance(7, 2, ex_k3.forbidden, None),
        CoverInstance(7, 2, ex_k3.forbidden, CopyFamily(7, 2, tuple(1 << i for i in range(21) if 1 << i & stars))),
    ]
    assert instances[-3].span is None and instances[-3].target is not None
    for inst in instances:
        targets = target_list(inst)
        counts = [inst.count(m) for m in range(inst.n + 1)]
        assert counts == [count_below(targets, comb(m, inst.r)) for m in range(inst.n + 1)], inst
        assert counts[-1] == len(targets)


# the shared-setup grid, both core-pair families at n = 8, and K9-free
# instances whose clique pivots hold 36 pair variables
ORBIT_GRID = [
    *SHARED_SETUP_GRID,
    (None, "K_ell_r(4,3)", 8),
    (None, "K_ell_r(3,2)", 8),
    (None, "K_ell_r(9,2)", 11),
    ("K3", "K_ell_r(9,2)", 11),
]


def _orbit_cut_mismatches(grid):
    """Yield each (target, forbid, n) of the grid, n up to its top, where
    `alpha_target`, with the orbit cut, differs in value or witness from
    the uncut search on [n]."""
    for target, forbid, top in grid:
        for n in range(1, top + 1):
            inst = make_instance(n, builtin_spec(forbid), target and builtin_spec(target))
            nvars, targets = comb(n, inst.r), target_list(inst)
            uncut = setup_search(inst.forbidden.copies, targets, nvars)(nvars, 0, len(targets))
            if alpha_target(inst) != uncut[:2]:
                yield target, forbid, n


def test_orbit_cut_keeps_value_and_witness():
    assert list(_orbit_cut_mismatches(ORBIT_GRID)) == []


def test_orbit_cut_that_ignores_the_fixed_vertices_fails_the_grid(monkeypatch):
    # every variable gets the empty vertex mask, so all of a node's
    # variables fall into one orbit and only its first branch runs
    monkeypatch.setattr(monomial, "_VertexMasks", lambda r: collections.defaultdict(int))
    assert next(_orbit_cut_mismatches(ORBIT_GRID), None) is not None


def test_packing_bound_keeps_the_recorded_nodes(monkeypatch):
    # ex(12, K4) and ex(13, K3): the nodes of each chain, summed over its
    # links, as recorded with the packing bound; without it the last link
    # of ex(12, K4) alone walks its tree for seconds
    links = _record_links(monkeypatch)
    found = []
    for n, name in ((12, "K4"), (13, "K3")):
        links.clear()
        found.append((ex_via_cover(n, builtin_spec(name))[0], sum(nodes for *_, (_, _, nodes) in links)))
    assert found == [(48, 5866), (42, 1084)]


def test_orbit_cut_fires_on_the_last_link(monkeypatch):
    # gen-ex K3/K4 at n = 8: the link on [8] has floor 37 and answer 38, and
    # the uncut search walks 24,344 nodes to prove it
    links = _record_links(monkeypatch)
    inst = make_instance(8, builtin_spec("K4"), builtin_spec("K3"))
    alpha_target(inst)
    cut, floor, r, (alpha, witness, nodes) = links[-1]
    assert (cut, floor, r, alpha) == (28, 37, 2, 38)
    uncut = setup_search(inst.forbidden.copies, inst.target.copies, cut)(cut, floor, len(inst.target))
    assert uncut[:2] == (alpha, witness)
    assert 5 * nodes < uncut[2]


def test_all_forced_instances_keep_the_recorded_answers_and_nodes(monkeypatch):
    # every K4 target holds a K3 copy, and every r-clique of the pair
    # instances with r >= ell holds an ell-clique: all targets are forced,
    # met at the root, and each chain gives the answer and walks the nodes
    # (over all its links) recorded when they were counted apart
    links = _record_links(monkeypatch)
    found = []
    for inst in [
        make_instance(7, builtin_spec("K3"), builtin_spec("K4")),
        make_instance(8, CoreFamily(3, 4)),
        make_instance(7, CoreFamily(4, 4)),
    ]:
        links.clear()
        found.append((alpha_target(inst), sum(nodes for _, _, _, (_, _, nodes) in links)))
    assert found == [
        ((35, (1 << 15) - 1), 38),
        ((70, (1 << 21) - 1), 60),
        ((35, (1 << 10) - 1), 24),
    ]


def test_hand_built_instances_run_the_uncut_search(monkeypatch):
    # the instance of ex(7, K3) rebuilt by hand: the same families, but no
    # span, so no symmetry claim, and it runs one uncut search on [7], with
    # the same answer
    inst = make_instance(7, builtin_spec("K3"))
    expected = alpha_target(inst)
    links = _record_links(monkeypatch)
    assert alpha_target(CoverInstance(7, 2, inst.forbidden, inst.target)) == expected
    assert [link[:3] for link in links] == [(21, 0, None)]
    # triangles through vertex 1, with the pairs at vertex 1 or 2 as
    # targets: not invariant under S_7, and no claim, so one search on [7],
    # node for node the uncut search
    stars = edge_mask((v, u) for v in (1, 2) for u in range(1, 8) if u != v)
    one = edge_mask((1, u) for u in range(2, 8))
    forbidden = CopyFamily(7, 2, tuple(c for c in inst.forbidden.copies if c & one))
    targets = CopyFamily(7, 2, tuple(1 << i for i in range(21) if 1 << i & stars))
    links.clear()
    alpha_target(CoverInstance(7, 2, forbidden, targets))
    found = setup_search(forbidden.copies, targets.copies, 21)(21, 0, len(targets))
    assert found[0] == 1
    assert links == [(21, 0, None, found)]


def test_hand_built_instances_take_no_averaging_floor():
    # the edges of K_4 as targets, each spanning two vertices, and the
    # triangles 123 and 134 forbidden: one edge, 13, meets both.  Averaging
    # over [3], where 123 forces one edge, would floor the link on [4] at
    # 6 - 2 * 4 // 2 = 2 and stop on a two-edge set.
    forbidden = CopyFamily(4, 2, tuple(sorted(
        edge_mask(itertools.combinations(t, 2)) for t in [(1, 2, 3), (1, 3, 4)]
    )))
    inst = make_instance(4, builtin_spec("K3"))
    assert inst.span == 2
    assert alpha_target(CoverInstance(4, 2, forbidden, inst.target)) == (1, edge_mask([(1, 3)]))


def test_one_alpha_target_call_builds_the_index_tables_once(monkeypatch):
    built = []
    index_sets = monomial._index_sets
    monkeypatch.setattr(
        monomial, "_index_sets", lambda masks, nvars: built.append(nvars) or index_sets(masks, nvars)
    )
    # links m = 2..n for ex, m = 3..n for triangle targets, one for a
    # hand-built instance.  One-edge targets held as no list (the single
    # edges of ex, the single pairs of an r = 2 pair instance, the r-sets
    # of a pair instance with r >= 3, whose rows are codegree stars) build
    # only the copy table; listed targets, the same singletons by hand
    # included, build both
    triangles = enumerate_forbidden_copies(builtin_spec("K3"), 6)
    for inst, tables in [
        *((make_instance(n, builtin_spec("K3")), 1) for n in (3, 5, 9)),
        (make_instance(7, CoreFamily(4, 2)), 1),
        (CoverInstance(6, 2, triangles, CopyFamily(6, 2, tuple(1 << i for i in range(15)))), 2),
        (make_instance(7, builtin_spec("K4"), builtin_spec("K3")), 2),
        (make_instance(7, CoreFamily(4, 3)), 1),
        (CoverInstance(6, 2, triangles, CopyFamily(6, 2, triangles.copies)), 2),
    ]:
        built.clear()
        alpha_target(inst)
        assert built == [comb(inst.n, inst.r)] * tables


def test_unit_targets_build_no_second_table():
    # the pair instance of K_150: its 11,175 single-pair targets are the
    # variables, held as no list.  Listed, their masks alone would take
    # about 7.8 MB, and a target table over them as much again
    tracemalloc.start()
    try:
        inst = make_instance(150, CoreFamily(150, 2))
        assert inst.target is None
        assert alpha_target(inst) == (1, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


# ---------------------------------------------------------------------------
# quotient rank bookkeeping


def test_quotient_rank_worked_example():
    # killing y_{12} and y_{34} kills every triangle of K4
    inst = make_instance(4, builtin_spec("K4"), builtin_spec("K3"))
    targ = inst.target.copies
    M = edge_mask([frozenset((1, 2))]) | edge_mask([frozenset((3, 4))])
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
    targ = inst.target.copies
    M = edge_mask([frozenset((1, 2))])
    # triangles avoiding the pair {1,2}: 134, 234
    assert quotient_rank(M, targ) == 2


def test_vertex_quotient_of_cover():
    rk = EdgeRanker(4, 2)
    M = edge_mask([frozenset((1, 2)), frozenset((3, 4))])
    A = vertex_quotient(M, rk)
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
        A = vertex_quotient(M, rk)
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
        A = vertex_quotient(M, rk)
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
    assert gen_ex_via_cover(n, builtin_spec(target), builtin_spec(forbid))[0] == expected


GEN_EX_PAIRS = [
    ("K3", "K4"), ("K3", "K5"), ("K4", "K5"), ("P3", "K3"), ("C4", "K3"), ("K3", "C4"),
    ("K2", "K3"), ("P3", "K4"),
]


def test_gen_ex_matches_brute_force():
    for t, f in GEN_EX_PAIRS:
        for n in range(1, 8):
            got, _ = gen_ex_via_cover(n, builtin_spec(t), builtin_spec(f))
            oracle, _ = brute_force_gen_ex(n, builtin_spec(t), builtin_spec(f))
            assert got == oracle, (t, f, n)


def test_gen_ex_witness_holds_value_target_copies():
    # the certified witness, checked against a fresh listing of both patterns
    for t, f in GEN_EX_PAIRS:
        target, forbid = builtin_spec(t), builtin_spec(f)
        for n in range(4, 7):
            value, witness = gen_ex_via_cover(n, target, forbid)
            assert count_copies(witness, enumerate_forbidden_copies(target, n)) == value
            assert count_copies(witness, enumerate_forbidden_copies(forbid, n)) == 0


# (target, forbidden, largest n) with a core-pair forbidden family.  The
# four copies of K4^(3) minus an edge on one 4-set share the shadow K4, so
# its pair instance repeats each target four times; at n = 6 with K_ell_r(5,3)
# the edge-level listing of minimal copies was refused.
EDGE_3 = RGraph(3, 3, [(1, 2, 3)])
CORE_GEN_EX_GRID = [
    (EDGE_3, CoreFamily(4, 3), 6),
    (CHERRY_3, CoreFamily(4, 3), 6),
    (EDGE_3, CoreFamily(3, 3), 6),
    (builtin_spec("K2"), CoreFamily(3, 2), 7),
    (builtin_spec("P3"), CoreFamily(4, 2), 7),
    (K4_MINUS_EDGE_3, CoreFamily(4, 3), 6),
    (K4_MINUS_EDGE_3, CoreFamily(5, 3), 6),
]


@pytest.mark.parametrize(
    "target,forbid,top",
    CORE_GEN_EX_GRID,
    ids=["edge/K43", "cherry/K43", "edge/K33", "K2/K32", "P3/K42", "K4minus/K43", "K4minus/K53"],
)
def test_gen_ex_on_core_pair_families_matches_brute_force(target, forbid, top):
    for n in range(1, top + 1):
        oracle, _ = brute_force_gen_ex(n, target, forbid)
        assert gen_ex_via_cover(n, target, forbid)[0] == oracle, n


def test_shadow_targets_repeat_and_restrict_by_prefix():
    # each 4-set carries four copies of K4^(3) minus an edge, all with shadow
    # K4: the targets are the K4 pair masks, each four times, and the family
    # on [m] is the prefix the chain cuts
    insts = {n: make_instance(n, CoreFamily(5, 3), K4_MINUS_EDGE_3) for n in range(4, 8)}
    for n, inst in insts.items():
        k4 = enumerate_forbidden_copies(builtin_spec("K4"), n).copies
        assert inst.target.copies == tuple(c for c in k4 for _ in range(4))
        for m in range(4, n + 1):
            assert below_cut(inst.forbidden, m) == insts[m].forbidden
            assert below_cut(inst.target, m) == insts[m].target


@pytest.mark.parametrize(
    "target,forbid,top",
    [
        (CoreFamily(3, 2), builtin_spec("K4"), 7),
        (CoreFamily(3, 2), builtin_spec("C4"), 7),
        (CoreFamily(3, 3), CoreFamily(4, 3), 5),
    ],
    ids=["K32/K4", "K32/C4", "K33/K43"],
)
def test_gen_ex_refuses_core_pair_targets(target, forbid, top):
    # a core-pair target family would count only its minimal copies
    for call in (gen_ex_via_cover, brute_force_gen_ex):
        with pytest.raises(InputError, match="explicit pattern"):
            call(top, target, forbid)


@pytest.mark.parametrize(
    "target,forbid", [(RGraph(3, 2), builtin_spec("K3")), (RGraph(4, 3), CoreFamily(4, 3))], ids=["K3", "K43"]
)
def test_gen_ex_refuses_an_edgeless_target_as_a_target(target, forbid):
    for call in (gen_ex_via_cover, brute_force_gen_ex):
        with pytest.raises(InputError, match="^target has no edges$"):
            call(4, target, forbid)


def test_vertex_quotient_kills_the_pairs_whose_star_the_support_holds():
    rng = random.Random(29)
    for n, r in [(4, 2), (6, 2), (5, 3), (6, 3), (5, 4), (3, 4)]:
        rk = EdgeRanker(n, r)
        stars = hypergraph.pair_stars(rk)
        for _ in range(20):
            M = rng.randrange(1 << rk.count) | rng.randrange(1 << rk.count)
            kill = {frozenset(p) for p, star in stars.items() if star & M == star}
            assert vertex_quotient(M, rk).kill == kill, (n, r, M)


# a triangle and an edge, each declared with isolated vertices
K3_ON_5 = RGraph(5, 2, [(1, 2), (2, 3), (1, 3)])
EDGE_ON_4 = RGraph(4, 2, [(1, 2)])
# (n, target, forbidden): clique targets on graphs, the one-edge target of
# ex included, and targets that are not.  A clique declared with isolated
# vertices is checked as K_s, s its span, once it fits in [n]; below its
# order no copy is placed and there is nothing to check
CLIQUE_CHECK_GRID = [
    (6, "K3", "K4", True), (7, "K3", "K5", True), (7, "K4", "K5", True), (6, "K2", "K3", True),
    (7, "K2", "K_ell_r(3,2)", True), (6, "P3", "K3", False), (6, "C4", "K3", False),
    (5, K3_ON_5, "K4", True), (6, K3_ON_5, "K4", True), (4, K3_ON_5, "K4", False),
    (4, EDGE_ON_4, "K_ell_r(3,2)", True), (3, EDGE_ON_4, "K_ell_r(3,2)", False),
]


def _spec(x):
    return builtin_spec(x) if isinstance(x, str) else x


def test_clique_targets_check_the_vertex_quotient(monkeypatch):
    quotients = []

    def recorded(support, ranker):
        quotients.append(support)
        return vertex_quotient(support, ranker)

    monkeypatch.setattr(dictionary, "vertex_quotient", recorded)
    for n, t, f, clique in CLIQUE_CHECK_GRID:
        quotients.clear()
        gen_ex_via_cover(n, _spec(t), builtin_spec(f))
        assert len(quotients) == clique, (n, t, f)
    quotients.clear()
    gen_ex_via_cover(6, EDGE_3, CoreFamily(4, 3))
    ex_via_cover(6, builtin_spec("K3"))
    assert len(quotients) == 1


def test_a_wrong_kill_pair_fails_the_clique_target_check(monkeypatch):
    def one_pair_too_many(support, ranker):
        A = vertex_quotient(support, ranker)
        extra = next(p for p in itertools.combinations(range(1, A.n + 1), 2) if not A.killed(*p))
        return SquareZeroQuotient(A.n, A._pairs() + [extra])

    monkeypatch.setattr(dictionary, "vertex_quotient", one_pair_too_many)
    for n, t, f, clique in CLIQUE_CHECK_GRID:
        if clique:
            with pytest.raises(ClaimCheckError, match="vertex quotient"):
                gen_ex_via_cover(n, _spec(t), builtin_spec(f))


@pytest.mark.parametrize(
    "target,forbid,n",
    [(K3_ON_5, builtin_spec("K4"), 4), (EDGE_ON_4, CoreFamily(3, 2), 3)],
    ids=["K3-on-5/K4", "edge-on-4/K32"],
)
def test_a_target_larger_than_n_answers_the_oracles_zero(target, forbid, n):
    # T's isolated vertices put it past [n]: no copy is placed, so the K_s
    # the witness holds are no copies of T and the value is 0
    assert gen_ex_via_cover(n, target, forbid)[0] == brute_force_gen_ex(n, target, forbid)[0] == 0


def test_one_edge_targets_are_counted_on_the_witness(monkeypatch):
    # the search of a pair instance with r >= 3 reads each pair's targets
    # from its codegree star, but the certificate counts a one-edge
    # target's copies as the r-sets themselves: a star one r-set short
    # fails it
    def one_set_short(ranker):
        stars = hypergraph.pair_stars(ranker)
        stars[(1, 2)] &= stars[(1, 2)] - 1  # drop the lowest r-set, {1, 2, 3}
        return stars

    monkeypatch.setattr(monomial, "pair_stars", one_set_short)
    for n in (5, 6, 7):
        with pytest.raises(ClaimCheckError, match="not a forbidden-free graph"):
            ex_via_cover(n, CoreFamily(4, 3))


def test_only_targets_of_more_than_one_edge_read_the_quotient_rank(monkeypatch):
    ranks = []

    def recorded(M, targets):
        ranks.append(M)
        return quotient_rank(M, targets)

    monkeypatch.setattr(dictionary, "quotient_rank", recorded)
    assert ex_via_cover(6, CoreFamily(4, 3))[0] == turan_count(6, 3, 3)
    assert gen_ex_via_cover(6, EDGE_3, CoreFamily(4, 3))[0] == turan_count(6, 3, 3)
    assert ranks == []
    gen_ex_via_cover(6, CHERRY_3, CoreFamily(4, 3))
    assert len(ranks) == 1


def test_gen_ex_with_edge_target_reduces_to_ex():
    for n in (4, 5, 6):
        assert gen_ex_via_cover(n, builtin_spec("K2"), builtin_spec("K3")) == (
            ex_via_cover(n, builtin_spec("K3"))
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
        targ = target_list(inst)
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
    # the instance gen_ex_via_cover(8, K3, C4) searches: 56 triangle targets
    # x 210 C4 copies = 11,760 setup steps pass, and so do the links on
    # [3]..[7] (at most 222 nodes); even with the orbit cut, the link on
    # [8] needs 124,353 nodes
    inst = make_instance(8, builtin_spec("C4"), builtin_spec("K3"))
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 11_760)
    with pytest.raises(ScaleGuardError, match="nodes"):
        alpha_target(inst)


def _no_enumeration(*args):
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
    # the default target is the one-edge pattern, found like any other
    specs = [one_edge(2) if target is None else builtin_spec(target), builtin_spec(forbid)]
    make_instance(6, specs[1], None if target is None else specs[0])
    assert found == specs


@pytest.mark.parametrize("forbid", ["K3", "K4", "C4", "P3"])
def test_alpha_target_without_targets_is_the_minimum_hitting_set(forbid):
    # the default one-edge target: the targets are the single edges
    for n in range(1, 8):
        inst = make_instance(n, builtin_spec(forbid))
        reference = min_hitting_set(inst.forbidden.copies, comb(n, 2))
        assert alpha_target(inst) == reference


def test_instance_validation():
    fam3 = enumerate_forbidden_copies(builtin_spec("K3"), 4)
    fam5 = enumerate_forbidden_copies(builtin_spec("K3"), 5)
    with pytest.raises(InputError, match="forbidden family"):
        CoverInstance(5, 2, fam3, fam5)
    with pytest.raises(InputError, match="target family"):
        CoverInstance(4, 2, fam3, fam5)
    # every instance names its targets, None for the variables
    with pytest.raises(TypeError):
        CoverInstance(4, 2, fam3)
