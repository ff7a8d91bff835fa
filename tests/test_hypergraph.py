import itertools
import random
from math import comb, factorial, prod

import pytest

from turancover import hypergraph
from turancover.dictionary import CoverInstance, alpha_target, make_instance
from turancover.errors import InputError, ScaleGuardError
from turancover.hypergraph import (
    COPY_CAP,
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    RGraph,
    _shapes,
    balanced_partition,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    core_family_free,
    count_copies,
    edge_mask,
    enumerate_forbidden_copies,
    minimal_supports,
    parse_hypergraph,
    partition_pairs,
    turan_construct,
    turan_count,
)


def K(s):
    return RGraph.complete(s, 2)


# the complete 3-graph on 4 vertices minus the edge {2, 3, 4}
K4_MINUS_EDGE_3 = RGraph(4, 3, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])


# ---------------------------------------------------------------------------
# Turán constructions


def test_turan_construct_k22():
    G = turan_construct(4, 2, 2)
    assert G.edges == {frozenset(p) for p in [(1, 3), (1, 4), (2, 3), (2, 4)]}


def test_turan_construct_r_exceeds_q_is_empty():
    assert len(turan_construct(5, 2, 3)) == 0
    assert turan_count(5, 2, 3) == 0


def test_turan_construct_singleton_parts_complete():
    assert len(turan_construct(4, 6, 2)) == comb(4, 2)
    assert turan_count(4, 6, 2) == comb(4, 2)


@pytest.mark.parametrize(
    "n,q,r,expected", [(6, 3, 3, 8), (4, 2, 2, 4), (4, 3, 3, 2), (5, 3, 3, 4)]
)
def test_turan_count_values(n, q, r, expected):
    assert turan_count(n, q, r) == expected


@pytest.mark.parametrize("n,q,r", [(-1, 1, 2), (5, 0, 1), (-1, 3, 2), (4, 0, 3), (4, -1, 0), (4, 2, -1)])
def test_turan_count_rejects_bad_parameters(n, q, r):
    # checked before the r > q shortcut, which would answer 0
    with pytest.raises(InputError, match="bad Turán parameters"):
        turan_count(n, q, r)


def test_turan_count_matches_construction():
    for n in range(1, 13):
        for q in range(1, 7):
            for r in range(1, 5):
                assert len(turan_construct(n, q, r)) == turan_count(n, q, r)


def test_turan_count_matches_class_subset_sum():
    # the closed form against the sum over r-subsets of the partition's classes
    for n in range(0, 16):
        for q in range(1, 10):
            sizes = [len(P) for P in balanced_partition(n, q)]
            for r in range(0, 6):
                want = sum(
                    prod(sizes[i] for i in S) for S in itertools.combinations(range(q), r)
                )
                assert turan_count(n, q, r) == want, (n, q, r)


def test_turan_count_is_cheap_for_many_classes():
    # one class of size 2, the rest singletons: every triple but the n - 2
    # triples through that class's pair
    n = 10**6
    assert turan_count(n, n - 1, 3) == comb(n, 3) - (n - 2)


def test_turan_same_part_codegree_zero():
    G = turan_construct(6, 3, 3)
    for part in balanced_partition(6, 3):
        for a, b in itertools.combinations(part, 2):
            assert G.codegree(a, b) == 0


def test_balanced_partition_larger_parts_first():
    assert balanced_partition(5, 2) == [[1, 2, 3], [4, 5]]
    assert balanced_partition(7, 3) == [[1, 2, 3], [4, 5], [6, 7]]


def test_partition_pairs_are_the_within_part_pairs():
    for n in range(0, 31):
        for q in range(1, n + 3):
            want = [p for part in balanced_partition(n, q) for p in itertools.combinations(part, 2)]
            assert partition_pairs(n, q) == want, (n, q)
        assert partition_pairs(n, 10**9) == []
    # one-vertex parts are never built, however many there are
    assert partition_pairs(10**9, 10**9 - 2) == [(1, 2), (3, 4)]
    assert partition_pairs(3, 10**12) == []
    for n, q in [(5, 0), (5, -1), (-1, 2), (0, 0)]:
        with pytest.raises(InputError, match="bad partition parameters"):
            partition_pairs(n, q)


# ---------------------------------------------------------------------------
# codegree and membership


def test_codegree_direct_counts():
    G = RGraph(4, 3, [(1, 2, 3), (1, 2, 4)])
    assert G.codegree(1, 2) == 2
    assert G.codegree(3, 4) == 0


def _is_member_core_family(H: RGraph, ell: int) -> bool:
    """Definitional reference: H has at most C(ell, 2) edges and some ell-set
    of its vertices with every pair covered by an edge."""
    if H.r < 2 or ell < 2:
        raise InputError("need r >= 2 and ell >= 2")
    if len(H.edges) > comb(ell, 2) or not H.edges:
        return False
    vertices = sorted(set().union(*H.edges))
    return any(
        all(any(a in e and b in e for e in H.edges) for a, b in itertools.combinations(S, 2))
        for S in itertools.combinations(vertices, ell)
    )


def test_is_member_core_family():
    H = RGraph(3, 3, [(1, 2, 3)])
    assert _is_member_core_family(H, 3)
    H4 = RGraph(4, 3, [(1, 2, 3)])
    assert not _is_member_core_family(H4, 4)
    assert not _is_member_core_family(RGraph(4, 3, []), 3)


def test_core_family_freeness_predicate_matches_member_scan():
    # exhaust all 3-graphs on [4]: freeness iff no sub-hypergraph is a member
    edges = list(itertools.combinations(range(1, 5), 3))
    for mask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        G = RGraph(4, 3, chosen)
        has_member = any(
            _is_member_core_family(RGraph(4, 3, sub), 3)
            for k in range(1, len(chosen) + 1)
            for sub in itertools.combinations(chosen, k)
        )
        assert core_family_free(G, 3) == (not has_member)


# ---------------------------------------------------------------------------
# copy enumeration


def test_triangle_copies_in_k4():
    fam = enumerate_forbidden_copies(K(3), 4)
    assert len(fam) == 4
    assert all(c.bit_count() == 3 for c in fam.copies)


def test_single_edge_copies():
    fam = enumerate_forbidden_copies(K(2), 3)
    assert len(fam) == 3


def test_copy_list_closed_under_relabeling():
    fam = enumerate_forbidden_copies(K(3), 5)
    rk = EdgeRanker(5, 2)
    copies = set(fam.copies)
    perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    relabeled = {edge_mask({perm[v] for v in e} for e in rk.unmask(c)) for c in copies}
    assert relabeled == copies


def test_count_copies():
    t = enumerate_forbidden_copies(K(3), 4)
    assert count_copies(RGraph.complete(4, 2), t) == 4
    assert count_copies(turan_construct(4, 2, 2), t) == 0
    t6 = enumerate_forbidden_copies(K(3), 6)
    assert count_copies(turan_construct(6, 3, 2), t6) == 8


def test_copy_family_validation():
    with pytest.raises(InputError, match="empty copy"):
        CopyFamily(3, 2, (0b1, 0))
    # a repeated copy (a shadow shared by two target copies) counts twice
    assert len(CopyFamily(3, 2, (0b1, 0b1, 0b10))) == 3
    # the search cuts the list at a bisection, so it must be increasing
    with pytest.raises(InputError, match="copies out of order"):
        CopyFamily(3, 2, (0b11, 0b1))


def below_cut(fam: CopyFamily, m: int) -> CopyFamily:
    """The copies of `fam` below the cut 1 << C(m, r), the part of the
    family on [n] that the averaging chain searches on [m]."""
    return CopyFamily(m, fam.r, tuple(c for c in fam.copies if c < 1 << comb(m, fam.r)))


def test_restrict_does_not_check_its_prefix_again(monkeypatch):
    # the chain cuts the checked family at n and builds no family per link
    fam = enumerate_forbidden_copies(K(3), 7)
    assert [len(below_cut(fam, m)) for m in range(2, 8)] == [comb(m, 3) for m in range(2, 8)]
    inst = make_instance(7, K(3))
    expected = alpha_target(inst)
    assert expected[0] == comb(7, 2) - 12

    def refuse(self):
        raise AssertionError("a checked prefix was checked again")

    monkeypatch.setattr(CopyFamily, "__post_init__", refuse)
    assert alpha_target(inst) == expected


@pytest.mark.parametrize("name", [f"K{s}" for s in range(2, 10)] + ["P3", "C4"])
def test_explicit_copies_record_their_span(name):
    # the instance of ex(9, F, F) records the F.n vertices its targets span,
    # and that of ex(9, F) the two of one edge
    F = builtin_spec(name)
    assert make_instance(9, F, F).span == F.n
    assert make_instance(9, F).span == 2


def test_span_of_padded_and_core_pair_copies():
    # P3 declared on 5 vertices still spans its 3 edge-covered vertices
    assert make_instance(6, K(3), RGraph(5, 2, [(1, 2), (2, 3)])).span == 3
    # the pair shadows of K4^(3) minus an edge, the targets of a core-pair
    # instance, span the pattern's 4 vertices
    assert make_instance(6, CoreFamily(4, 3), K4_MINUS_EDGE_3).span == 4
    # a K4 target places no copy on [3], so the instance makes no claim
    assert make_instance(3, K(3), K(4)).span is None
    # equality compares the families only
    inst = make_instance(5, K(3))
    assert inst == CoverInstance(5, 2, inst.forbidden, inst.target)


def reference_core_copies(ell, r, n):
    """The minimal copies of the core-pair family (ell, r) on [n], the
    generators of its edge-level cover ideal: every system of one edge per
    pair of an ell-core, as a union of edge masks, then the minimal ones
    per core and across cores."""
    all_minimal = set()
    for core in itertools.combinations(range(1, n + 1), ell):
        systems = {0}
        for pair in itertools.combinations(core, 2):
            others = [v for v in range(1, n + 1) if v not in pair]
            options = [
                edge_mask([pair + rest]) for rest in itertools.combinations(others, r - 2)
            ]
            systems = {s | o for s in systems for o in options}
        all_minimal.update(minimal_supports(systems))
    return CopyFamily(n, r, tuple(sorted(minimal_supports(all_minimal))))


def _core_grid():
    # every point with ell in 2..5, r in 2..4, max(ell, r) <= n <= 7 with at
    # most COPY_CAP systems, except (ell, r, n) = (4, 3, 7), where the
    # system product alone takes about 3 s
    for ell in range(2, 6):
        for r in range(2, 5):
            for n in range(max(ell, r), 8):
                systems = comb(n, ell) * comb(n - 2, r - 2) ** comb(ell, 2)
                if systems <= COPY_CAP and (ell, r, n) != (4, 3, 7):
                    yield ell, r, n


@pytest.mark.parametrize("ell,r,n", list(_core_grid()))
def test_core_copies_match_system_product(ell, r, n):
    # the system product lists minimal members only: each copy's shadow has
    # an ell-clique, and dropping any of its edges leaves none
    ranker = EdgeRanker(n, r)
    for c in reference_core_copies(ell, r, n).copies:
        edges = ranker.unmask(c)
        assert len(edges) <= comb(ell, 2)
        assert not core_family_free(RGraph(n, r, edges), ell)
        for e in edges:
            assert core_family_free(RGraph(n, r, set(edges) - {e}), ell)


def reference_copies(F, n):
    """The permutation enumerator: the images of all n!/(n-k)! injections of
    F's vertices into [n], deduplicated."""
    if F.n > n:
        return CopyFamily(n, F.r, ())
    verts = sorted(set().union(*F.edges))
    copies = set()
    for image in itertools.permutations(range(1, n + 1), len(verts)):
        phi = dict(zip(verts, image))
        copies.add(edge_mask({phi[v] for v in e} for e in F.edges))
    return CopyFamily(n, F.r, tuple(sorted(copies)))


# a 3-graph on 6 vertices whose only automorphism is the identity
ASYMMETRIC_3GRAPH = "6 3\n1 2 3\n1 2 4\n1 3 5\n2 5 6\n"
# a path on 3 of the 6 vertices its header declares
PADDED_PATH = "6 2\n1 2\n2 3\n"


@pytest.mark.parametrize(
    "F",
    [K(s) for s in range(2, 7)]
    + [builtin_spec("P3"), builtin_spec("C4")]
    + [parse_hypergraph(ASYMMETRIC_3GRAPH), parse_hypergraph(PADDED_PATH)],
    ids=["K2", "K3", "K4", "K5", "K6", "P3", "C4", "asymmetric_3graph", "padded_path"],
)
def test_copies_match_permutation_enumerator(F):
    k = len(set().union(*F.edges))
    for n in range(k, 9):
        assert enumerate_forbidden_copies(F, n) == reference_copies(F, n), n


def reference_placement(shapes, n):
    """The copy masks of `place_copies` by the colex rank formula, edge by
    edge: on each 0-based k-set c of [n], a shape's edge (p_1 < ... < p_r)
    has rank C(c[p_1], 1) + ... + C(c[p_r], r)."""
    k, found = shapes
    return tuple(sorted(
        sum(1 << sum(map(comb, map(c.__getitem__, e), itertools.count(1))) for e in shape)
        for c in itertools.combinations(range(n), k)
        for shape in found
    ))


# a 3-graph file: K4^(3) minus an edge, whose 4 shapes all have K4's pair
# shadow, listed once per shape
K4_MINUS_EDGE_3_FILE = "4 3\n1 2 3\n1 2 4\n1 3 4\n"


@pytest.mark.parametrize(
    "shapes",
    [_shapes(builtin_spec(name)) for name in ("K2", "K3", "K4", "K5", "P3", "C4")]
    + [(4, {shape}) for shape in _shapes(builtin_spec("C4"))[1]]
    + [_shapes(parse_hypergraph(K4_MINUS_EDGE_3_FILE))]
    + [hypergraph.pair_shadows(_shapes(parse_hypergraph(K4_MINUS_EDGE_3_FILE)))]
    + [hypergraph.complete_shape(k, r) for r in range(2, 5) for k in range(r, 7)]
    + [hypergraph.complete_shape(k, 2) for k in (9, 10)]
    + [hypergraph.complete_shape(k, 1) for k in (1, 3)],
    ids=[
        "K2", "K3", "K4", "K5", "P3", "C4", "C4_shape_a", "C4_shape_b", "C4_shape_c",
        "k4_minus_edge_3_file", "its_pair_shadows",
        *(f"complete_{k}_{r}" for r in range(2, 5) for k in range(r, 7)),
        "K9", "K10", "complete_1_1", "complete_3_1",
    ],
)
def test_placed_copies_match_the_rank_formula(shapes):
    # the rank tables against the formula, on complete and other shapes,
    # one or several, shadows listed twice, for r = 1..4: graph patterns up
    # to K8 take the loop over pairs, K9 and K10 (36 and 45 edges) and every
    # r != 2 shape take the sums
    r = len(next(iter(shapes[1]))[0])
    for n in range(11):
        assert hypergraph.place_copies(shapes, n, r).copies == reference_placement(shapes, n), n


def test_copies_of_asymmetric_pattern_are_all_labellings():
    F = parse_hypergraph(ASYMMETRIC_3GRAPH)
    assert len(enumerate_forbidden_copies(F, 7)) == comb(7, 6) * factorial(6)


@pytest.mark.parametrize("r", [2, 3])
def test_complete_patterns_have_one_unpermuted_shape(r):
    # the complete pattern on k vertices, placed on vertices 3..k+2
    for k in range(r, 8):
        F = RGraph(k + 2, r, itertools.combinations(range(3, k + 3), r))
        edges = [[v - 3 for v in e] for e in F.edges]
        permuted = {
            tuple(sorted(tuple(sorted(p[i] for i in e)) for e in edges))
            for p in itertools.permutations(range(k))
        }
        assert _shapes(F) == (k, permuted)


def test_copies_need_the_declared_vertex_count():
    F = parse_hypergraph(PADDED_PATH)
    for n in range(3, 6):
        assert len(enumerate_forbidden_copies(F, n)) == 0
    assert len(enumerate_forbidden_copies(F, 6)) == 3 * comb(6, 3)


# (spec, largest n); a core-pair family restricts the cliques of its pair
# instance, which `alpha_target`'s chain cuts the same way
PREFIX_GRID = [
    *((name, 8) for name in ("K2", "K3", "K4", "K5", "P3", "C4", "K_ell_r(3,2)")),
    ("K_ell_r(4,3)", 7),
]


@pytest.mark.parametrize("name,top", PREFIX_GRID)
def test_restricted_copies_equal_enumeration_on_fewer_vertices(name, top):
    # colex ranks put the r-sets of [m] first, so the copies on [m] are the
    # prefix of the sorted list on [n] below 1 << C(m, r)
    spec = builtin_spec(name)
    if isinstance(spec, RGraph):
        smallest, families = spec.n, lambda n: [enumerate_forbidden_copies(spec, n)]
    else:
        smallest = max(spec.ell, spec.r)

        def families(n):
            # the targets of an r = 2 pair instance are its variables, held as no list
            inst = make_instance(n, spec)
            return [inst.forbidden] + ([] if inst.target is None else [inst.target])
    fams = {n: families(n) for n in range(smallest, top + 1)}
    for n in fams:
        for m in range(smallest, n + 1):
            for fam, on_m in zip(fams[n], fams[m]):
                assert below_cut(fam, m) == on_m, (n, m)


def test_restricted_copies_of_a_padded_pattern():
    # below its declared vertex count a padded pattern has no copies, but
    # the prefix keeps the copies of its edges
    F = parse_hypergraph(PADDED_PATH)
    fam = enumerate_forbidden_copies(F, 7)
    assert below_cut(fam, 6) == enumerate_forbidden_copies(F, 6)
    assert len(enumerate_forbidden_copies(F, 4)) == 0
    assert below_cut(fam, 4) == enumerate_forbidden_copies(builtin_spec("P3"), 4)


def test_copy_enumeration_work_guards():
    # C(300, 3) vertex sets of one labelling each exceed the default cap
    with pytest.raises(ScaleGuardError, match="copy count 4455100"):
        enumerate_forbidden_copies(K(3), 300)
    # a complete pattern is not relabelled: K9 at n = 9 lists one copy
    assert len(enumerate_forbidden_copies(builtin_spec("K9"), 9)) == 1
    # 11! labellings of the path's 10 edges are refused before any is built
    path = parse_hypergraph("11 2\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 11)))
    with pytest.raises(ScaleGuardError, match="labelling work"):
        enumerate_forbidden_copies(path, 11)


# ---------------------------------------------------------------------------
# brute-force oracles


@pytest.mark.parametrize("n,expected", [(4, 4), (5, 6)])
def test_brute_force_ex_triangle(n, expected):
    value, witness = brute_force_ex(n, K(3))
    assert value == expected
    assert len(witness) == expected
    assert count_copies(witness, enumerate_forbidden_copies(K(3), n)) == 0


def test_brute_force_ex_single_edge_family():
    value, witness = brute_force_ex(4, CoreFamily(3, 3))
    assert value == 0
    assert len(witness) == 0


def test_brute_force_ex_exhaustive_reference():
    # full 2^C(4,2) enumeration as an independent double-check at n=4
    edges = list(itertools.combinations(range(1, 5), 2))
    fam = enumerate_forbidden_copies(K(3), 4)
    best = max(
        sum(mask >> i & 1 for i in range(6))
        for mask in range(1 << 6)
        if count_copies(
            RGraph(4, 2, [edges[i] for i in range(6) if mask >> i & 1]), fam
        )
        == 0
    )
    assert best == brute_force_ex(4, K(3))[0]


@pytest.mark.parametrize(
    "n,t,f,expected", [(4, "K3", "K4", 2), (5, "K3", "K3", 0), (6, "K3", "K4", 8)]
)
def test_brute_force_gen_ex(n, t, f, expected):
    value, witness = brute_force_gen_ex(n, builtin_spec(t), builtin_spec(f))
    assert value == expected
    targ = enumerate_forbidden_copies(builtin_spec(t), n)
    forb = enumerate_forbidden_copies(builtin_spec(f), n)
    assert count_copies(witness, targ) == value
    assert count_copies(witness, forb) == 0


def test_gen_ex_six_matches_turan_count():
    value, _ = brute_force_gen_ex(6, K(3), K(4))
    assert value == turan_count(6, 3, 3)


def test_brute_force_witness_deterministic():
    a = brute_force_ex(5, K(3))
    b = brute_force_ex(5, K(3))
    assert a == b


# the oracles' contract, with no search: every edge mask of K_n^(r) with
# C(n, r) <= 15 is tried in the oracles' leaf order (edge 0 in before out,
# then edge 1, and so on), and the value is the best over free masks, the
# witness the first mask reaching it
EXHAUSTIVE_EX = ["K3", "K4", "C4", "P3", "K_ell_r(3,2)", "K_ell_r(4,3)", "K_ell_r(3,3)"]
EXHAUSTIVE_GEN_EX = [("K3", "K4"), ("P3", "K3"), ("C4", "K3"), ("K3", "C4"), ("K3", "K_ell_r(3,2)")]


def _exhaustive_grid():
    for r in (2, 3):
        for n in range(1, 7):
            if comb(n, r) <= 15:
                yield n, r


def _leaf_order(m):
    """Every edge mask over m edges, in the oracles' leaf order: with bit i
    of the mask read as digit i of a binary word from edge 0, the words
    from largest to smallest."""
    for word in reversed(range(1 << m)):
        yield sum(1 << i for i in range(m) if word >> (m - 1 - i) & 1)


@pytest.mark.parametrize("n,r", list(_exhaustive_grid()))
def test_oracles_return_the_first_optimum_in_edge_order(n, r):
    specs = {name: builtin_spec(name) for name in EXHAUSTIVE_EX + [x for p in EXHAUSTIVE_GEN_EX for x in p]}
    specs = {name: spec for name, spec in specs.items() if spec.r == r}
    fams = {
        name: enumerate_forbidden_copies(spec, n)
        for name, spec in specs.items()
        if isinstance(spec, RGraph)
    }
    points = [(None, f) for f in EXHAUSTIVE_EX if f in specs]
    points += [(t, f) for t, f in EXHAUSTIVE_GEN_EX if f in specs]
    best = dict.fromkeys(points, (-1, None))
    ranker = EdgeRanker(n, r)
    for g in _leaf_order(ranker.count):
        G = RGraph(n, r, ranker.unmask(g))
        counts = {name: count_copies(G, fam) for name, fam in fams.items()}
        for t, f in points:
            spec = specs[f]
            free = core_family_free(G, spec.ell) if isinstance(spec, CoreFamily) else not counts[f]
            value = len(G) if t is None else counts[t]
            if free and value > best[t, f][0]:
                best[t, f] = value, G
    for (t, f), expected in best.items():
        if t is None:
            assert brute_force_ex(n, specs[f]) == expected, f
        else:
            assert brute_force_gen_ex(n, specs[t], specs[f]) == expected, (t, f)


def reference_ex(n, spec):
    """`brute_force_ex` without the strict cut: a node is cut only when even
    every remaining edge cannot reach the incumbent's size, and a leaf
    replaces the incumbent only when strictly larger.  Freeness of an
    explicit pattern is tested on its own list of copies by last edge; the
    core-pair family takes the oracle's `_shadow_step`."""
    m = comb(n, spec.r)
    ranker = EdgeRanker(n, spec.r)
    add = remove = None
    by_last = [[] for _ in range(m)]
    if isinstance(spec, CoreFamily):
        add, remove = hypergraph._shadow_step(ranker, spec.ell)
    else:
        for cm in enumerate_forbidden_copies(spec, n).copies:
            by_last[cm.bit_length() - 1].append(cm)
    best_size, best_mask = -1, 0

    def dfs(idx, chosen, size):
        nonlocal best_size, best_mask
        if size + (m - idx) < best_size:
            return
        if idx == m:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        cand = chosen | (1 << idx)
        if add(idx) if add else all((cm & cand) != cm for cm in by_last[idx]):
            dfs(idx + 1, cand, size + 1)
        if remove:
            remove(idx)
        dfs(idx + 1, chosen, size)

    dfs(0, 0, 0)
    return best_size, RGraph(n, spec.r, ranker.unmask(best_mask))


# K2's one-edge copies have the empty rest mask; P3 padded to 5 vertices
# has two isolated ones
UNCUT_SPECS = {name: builtin_spec(name) for name in ("K2", "K3", "K4", "K5", "P3", "C4")}
UNCUT_SPECS["P3_on_5"] = RGraph(5, 2, [(1, 2), (2, 3)])


def _uncut_grid():
    for name in UNCUT_SPECS:
        for n in range(1, (7 if name == "C4" else 8) + 1):
            yield n, name


@pytest.mark.parametrize("n,name", list(_uncut_grid()))
def test_ex_oracle_matches_the_uncut_search(n, name):
    assert brute_force_ex(n, UNCUT_SPECS[name]) == reference_ex(n, UNCUT_SPECS[name])


def _count_shadow_adds(monkeypatch):
    """Wrap the `add` step of every `_shadow_step` with a call counter."""
    calls = []
    real = hypergraph._shadow_step

    def counted(ranker, ell):
        add, remove = real(ranker, ell)

        def add_counted(idx):
            calls.append(idx)
            return add(idx)

        return add_counted, remove

    monkeypatch.setattr(hypergraph, "_shadow_step", counted)
    return calls


@pytest.mark.parametrize("n,ell", [(7, 4), (8, 6)])
def test_strict_cut_skips_edges_the_uncut_search_adds(monkeypatch, n, ell):
    calls = _count_shadow_adds(monkeypatch)
    spec = CoreFamily(ell, 2)
    answer = brute_force_ex(n, spec)
    cut_adds = len(calls)
    calls.clear()
    assert reference_ex(n, spec) == answer
    assert 0 < cut_adds < len(calls)


def test_gen_ex_strict_cut_skips_edges_the_uncut_search_tries(monkeypatch):
    # the oracle's shadow step runs once per edge it tries to include; the
    # reference lists its own copies, so its tries are counted directly
    calls = _count_shadow_adds(monkeypatch)
    args = 6, K(3), CoreFamily(4, 2)
    answer = brute_force_gen_ex(*args)
    tried = []
    assert reference_gen_ex(*args, tried=tried) == answer
    assert 0 < len(calls) < len(tried)


def reference_core_family_ex(n, ell, r):
    """The codegree-dict oracle: at every node, rescan each ell-set through a
    newly covered pair for one with all pairs in positive codegree."""
    ranker = EdgeRanker(n, r)
    m = ranker.count
    if n < ell:
        return m, RGraph.complete(n, r)
    edge_pairs = [list(itertools.combinations(t, 2)) for t in ranker.sets]
    others = list(range(1, n + 1))
    codeg = {}

    def violates(new_pairs):
        for a, b in new_pairs:
            rest = [v for v in others if v not in (a, b)]
            for extra in itertools.combinations(rest, ell - 2):
                S = sorted((a, b) + extra)
                if all(codeg.get(p, 0) > 0 for p in itertools.combinations(S, 2)):
                    return True
        return False

    best_size, best_mask = -1, 0

    def dfs(idx, chosen, size):
        nonlocal best_size, best_mask
        if size + (m - idx) < best_size:
            return
        if idx == m:
            if size > best_size:
                best_size, best_mask = size, chosen
            return
        new_pairs = [p for p in edge_pairs[idx] if codeg.get(p, 0) == 0]
        for p in edge_pairs[idx]:
            codeg[p] = codeg.get(p, 0) + 1
        if not violates(new_pairs):
            dfs(idx + 1, chosen | (1 << idx), size + 1)
        for p in edge_pairs[idx]:
            codeg[p] -= 1
        dfs(idx + 1, chosen, size)

    dfs(0, 0, 0)
    return best_size, RGraph(n, r, ranker.unmask(best_mask))


def _core_family_grid():
    for r in (2, 3, 4):
        for n in range(1, 8):
            if comb(n, r) <= 20:
                for ell in range(2, n + 2):
                    yield n, ell, r


@pytest.mark.parametrize("n,ell,r", list(_core_family_grid()))
def test_core_family_oracle_matches_codegree_scan(n, ell, r):
    assert brute_force_ex(n, CoreFamily(ell, r)) == reference_core_family_ex(n, ell, r)


def reference_gen_ex(n, target_spec, forbid_spec, tried=None):
    """`brute_force_gen_ex` without the strict cut (a leaf replaces the
    incumbent only when strictly better), with freeness tested on its
    own list of forbidden copies (for the core-pair family its minimal
    copies, `reference_core_copies`), and with the loss of an excluded edge
    found by scanning every target mask.  Each edge index whose inclusion is
    tested is appended to `tried` when given."""
    if isinstance(forbid_spec, CoreFamily):
        forb = reference_core_copies(forbid_spec.ell, forbid_spec.r, n)
    else:
        forb = enumerate_forbidden_copies(forbid_spec, n)
    targ = enumerate_forbidden_copies(target_spec, n)
    ranker = EdgeRanker(n, forbid_spec.r)
    m = ranker.count
    targ_masks = targ.copies
    forb_by_last = [[] for _ in range(m)]
    for cm in forb.copies:
        forb_by_last[cm.bit_length() - 1].append(cm)
    targ_by_last = [[] for _ in range(m)]
    for cm in targ_masks:
        targ_by_last[cm.bit_length() - 1].append(cm)
    best_count, best_mask = -1, 0

    def dfs(idx, chosen, excluded, done, alive):
        nonlocal best_count, best_mask
        if alive < best_count:
            return
        if idx == m:
            if done > best_count:
                best_count, best_mask = done, chosen
            return
        bit = 1 << idx
        cand = chosen | bit
        if tried is not None:
            tried.append(idx)
        if all((cm & cand) != cm for cm in forb_by_last[idx]):
            gained = sum(1 for cm in targ_by_last[idx] if (cm & cand) == cm)
            dfs(idx + 1, cand, excluded, done + gained, alive)
        lost = sum(1 for cm in targ_masks if (cm & bit) and not (cm & excluded))
        dfs(idx + 1, chosen, excluded | bit, done, alive - lost)

    dfs(0, 0, 0, 0, len(targ_masks))
    return best_count, RGraph(n, forbid_spec.r, ranker.unmask(best_mask))


# the six gen-ex pairs of the benchmark menu and a core-pair forbidden family
GEN_EX_PAIRS = [
    ("K3", "K4"), ("K3", "K5"), ("K4", "K5"), ("P3", "K3"), ("C4", "K3"), ("K3", "C4"),
    ("K3", "K_ell_r(3,2)"),
]
GEN_EX_GRID = sorted(
    {(n, t, f) for t, f in GEN_EX_PAIRS for n in range(1, 7)}
    | {(7, t, f) for t, f in GEN_EX_PAIRS[:6]}
    | {(5, "K3", "K3")}
)


@pytest.mark.parametrize("n,t,f", GEN_EX_GRID)
def test_gen_ex_oracle_matches_target_scan(n, t, f):
    args = n, builtin_spec(t), builtin_spec(f)
    assert brute_force_gen_ex(*args) == reference_gen_ex(*args)


def test_gen_ex_oracle_walks_no_target_holding_a_forbidden_copy(monkeypatch):
    # a target copy holding a forbidden copy lies in no free graph, so it is
    # dropped before the walk: every K3 holds a K3 and every K4 a C4, while
    # no K3 holds a C4 and no C4 a K3.  The oracle builds its forbidden
    # bitsets first and its target bitsets last
    listed = []
    bitsets = hypergraph._copy_bitsets
    monkeypatch.setattr(
        hypergraph, "_copy_bitsets", lambda copies, m: listed.append(len(copies)) or bitsets(copies, m)
    )
    for t, f, walked, value in [
        ("K3", "K3", 0, 0), ("K4", "C4", 0, 0), ("K3", "C4", 20, 2), ("C4", "K3", 45, 9),
    ]:
        assert brute_force_gen_ex(6, builtin_spec(t), builtin_spec(f))[0] == value
        assert listed[-1] == walked


# the rest-mask walk the oracles took before their bookkeeping moved onto
# bitsets over copy indices, kept to pin the new walk node for node: each
# copy sits under its last edge as its rest mask, the exclude branch is a
# second recursive call, and every freeness test is counted


def rest_mask_shadow_step(ranker, ell):
    """The codegree matrix shadow step: `add` records every pair of the
    r-set, then searches each newly covered pair's common neighbourhood."""
    n = ranker.n
    edge_pairs = [list(itertools.combinations(t, 2)) for t in ranker.sets]
    codeg = [[0] * (n + 1) for _ in range(n + 1)]
    adj = [0] * (n + 1)

    def add(idx):
        new_pairs = []
        for a, b in edge_pairs[idx]:
            if not codeg[a][b]:
                new_pairs.append((a, b))
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            codeg[a][b] += 1
        return not any(hypergraph._has_clique(adj, adj[a] & adj[b], ell - 2) for a, b in new_pairs)

    def remove(idx):
        for a, b in edge_pairs[idx]:
            codeg[a][b] -= 1
            if not codeg[a][b]:
                adj[a] ^= 1 << b
                adj[b] ^= 1 << a

    return add, remove


def rest_mask_tables(spec, n, ranker):
    """(rests, add, remove): the copies' rest masks by last edge and no
    steps, or no rests and the core-pair shadow step."""
    m = ranker.count
    if isinstance(spec, CoreFamily):
        return [()] * m, *rest_mask_shadow_step(ranker, spec.ell)
    rests = [[] for _ in range(m)]
    for cm in enumerate_forbidden_copies(spec, n).copies:
        last = cm.bit_length() - 1
        rests[last].append(cm ^ (1 << last))
    return rests, None, None


def rest_mask_ex(n, spec, tests):
    """(value, witness) of the rest-mask `brute_force_ex`; each freeness
    test appends its edge index to `tests`."""
    ranker = EdgeRanker(n, spec.r)
    m = ranker.count
    rests, add, remove = rest_mask_tables(spec, n, ranker)
    best_size, best_mask = -1, 0

    def dfs(idx, chosen, size):
        nonlocal best_size, best_mask
        if size + (m - idx) <= best_size:
            return
        if idx == m:
            best_size, best_mask = size, chosen
            return
        tests.append(idx)
        if all(chosen & rest != rest for rest in rests[idx]) and (not add or add(idx)):
            dfs(idx + 1, chosen | (1 << idx), size + 1)
        if remove:
            remove(idx)
        dfs(idx + 1, chosen, size)

    dfs(0, 0, 0)
    return best_size, RGraph(n, spec.r, ranker.unmask(best_mask))


def rest_mask_gen_ex(n, target_spec, forbid_spec, tests):
    """(value, witness) of the rest-mask `brute_force_gen_ex`; each
    freeness test appends its edge index to `tests`."""
    ranker = EdgeRanker(n, forbid_spec.r)
    m = ranker.count
    forb_rests, add, remove = rest_mask_tables(forbid_spec, n, ranker)
    forb = [rest | 1 << idx for idx, rests in enumerate(forb_rests) for rest in rests]
    targ = [
        t for t in enumerate_forbidden_copies(target_spec, n).copies
        if not any(f & t == f for f in forb)
    ]
    targ_rests = [[] for _ in range(m)]
    targ_by_edge = [[] for _ in range(m)]
    for cm in targ:
        last = cm.bit_length() - 1
        targ_rests[last].append(cm ^ (1 << last))
        for idx in range(m):
            if cm >> idx & 1:
                targ_by_edge[idx].append(cm)
    best_count, best_mask = -1, 0

    def dfs(idx, chosen, excluded, done, alive):
        nonlocal best_count, best_mask
        if alive <= best_count:
            return
        if idx == m:
            best_count, best_mask = done, chosen
            return
        tests.append(idx)
        if all(chosen & rest != rest for rest in forb_rests[idx]) and (not add or add(idx)):
            gained = sum(chosen & rest == rest for rest in targ_rests[idx])
            dfs(idx + 1, chosen | (1 << idx), excluded, done + gained, alive)
        if remove:
            remove(idx)
        lost = sum(not cm & excluded for cm in targ_by_edge[idx])
        dfs(idx + 1, chosen, excluded | (1 << idx), done, alive - lost)

    dfs(0, 0, 0, 0, len(targ))
    return best_count, RGraph(n, forbid_spec.r, ranker.unmask(best_mask))


class CountedTable(list):
    """A per-edge table that counts its lookups."""

    lookups = 0

    def __getitem__(self, idx):
        self.lookups += 1
        return super().__getitem__(idx)


def _count_freeness_tests(monkeypatch, spec):
    """A function giving the number of freeness tests of one oracle call
    after the patch: the lookups of the first per-edge table it builds (its
    forbidden `ending`) for an explicit pattern, or the calls of the shadow
    step's `add` for the core-pair family."""
    if isinstance(spec, CoreFamily):
        calls = _count_shadow_adds(monkeypatch)
        return lambda: len(calls)
    tables = []
    real = hypergraph._copy_bitsets

    def counted(copies, m):
        ending, avoiding = real(copies, m)
        tables.append(CountedTable(ending))
        return tables[-1], avoiding

    monkeypatch.setattr(hypergraph, "_copy_bitsets", counted)
    return lambda: tables[0].lookups


def _bitset_walk_matches_rest_mask_walk(monkeypatch, spec, oracle, rest_mask):
    tests = []
    count = _count_freeness_tests(monkeypatch, spec)
    assert oracle() == rest_mask(tests)
    assert count() == len(tests)


@pytest.mark.parametrize("n,name", list(_uncut_grid()))
def test_ex_bitset_walk_is_the_rest_mask_walk(monkeypatch, n, name):
    spec = UNCUT_SPECS[name]
    _bitset_walk_matches_rest_mask_walk(
        monkeypatch, spec, lambda: brute_force_ex(n, spec), lambda tests: rest_mask_ex(n, spec, tests)
    )


@pytest.mark.parametrize("n,t,f", GEN_EX_GRID)
def test_gen_ex_bitset_walk_is_the_rest_mask_walk(monkeypatch, n, t, f):
    args = n, builtin_spec(t), builtin_spec(f)
    _bitset_walk_matches_rest_mask_walk(
        monkeypatch, args[2], lambda: brute_force_gen_ex(*args), lambda tests: rest_mask_gen_ex(*args, tests)
    )


@pytest.mark.parametrize("n,ell,r", list(_core_family_grid()))
def test_core_family_shadow_step_is_the_rest_mask_step(monkeypatch, n, ell, r):
    spec = CoreFamily(ell, r)
    _bitset_walk_matches_rest_mask_walk(
        monkeypatch, spec, lambda: brute_force_ex(n, spec), lambda tests: rest_mask_ex(n, spec, tests)
    )


@pytest.mark.parametrize("n,ell,r", list(_core_family_grid()))
def test_shadow_step_verdicts_follow_a_stack_of_r_sets(n, ell, r):
    # seeded pushes and pops, as the walk makes them: a refused r-set is
    # taken out at once, so the r-sets on the stack always form a free graph
    # and each verdict is the freeness of that graph plus the new r-set
    ranker = EdgeRanker(n, r)
    add, remove = hypergraph._shadow_step(ranker, ell)
    rng = random.Random(n * 100 + ell * 10 + r)
    stack = []
    for _ in range(300):
        unused = [idx for idx in range(ranker.count) if idx not in stack]
        if not (stack or unused):
            break  # [n] has no r-sets
        if stack and (not unused or rng.random() < 0.4):
            remove(stack.pop())
            continue
        idx = rng.choice(unused)
        free = add(idx)
        assert free == core_family_free(RGraph(n, r, [ranker.sets[i] for i in stack + [idx]]), ell)
        if free:
            stack.append(idx)
        else:
            remove(idx)

def test_scale_guard_on_edge_count():
    with pytest.raises(ScaleGuardError):
        brute_force_ex(9, K(3))


def _no_copies(spec, n):
    raise AssertionError("copies were listed")


def test_oracles_refuse_before_listing_copies(monkeypatch):
    # C(150, 2) and C(60, 2) potential edges: refused on the count alone,
    # where listing the triangles first took seconds
    monkeypatch.setattr(hypergraph, "enumerate_forbidden_copies", _no_copies)
    with pytest.raises(ScaleGuardError, match="11175 potential edges"):
        brute_force_ex(150, K(3))
    with pytest.raises(ScaleGuardError, match="1770 potential edges"):
        brute_force_gen_ex(60, K(3), K(4))
    with pytest.raises(ScaleGuardError):
        brute_force_ex(9, CoreFamily(4, 3))


@pytest.mark.parametrize("n", [0, -3])
def test_oracles_refuse_n_below_one_before_listing_copies(monkeypatch, n):
    monkeypatch.setattr(hypergraph, "enumerate_forbidden_copies", _no_copies)
    message = f"need n >= 1, got n={n}"
    for forbid in (K(3), CoreFamily(3, 2)):
        with pytest.raises(InputError, match=message):
            brute_force_ex(n, forbid)
        with pytest.raises(InputError, match=message):
            brute_force_gen_ex(n, K(2), forbid)


# ---------------------------------------------------------------------------
# ranker, specs, parsing


@pytest.mark.parametrize("length,count", [(0, 0), (10, 3), (64, 32), (64, 33), (500, 40), (5000, 4000)])
def test_bit_positions_and_masks_round_trip(length, count):
    # both sides of PEEL_BITS for `_bits` and `_mask_of`
    rng = random.Random(length)
    positions = sorted(rng.sample(range(length), count))
    mask = sum(1 << p for p in positions)
    assert hypergraph._bits(mask) == positions
    rng.shuffle(positions)
    assert hypergraph._mask_of(positions) == mask


def colex_reference(n, r):
    """The r-subsets of [n] sorted by reversed tuple: colex order by its
    definition, largest vertex compared first."""
    return sorted(itertools.combinations(range(1, n + 1), r), key=lambda t: t[::-1])


@pytest.mark.parametrize("n,r", [(n, r) for n in range(10) for r in range(n + 1)])
def test_colex_formula_matches_the_sort(n, r):
    sets = hypergraph.rsets_colex(n, r)
    assert sets == colex_reference(n, r)
    assert [hypergraph.colex_rank(t) for t in sets] == list(range(comb(n, r)))
    # the r-sets of [n] come first at every larger n, so each keeps its rank:
    # the chain's cut 1 << C(m, r) relies on it
    for bigger in range(n, 10):
        assert colex_reference(bigger, r)[: len(sets)] == sets


@pytest.mark.parametrize("n,r", [(n, r) for n in range(13) for r in range(5)])
def test_colex_unrank_inverts_the_rank(n, r):
    # every rank below C(n, r) unranks to the r-set listed there, and ranks
    # back to itself
    for rank, t in enumerate(hypergraph.rsets_colex(n, r)):
        assert hypergraph.colex_unrank(rank, r) == t
        assert hypergraph.colex_rank(hypergraph.colex_unrank(rank, r)) == rank


def test_edge_ranker_roundtrip():
    mask = edge_mask([frozenset((1, 2, 3)), frozenset((3, 4, 5))])
    assert EdgeRanker(5, 3).unmask(mask) == [frozenset((1, 2, 3)), frozenset((3, 4, 5))]
    for n, r, size in [(5, 3, 4), (7, 3, 32), (7, 3, 33), (9, 2, 20), (9, 4, 100)]:
        rk = EdgeRanker(n, r)
        assert rk.count == comb(n, r)
        assert rk.unmask(0) == []
        colex = [frozenset(t) for t in colex_reference(n, r)]
        assert rk.unmask((1 << rk.count) - 1) == colex
        # a random edge set on either side of PEEL_BITS, where `_mask_of`
        # and `_bits` switch methods, comes back in rank order
        chosen = set(random.Random(size).sample(colex, size))
        assert rk.unmask(edge_mask(chosen)) == [e for e in colex if e in chosen]


def test_builtin_specs():
    assert len(builtin_spec("K4").edges) == 6
    assert len(builtin_spec("P3").edges) == 2
    assert len(builtin_spec("C4").edges) == 4
    spec = builtin_spec("K_ell_r(4,3)")
    assert (spec.ell, spec.r) == (4, 3)
    with pytest.raises(InputError):
        builtin_spec("Q17")


def test_parse_hypergraph():
    text = """# a 3-graph
    4 3
    1 2 3
    1 2 4  # comment
    """
    G = parse_hypergraph(text)
    assert (G.n, G.r) == (4, 3)
    assert len(G) == 2
    with pytest.raises(InputError):
        parse_hypergraph("4 3\n1 2\n")


def test_rgraph_validation():
    with pytest.raises(InputError):
        RGraph(3, 2, [(1, 1)])
    with pytest.raises(InputError):
        RGraph(3, 2, [(1, 4)])


def test_rgraph_is_a_frozen_value():
    """An r-graph is its (n, r, edges), however it was built: equal ones
    hash alike, and none can be changed after construction."""
    listed = RGraph(3, 2, [(2, 1), (3, 1), (2, 3)])
    built = (RGraph.complete(3, 2), brute_force_ex(3, K(4))[1], RGraph(3, 2, iter(listed.edges)))
    for G in built:
        assert G == listed and hash(G) == hash(listed)
    assert RGraph(3, 2) == RGraph(3, 2, ()) != RGraph(4, 2)
    assert RGraph(3, 2) != RGraph(3, 3)
    for G in (listed, *built):
        assert G != listed.edges and G != (3, 2, listed.edges) and G != None  # noqa: E711
        for attr in ("n", "r", "edges"):
            with pytest.raises(AttributeError):
                setattr(G, attr, getattr(G, attr))
            with pytest.raises(AttributeError):
                delattr(G, attr)
        # a name that is no field is refused too: CPython 3.11 raises
        # TypeError there, as the `__setattr__` it makes for a slotted frozen
        # dataclass names the class as it was before the slots were added
        with pytest.raises((AttributeError, TypeError)):
            G.label = "K3"
        assert not hasattr(G, "label")
    assert len({listed, *built}) == 1
