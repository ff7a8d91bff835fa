import itertools
from math import comb, factorial, prod

import pytest

from turancover import hypergraph
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
    enumerate_forbidden_copies,
    minimal_supports,
    parse_hypergraph,
    turan_construct,
    turan_count,
)


def K(s):
    return RGraph.complete(s, 2)


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


def test_core_family_minimal_copies_single_edges():
    fam = enumerate_forbidden_copies(CoreFamily(3, 3), 4)
    assert len(fam) == 4
    assert all(c.bit_count() == 1 for c in fam.copies)


def test_copy_list_closed_under_relabeling():
    fam = enumerate_forbidden_copies(K(3), 5)
    rk = EdgeRanker(5, 2)
    copies = set(fam.copies)
    perm = {1: 3, 2: 5, 3: 1, 4: 2, 5: 4}
    relabeled = {rk.mask({perm[v] for v in e} for e in rk.unmask(c)) for c in copies}
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
    with pytest.raises(InputError, match="duplicate copy"):
        CopyFamily(3, 2, (0b1, 0b1))
    # `restrict` bisects the list, so it must be increasing
    with pytest.raises(InputError, match="copies out of order"):
        CopyFamily(3, 2, (0b11, 0b1))


def test_restrict_does_not_check_its_prefix_again(monkeypatch):
    fam = enumerate_forbidden_copies(K(3), 7)

    def refuse(self):
        raise AssertionError("a checked prefix was checked again")

    monkeypatch.setattr(CopyFamily, "__post_init__", refuse)
    assert [len(fam.restrict(m)) for m in range(2, 8)] == [comb(m, 3) for m in range(2, 8)]


@pytest.mark.parametrize("name", [f"K{s}" for s in range(2, 10)] + ["P3", "C4"])
def test_explicit_copies_record_their_span(name):
    F = builtin_spec(name)
    fam = enumerate_forbidden_copies(F, 9)
    assert fam.span == F.n
    assert fam.restrict(F.n).span == F.n


def test_span_of_padded_and_core_pair_copies():
    # P3 declared on 5 vertices still spans its 3 edge-covered vertices
    fam = enumerate_forbidden_copies(RGraph(5, 2, [(1, 2), (2, 3)]), 6)
    assert fam.span == 3 and fam.restrict(4).span == 3
    # minimal core-pair copies span no common vertex count
    assert enumerate_forbidden_copies(CoreFamily(3, 3), 5).span is None
    # equality compares the copies only
    triangles = enumerate_forbidden_copies(K(3), 5)
    assert triangles == CopyFamily(5, 2, triangles.copies)


def test_enumeration_scale_guard():
    with pytest.raises(ScaleGuardError, match="projected copy count 3386105856"):
        enumerate_forbidden_copies(CoreFamily(5, 3), 8)


def reference_core_copies(ell, r, n):
    """The per-core system product the dualizer replaced: every system of
    one edge per core pair, as a union of edge masks, then the minimal
    ones per core and across cores."""
    ranker = EdgeRanker(n, r)
    all_minimal = set()
    for core in itertools.combinations(range(1, n + 1), ell):
        systems = {0}
        for pair in itertools.combinations(core, 2):
            others = [v for v in range(1, n + 1) if v not in pair]
            options = [
                ranker.mask([pair + rest]) for rest in itertools.combinations(others, r - 2)
            ]
            systems = {s | o for s in systems for o in options}
        all_minimal.update(minimal_supports(systems))
    return CopyFamily(n, r, tuple(sorted(minimal_supports(all_minimal))))


def _core_grid():
    # every point with ell in 2..5, r in 2..4, max(ell, r) <= n <= 7 that the
    # guard admits, except (ell, r, n) = (4, 3, 7), where the system product
    # alone takes about 3 s
    for ell in range(2, 6):
        for r in range(2, 5):
            for n in range(max(ell, r), 8):
                projected = comb(n, ell) * comb(n - 2, r - 2) ** comb(ell, 2)
                if projected <= COPY_CAP and (ell, r, n) != (4, 3, 7):
                    yield ell, r, n


@pytest.mark.parametrize("ell,r,n", list(_core_grid()))
def test_core_copies_match_system_product(ell, r, n):
    assert enumerate_forbidden_copies(CoreFamily(ell, r), n) == reference_core_copies(ell, r, n)


def reference_copies(F, n):
    """The permutation enumerator: the images of all n!/(n-k)! injections of
    F's vertices into [n], deduplicated."""
    if F.n > n:
        return CopyFamily(n, F.r, ())
    ranker = EdgeRanker(n, F.r)
    verts = sorted(set().union(*F.edges))
    copies = set()
    for image in itertools.permutations(range(1, n + 1), len(verts)):
        phi = dict(zip(verts, image))
        copies.add(ranker.mask({phi[v] for v in e} for e in F.edges))
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
            frozenset(frozenset(p[i] for i in e) for e in edges)
            for p in itertools.permutations(range(k))
        }
        assert _shapes(F) == (k, permuted)


def test_copies_need_the_declared_vertex_count():
    F = parse_hypergraph(PADDED_PATH)
    for n in range(3, 6):
        assert len(enumerate_forbidden_copies(F, n)) == 0
    assert len(enumerate_forbidden_copies(F, 6)) == 3 * comb(6, 3)


# (spec, largest n): K_ell_r(4,3) stops at 7, where the projected-system
# guard still admits it (it refuses n = 8)
PREFIX_GRID = [
    *((name, 8) for name in ("K2", "K3", "K4", "K5", "P3", "C4", "K_ell_r(3,2)")),
    ("K_ell_r(4,3)", 7),
]


@pytest.mark.parametrize("name,top", PREFIX_GRID)
def test_restricted_copies_equal_enumeration_on_fewer_vertices(name, top):
    # colex ranks put the r-sets of [m] first, so the copies on [m] are the
    # prefix of the sorted list on [n] below 1 << C(m, r)
    spec = builtin_spec(name)
    smallest = spec.n if isinstance(spec, RGraph) else max(spec.ell, spec.r)
    fams = {n: enumerate_forbidden_copies(spec, n) for n in range(smallest, top + 1)}
    for n, fam in fams.items():
        for m in range(smallest, n + 1):
            below = 1 << comb(m, fam.r)
            prefix = tuple(c for c in fam.copies if c < below)
            assert fam.restrict(m) == CopyFamily(m, fam.r, prefix) == fams[m], (n, m)


def test_restricted_copies_of_a_padded_pattern():
    # below its declared vertex count a padded pattern has no copies, but
    # the prefix keeps the copies of its edges
    F = parse_hypergraph(PADDED_PATH)
    fam = enumerate_forbidden_copies(F, 7)
    assert fam.restrict(6) == enumerate_forbidden_copies(F, 6)
    assert len(enumerate_forbidden_copies(F, 4)) == 0
    assert fam.restrict(4) == enumerate_forbidden_copies(builtin_spec("P3"), 4)


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
            if size > best_size or (size == best_size and chosen < best_mask):
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


def reference_gen_ex(n, target_spec, forbid_spec):
    """`brute_force_gen_ex` with the loss of an excluded edge found by
    scanning every target mask."""
    forb = enumerate_forbidden_copies(forbid_spec, n)
    targ = enumerate_forbidden_copies(target_spec, n)
    ranker = EdgeRanker(n, forb.r)
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
            if done > best_count or (done == best_count and chosen < best_mask):
                best_count, best_mask = done, chosen
            return
        bit = 1 << idx
        cand = chosen | bit
        if all((cm & cand) != cm for cm in forb_by_last[idx]):
            gained = sum(1 for cm in targ_by_last[idx] if (cm & cand) == cm)
            dfs(idx + 1, cand, excluded, done + gained, alive)
        lost = sum(1 for cm in targ_masks if (cm & bit) and not (cm & excluded))
        dfs(idx + 1, chosen, excluded | bit, done, alive - lost)

    dfs(0, 0, 0, 0, len(targ_masks))
    return best_count, RGraph(n, forb.r, ranker.unmask(best_mask))


@pytest.mark.parametrize("n,t,f", [(4, "K3", "K4"), (5, "K3", "K3"), (6, "K3", "K4")])
def test_gen_ex_oracle_matches_target_scan(n, t, f):
    args = n, builtin_spec(t), builtin_spec(f)
    assert brute_force_gen_ex(*args) == reference_gen_ex(*args)


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


# ---------------------------------------------------------------------------
# ranker, specs, parsing


def test_edge_ranker_roundtrip():
    rk = EdgeRanker(5, 3)
    assert rk.count == comb(5, 3)
    mask = rk.mask([frozenset((1, 2, 3)), frozenset((3, 4, 5))])
    assert rk.unmask(mask) == [frozenset((1, 2, 3)), frozenset((3, 4, 5))]
    assert rk.unmask(0) == []
    full = EdgeRanker(7, 3)
    colex = sorted(itertools.combinations(range(1, 8), 3), key=lambda t: t[::-1])
    assert full.unmask((1 << full.count) - 1) == [frozenset(t) for t in colex]


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
