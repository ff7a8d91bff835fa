import itertools
import json
import random
from math import comb

import pytest

from turancover import codegree_star, hypergraph, monomial
from turancover.cli import EXIT_CLAIM_FAILED, main
from turancover.codegree_star import (
    StarParams,
    _collapse_tables,
    balanced_partition_monomial,
    codegree_star_monomial,
    core_family_turan_number,
    in_star_ideal,
    missing_edge_monomial,
    star_initial_degree,
    verify_collapse,
    vertex_quotient,
)
from turancover.dictionary import (
    CoverInstance,
    alpha_target,
    core_pair_alpha,
    ex_via_cover,
    make_instance,
)
from turancover.errors import ClaimCheckError, InputError, ScaleGuardError
from turancover.hypergraph import (
    CopyFamily,
    CoreFamily,
    EdgeRanker,
    RGraph,
    builtin_spec,
    core_family_free,
    enumerate_forbidden_copies,
    turan_construct,
    turan_count,
)
from turancover.monomial import min_targets_met


# ---------------------------------------------------------------------------
# star monomials


def test_star_monomial_example_n4_r3():
    p = StarParams(4, 3, 3)
    m = codegree_star_monomial(p, 1, 2)
    assert set(p.ranker().unmask(m)) == {frozenset((1, 2, 3)), frozenset((1, 2, 4))}


def test_star_monomial_symmetric_in_pair():
    p = StarParams(5, 3, 3)
    assert codegree_star_monomial(p, 2, 4) == codegree_star_monomial(p, 4, 2)


def test_star_monomial_size_law():
    for n, r in [(4, 2), (5, 3), (6, 3), (6, 4)]:
        p = StarParams(n, 3, r)
        for a, b in itertools.combinations(range(1, n + 1), 2):
            assert codegree_star_monomial(p, a, b).bit_count() == comb(n - 2, r - 2)


def test_star_monomial_rejects_bad_pairs():
    p = StarParams(4, 3, 3)
    with pytest.raises(InputError):
        codegree_star_monomial(p, 1, 1)
    with pytest.raises(InputError):
        codegree_star_monomial(p, 1, 5)


# ---------------------------------------------------------------------------
# missing-edge monomials and the divisibility law


def test_missing_edge_monomial_complete_graph_is_one():
    p = StarParams(4, 3, 3)
    m = missing_edge_monomial(p, RGraph.complete(4, 3))
    assert m.bit_count() == 0


def test_missing_edge_monomial_empty_graph_is_full_product():
    p = StarParams(4, 3, 3)
    m = missing_edge_monomial(p, RGraph(4, 3))
    assert m.bit_count() == comb(4, 3)


def test_divisibility_law_exhaustive():
    # the star of (a,b) divides the missing-edge monomial iff codeg(a,b) == 0
    for n, r in [(4, 2), (4, 3), (5, 3)]:
        p = StarParams(n, 3, r)
        edges = list(itertools.combinations(range(1, n + 1), r))
        rng = random.Random(31)
        graph_masks = (
            range(1 << len(edges))
            if len(edges) <= 6
            else [rng.randrange(1 << len(edges)) for _ in range(200)]
        )
        for gm in graph_masks:
            G = RGraph(n, r, [edges[i] for i in range(len(edges)) if gm >> i & 1])
            m = missing_edge_monomial(p, G)
            for a, b in itertools.combinations(range(1, n + 1), 2):
                star = codegree_star_monomial(p, a, b)
                divides = star & m == star
                assert divides == (G.codegree(a, b) == 0)


# ---------------------------------------------------------------------------
# membership


def test_unit_not_member():
    p = StarParams(4, 3, 3)
    assert not in_star_ideal(0, p)


def test_single_star_not_enough_for_all_ell_sets():
    p = StarParams(4, 3, 3)
    star = codegree_star_monomial(p, 1, 2)
    assert not in_star_ideal(star, p)


def test_balanced_partition_monomial_is_member():
    for n, ell, r in [(4, 3, 3), (5, 3, 3), (4, 4, 3), (5, 4, 3), (5, 3, 2)]:
        p = StarParams(n, ell, r)
        m0 = balanced_partition_monomial(p)
        assert in_star_ideal(m0, p)
        assert m0.bit_count() == comb(n, r) - turan_count(n, ell - 1, r)


def test_vacuous_range_everything_member():
    p = StarParams(3, 4, 3)
    assert in_star_ideal(0, p)


def test_membership_via_missing_edge_law():
    # missing-edge monomial is a member iff the graph has no core-family member
    p = StarParams(5, 3, 3)
    turan = turan_construct(5, 2, 3)  # empty at r=3 > q=2
    assert in_star_ideal(missing_edge_monomial(p, turan), p)
    assert not in_star_ideal(missing_edge_monomial(p, RGraph.complete(5, 3)), p)


# ---------------------------------------------------------------------------
# vertex quotient soundness


def test_vertex_quotient_kill_pairs():
    p = StarParams(4, 3, 3)
    star12 = codegree_star_monomial(p, 1, 2)
    A = vertex_quotient(star12, p)
    assert A.kill == frozenset({frozenset((1, 2))})


def test_vertex_quotient_member_forces_top_vanishing():
    rng = random.Random(41)
    for n, ell, r in [(4, 3, 3), (5, 3, 3), (4, 4, 3), (5, 4, 2)]:
        p = StarParams(n, ell, r)
        nv = comb(n, r)
        hits = 0
        while hits < 10:
            # bias toward dense supports so members appear quickly
            support = rng.randrange(1 << nv) | rng.randrange(1 << nv)
            if not in_star_ideal(support, p):
                continue
            A = vertex_quotient(support, p)
            assert A.top_vanishing(ell - 1)
            hits += 1


def test_vertex_quotient_standard_sets_bound_degree():
    # every r-set whose variable is outside the support is standard, so
    # C(n, r) - deg(m) <= hilbert(r) <= t_r(n, ell-1) for members
    p = StarParams(5, 3, 3)
    rng = random.Random(43)
    nv = comb(5, 3)
    bound = turan_count(5, 2, 3)
    hits = 0
    while hits < 10:
        support = rng.randrange(1 << nv) | rng.randrange(1 << nv)
        if not in_star_ideal(support, p):
            continue
        A = vertex_quotient(support, p)
        free = nv - support.bit_count()
        assert free <= A.hilbert(3) <= bound
        hits += 1


# ---------------------------------------------------------------------------
# collapse to the cover ideal


@pytest.mark.parametrize(
    "n,ell,r",
    [
        (4, 3, 3), (5, 3, 3), (4, 4, 3), (5, 4, 3), (4, 3, 2), (5, 3, 2),
        (6, 3, 2), (6, 4, 2), (6, 5, 2), (6, 3, 4), (7, 3, 2),
    ],
)
def test_collapse(n, ell, r):
    assert verify_collapse(StarParams(n, ell, r))


def test_collapse_scale_guard():
    with pytest.raises(ScaleGuardError):
        verify_collapse(StarParams(7, 3, 3))


def scan_collapse(params: StarParams) -> bool:
    """The per-support loop the truth tables replaced, kept as their oracle:
    one killed-pair set and one RGraph per support."""
    nvars = comb(params.n, params.r)
    fam = enumerate_forbidden_copies(CoreFamily(params.ell, params.r), params.n)
    ranker = params.ranker()
    copy_masks = fam.copies
    pair_list = list(codegree_star._star_masks(params).items())
    ell_sets = [
        list(itertools.combinations(L, 2))
        for L in itertools.combinations(range(1, params.n + 1), params.ell)
    ]
    full = (1 << nvars) - 1
    for support in range(1 << nvars):
        killed = {p for p, s in pair_list if s & support == s}
        in_j = all(any(p in killed for p in pairs) for pairs in ell_sets)
        in_cover = all(support & c for c in copy_masks)
        if in_j != in_cover:
            return False
        G = RGraph(params.n, params.r, ranker.unmask(full ^ support))
        if in_j != core_family_free(G, params.ell):
            return False
    return True


def _small_grid():
    # every non-vacuous point with at most 2^10 supports
    for r in range(2, 6):
        for ell in range(2, 6):
            for n in range(max(ell, r), 6):
                if comb(n, r) <= 10:
                    yield n, ell, r


@pytest.mark.parametrize("n,ell,r", list(_small_grid()))
def test_collapse_tables_match_per_support_predicates(n, ell, r):
    p = StarParams(n, ell, r)
    ranker = p.ranker()
    copy_masks = enumerate_forbidden_copies(CoreFamily(ell, r), n).copies
    full = (1 << ranker.count) - 1
    in_j, in_cover, free = _collapse_tables(p)
    for S in range(1 << ranker.count):
        assert in_j >> S & 1 == in_star_ideal(S, p)
        assert in_cover >> S & 1 == all(S & c for c in copy_masks)
        G = RGraph(n, r, ranker.unmask(full ^ S))
        assert free >> S & 1 == core_family_free(G, ell)
    assert verify_collapse(p) == scan_collapse(p)


def _drop_one_star_variable(monkeypatch):
    original = codegree_star._star_masks

    def broken(params):
        stars = dict(original(params))
        first = next(iter(stars))
        stars[first] &= stars[first] - 1  # drop the lowest variable
        return stars

    monkeypatch.setattr(codegree_star, "_star_masks", broken)


def test_collapse_detects_a_wrong_star_mask(monkeypatch):
    p = StarParams(5, 3, 2)
    _drop_one_star_variable(monkeypatch)
    assert not verify_collapse(p)
    assert not scan_collapse(p)


def test_collapse_detects_wrong_pair_stars_through_the_missing_edge_table(monkeypatch):
    original = hypergraph.pair_stars

    def broken(ranker):
        stars = original(ranker)
        stars[(1, 2)] &= stars[(1, 2)] - 1  # drop the lowest variable
        return stars

    # the star and the cover table both read the wrong stars, and agree
    monkeypatch.setattr(hypergraph, "pair_stars", broken)
    monkeypatch.setattr(codegree_star, "pair_stars", broken)
    p = StarParams(5, 3, 2)
    in_j, in_cover, free = _collapse_tables(p)
    assert in_j == in_cover != free
    assert not verify_collapse(p)


def test_cli_collapse_failure_exits_claim_failed(monkeypatch, capsys):
    _drop_one_star_variable(monkeypatch)
    argv = ["codegree-star", "--n", "5", "--ell", "3", "--r", "2", "--verify-collapse"]
    assert main(argv) == EXIT_CLAIM_FAILED
    assert json.loads(capsys.readouterr().out)["result"]["collapse_ok"] is False


# ---------------------------------------------------------------------------
# initial degree and the extremal number


@pytest.mark.parametrize(
    "n,ell,r,expected",
    [
        (4, 4, 3, 2),
        (5, 3, 3, 10),
        (4, 3, 3, 4),
        (5, 4, 3, 6),
        (6, 4, 3, 12),
        (5, 3, 2, 4),
        (6, 5, 3, 8),
    ],
)
def test_star_initial_degree_values(n, ell, r, expected):
    p = StarParams(n, ell, r)
    degree, witness = star_initial_degree(p)
    assert degree == expected == comb(n, r) - turan_count(n, ell - 1, r)
    assert witness.bit_count() == degree
    assert in_star_ideal(witness, p)


def test_star_initial_degree_vacuous():
    degree, witness = star_initial_degree(StarParams(3, 4, 3))
    assert degree == 0 and witness.bit_count() == 0


def test_star_initial_degree_scale_guard(monkeypatch):
    # the pair-graph search at (7, 4, 3): 35 triangle targets x 35 K4 copies
    # = 1,225 setup steps pass; the search needs 1,802 nodes
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1225)
    with pytest.raises(ScaleGuardError, match="nodes"):
        star_initial_degree(StarParams(7, 4, 3))


def _clique_copies(n, s):
    """The s-cliques of K_n, each as the mask of its C(s, 2) pairs: a
    reference list built without the pattern enumerator."""
    ranker = EdgeRanker(n, 2)
    copies = (
        ranker.mask(itertools.combinations(clique, 2))
        for clique in itertools.combinations(range(1, n + 1), s)
    )
    return CopyFamily(n, 2, tuple(sorted(copies)))


@pytest.mark.parametrize("r", range(2, 5))
@pytest.mark.parametrize("ell", range(2, 7))
def test_pair_reduction_lists_the_reference_cliques(ell, r):
    for n in range(1, 9):
        forbidden, targets = _clique_copies(n, ell), _clique_copies(n, r)
        inst = make_instance(n, RGraph.complete(ell, 2), RGraph.complete(r, 2))
        assert (inst.forbidden, inst.target) == (forbidden, targets)
        # the hand-built families record no span, so this is the single search
        reference = alpha_target(CoverInstance(n, 2, forbidden, targets))
        assert core_pair_alpha(n, ell, r) == reference


@pytest.mark.parametrize("n,ell,r", [(5, 4, 3), (7, 4, 2), (8, 3, 2)])
def test_floors_never_come_from_the_checked_value(monkeypatch, n, ell, r):
    # a wrong Turán count puts the checked value one above the true alpha;
    # a search floored at that value stops on a set of exactly that size, so
    # only floors taken from the chain's own links expose the error
    true_count = turan_count(n, ell - 1, r)
    alpha = comb(n, r) - true_count
    forbidden, targets = _clique_copies(n, ell), _clique_copies(n, r)
    stopped, _ = min_targets_met(forbidden.copies, targets.copies, comb(n, 2), alpha + 1)
    assert stopped == alpha + 1
    monkeypatch.setattr(codegree_star, "turan_count", lambda *args: true_count - 1)
    with pytest.raises(ClaimCheckError, match=f"gives {alpha},"):
        star_initial_degree(StarParams(n, ell, r))


def test_star_initial_degree_clique_cap(monkeypatch):
    # (6, 4, 3) places C(6, 4) = 15 K4 copies of 6 pairs (90 edges) and
    # C(6, 3) = 20 triangles of 3 (60 edges); the listing guard caps the
    # edges placed for each family before either is built
    monkeypatch.setattr(hypergraph, "COPY_CAP", 90)
    assert star_initial_degree(StarParams(6, 4, 3))[0] == comb(6, 3) - turan_count(6, 3, 3)
    monkeypatch.setattr(hypergraph, "COPY_CAP", 89)
    with pytest.raises(ScaleGuardError, match="copy count 15 x 6 edges exceeds cap 89"):
        star_initial_degree(StarParams(6, 4, 3))
    # ex on the core-pair family runs the same pair reduction and guard
    with pytest.raises(ScaleGuardError, match="copy count 15 x 6 edges exceeds cap 89"):
        ex_via_cover(6, CoreFamily(4, 3))


def scan_initial_degree(params: StarParams) -> int:
    """Initial degree by exhaustive scan over supports, the certification
    the pair-graph reduction replaced, kept as its oracle.

    The balanced-partition monomial is a member of degree d.  Membership is
    closed under enlarging the support, so while some support of size d - 1
    is a member, d drops by one; the first size d - 1 with no member leaves
    the initial degree at d."""
    m0 = balanced_partition_monomial(params)
    assert in_star_ideal(m0, params)
    nvars = comb(params.n, params.r)
    pairs = list(itertools.combinations(range(1, params.n + 1), 2))
    stars = [codegree_star_monomial(params, a, b) for a, b in pairs]
    ell_pair_sets = [
        [pairs.index(p) for p in itertools.combinations(L, 2)]
        for L in itertools.combinations(range(1, params.n + 1), params.ell)
    ]

    def member(support: int) -> bool:
        killed = {i for i, s in enumerate(stars) if s & support == s}
        return all(any(i in killed for i in L) for L in ell_pair_sets)

    d = m0.bit_count()
    while d > 0 and any(
        member(sum(1 << b for b in combo))
        for combo in itertools.combinations(range(nvars), d - 1)
    ):
        d -= 1
    return d


def _scan_grid():
    for r in (2, 3, 4):
        for ell in (3, 4, 5):
            for n in range(ell, 7):
                lb = comb(n, r) - turan_count(n, ell - 1, r)
                if lb == 0 or comb(comb(n, r), lb - 1) <= 5 * 10**6:
                    yield n, ell, r


@pytest.mark.parametrize("n,ell,r", list(_scan_grid()))
def test_star_initial_degree_matches_exhaustive_scan(n, ell, r):
    p = StarParams(n, ell, r)
    assert star_initial_degree(p)[0] == scan_initial_degree(p)


@pytest.mark.parametrize("n,ell,r", [(8, 3, 3), (9, 3, 3), (9, 3, 4), (9, 4, 4)])
def test_star_initial_degree_every_rset_forced(n, ell, r):
    # r >= ell: every r-clique contains an ell-clique, so every target is
    # met and t_r(n, ell-1) = 0
    assert star_initial_degree(StarParams(n, ell, r))[0] == comb(n, r)


def test_star_initial_degree_beyond_the_permutation_enumerator():
    # K6 copies through permutations were guarded at n = 9; by vertex sets
    # they are 84, and the copy-count guard refuses K3 at n = 300 instead
    assert len(enumerate_forbidden_copies(builtin_spec("K6"), 9)) == comb(9, 6)
    with pytest.raises(ScaleGuardError):
        enumerate_forbidden_copies(builtin_spec("K3"), 300)
    assert star_initial_degree(StarParams(9, 6, 2))[0] == comb(9, 2) - turan_count(9, 5, 2) == 4


def test_core_family_turan_number_reports():
    assert core_family_turan_number(StarParams(5, 4, 3)) == turan_count(5, 3, 3) == 4


def test_core_family_turan_number_degenerate_case():
    assert core_family_turan_number(StarParams(4, 3, 3)) == 0


def test_core_family_turan_number_checks_the_oracle(monkeypatch):
    monkeypatch.setattr(codegree_star, "brute_force_ex", lambda n, spec: (5, None))
    with pytest.raises(ClaimCheckError, match="brute-force extremal number disagrees"):
        core_family_turan_number(StarParams(5, 4, 3))


def test_params_validation():
    with pytest.raises(InputError):
        StarParams(4, 1, 3)
    with pytest.raises(InputError):
        StarParams(4, 3, 1)
