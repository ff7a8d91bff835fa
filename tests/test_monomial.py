import random
import time
from math import comb

import pytest

from turancover import monomial
from turancover.dictionary import make_instance
from turancover.errors import InputError, ScaleGuardError
from turancover.hypergraph import EdgeRanker, builtin_spec, edge_mask, enumerate_forbidden_copies
from turancover.monomial import min_hitting_set, minimal_supports, setup_search


def masks(*bit_lists):
    return [sum(1 << b for b in bits) for bits in bit_lists]


# ---------------------------------------------------------------------------
# membership


def test_cover_membership_triangle():
    copies = enumerate_forbidden_copies(builtin_spec("K3"), 3).copies
    m = edge_mask([frozenset((1, 2))])
    assert all(m & c for c in copies)
    assert not all(0 & c for c in copies)


# ---------------------------------------------------------------------------
# intersections


def test_intersect_coprime_variables():
    # (y_a) ∩ (y_b)
    copies = [0b01, 0b10]
    assert all(0b11 & c for c in copies)
    assert not all(0b01 & c for c in copies)


def test_intersect_two_variable_ideals():
    # (y_a, y_b) ∩ (y_a, y_c)
    copies = [0b011, 0b101]
    assert all(0b001 & c for c in copies)  # y_a
    assert all(0b110 & c for c in copies)  # y_b*y_c
    assert not all(0b010 & c for c in copies)  # y_b alone


# ---------------------------------------------------------------------------
# hitting sets


def test_min_hitting_set_path():
    size, witness = min_hitting_set(masks([0, 1], [1, 2], [2, 3]), 4)
    assert size == 2
    assert all(witness & c for c in masks([0, 1], [1, 2], [2, 3]))


def test_min_hitting_set_common_element():
    size, witness = min_hitting_set(masks([0, 1], [0, 2]), 3)
    assert size == 1 and witness == 0b001


def test_min_hitting_set_empty_family():
    assert min_hitting_set([], 5) == (0, 0)


def test_min_hitting_set_exhaustive_reference():
    rng = random.Random(13)
    for _ in range(30):
        nv = rng.randint(3, 8)
        copies = [
            sum(1 << b for b in rng.sample(range(nv), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        size, witness = min_hitting_set(copies, nv)
        best = min(
            m.bit_count() for m in range(1 << nv) if all(m & c for c in copies)
        )
        assert size == best
        assert all(witness & c for c in copies)
        assert witness.bit_count() == size


def test_min_hitting_set_permutation_invariant_size():
    copies = masks([0, 1, 2], [2, 3], [0, 4])
    size, _ = min_hitting_set(copies, 5)
    perm = [3, 0, 4, 1, 2]
    permuted = [
        sum(1 << perm[b] for b in range(5) if c >> b & 1) for c in copies
    ]
    psize, _ = min_hitting_set(permuted, 5)
    assert size == psize


def test_min_hitting_set_witness_lexicographically_smallest():
    copies = masks([0, 1], [1, 2], [2, 3])
    size, witness = min_hitting_set(copies, 4)
    candidates = [
        m
        for m in range(1 << 4)
        if m.bit_count() == size and all(m & c for c in copies)
    ]
    assert witness == min(candidates)


def _random_instances(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(3, 8)
        copies = [
            sum(1 << b for b in rng.sample(range(nv), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 6))
        ]
        targets = [
            sum(1 << b for b in rng.sample(range(nv), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 6))
        ]
        yield copies, targets, nv


def _singletons(nvars):
    return [1 << v for v in range(nvars)]


def test_floor_at_or_below_the_minimum_keeps_value_and_witness():
    for copies, targets, nv in _random_instances(29, 40):
        reference = setup_search(copies, targets, nv)(nv, 0, len(targets))[:2]
        for floor in range(-2, reference[0] + 1):
            assert setup_search(copies, targets, nv)(nv, floor, len(targets))[:2] == reference
        reference = min_hitting_set(copies, nv)
        for floor in range(-2, reference[0] + 1):
            assert setup_search(copies, _singletons(nv), nv)(nv, floor, nv)[:2] == reference
    # K3 at n = 7: alpha = 21 - 12 = 9
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 7)
    reference = min_hitting_set(fam.copies, 21)
    assert reference[0] == 9
    for floor in range(10):
        assert setup_search(fam.copies, _singletons(21), 21)(21, floor, 21)[:2] == reference


def test_variables_as_targets_search_as_their_singleton_list():
    # targets None, the variables themselves, against the same search on
    # the explicit list of nvars singletons, which builds a target table:
    # random families, half of them with one-variable copies (forced
    # targets), give the same answer after the same nodes at every cut and
    # every floor from -2 to the minimum
    rng = random.Random(39)
    for i in range(60):
        nv = rng.randint(3, 12)
        copies = [
            sum(1 << v for v in rng.sample(range(nv), rng.randint(2, min(4, nv))))
            for _ in range(rng.randint(1, 10))
        ]
        if i % 2:
            copies += [1 << v for v in rng.sample(range(nv), rng.randint(1, 2))]
        unit, listed = setup_search(copies, None, nv), setup_search(copies, _singletons(nv), nv)
        for cut in range(1, nv + 1):
            minimum = listed(cut, 0, cut)[0]
            for floor in range(-2, minimum + 1):
                assert unit(cut, floor, cut) == listed(cut, floor, cut), (i, cut, floor)


def test_long_pivot_is_walked_in_the_peel_order():
    # six copies of 33 to 40 variables in overlapping windows, every
    # variable a target: long pivots, peeled one variable at a time by the
    # one branch loop, must give the answers and expand the nodes recorded
    # when pivots past 32 variables were listed in one pass instead
    rng = random.Random(11)
    nvars = 160
    found = []
    for _ in range(8):
        copies = [
            sum(1 << v for v in rng.sample(range(20 * i, 20 * i + 45), rng.randint(33, 40)))
            for i in range(6)
        ]
        targets = [1 << v for v in range(nvars)]
        targets += [sum(1 << v for v in rng.sample(range(nvars), 2)) for _ in range(40)]
        found.append(setup_search(copies, targets, nvars)(nvars, 0, len(targets)))
    assert found == [
        (size, sum(1 << v for v in witness), nodes)
        for size, witness, nodes in [
            (2, (40, 101), 111), (3, (0, 63, 101), 526), (2, (40, 100), 271), (2, (41, 100), 776),
            (2, (43, 103), 292), (2, (41, 101), 239), (3, (20, 80, 100), 340), (2, (40, 100), 921),
        ]
    ]


def test_floored_searches_expand_the_recorded_nodes():
    # random instances of 16 variables, every variable a target, and gen-ex
    # K3/K4 at n = 7 under the orbit cut, each floored below its minimum, at
    # it and above it: every node stops once the incumbent is down to the
    # larger of its own count and the floor, so each search gives the
    # recorded answer after the recorded number of nodes
    rng = random.Random(5)
    searches = []
    for _ in range(3):
        copies = [sum(1 << v for v in rng.sample(range(16), rng.randint(2, 4))) for _ in range(14)]
        targets = _singletons(16) + [sum(1 << v for v in rng.sample(range(16), 2)) for _ in range(8)]
        searches.append((setup_search(copies, targets, 16), 16, len(targets)))
    inst = make_instance(7, builtin_spec("K4"), builtin_spec("K3"))
    searches.append((setup_search(inst.forbidden.copies, inst.target.copies, 21, 2), 21, len(inst.target)))
    floors = [(8, 10, 12), (4, 6, 8), (5, 7, 9), (20, 23, 24)]
    found = [
        search(cut, floor, ntargets)
        for (search, cut, ntargets), row in zip(searches, floors)
        for floor in row
    ]
    assert found == [
        (size, sum(1 << v for v in witness), nodes)
        for size, witness, nodes in [
            (10, (0, 1, 5, 6, 9), 67), (10, (0, 1, 5, 6, 9), 64), (12, (1, 2, 3, 4, 5, 7, 12), 26),
            (6, (1, 3, 6, 14, 15), 22), (6, (1, 3, 6, 14, 15), 22), (8, (0, 5, 7, 11), 9),
            (7, (0, 4, 5, 9, 12), 14), (7, (0, 4, 5, 9, 12), 9), (8, (2, 4, 5, 12), 5),
            (23, (0, 1, 2, 9, 20), 162), (23, (0, 1, 2, 9, 20), 72), (23, (0, 1, 2, 9, 20), 72),
        ]
    ]


def _planted_instances():
    # ten hand-built instances with forced targets planted: a copy's mask,
    # some with up to two more variables; the last three have no other
    # target, so all of their targets are forced
    rng = random.Random(35)
    for i in range(10):
        nv = rng.randint(12, 16)
        copies = [sum(1 << v for v in rng.sample(range(nv), rng.randint(2, 4))) for _ in range(rng.randint(8, 14))]
        forced = [
            rng.choice(copies) | sum(1 << v for v in rng.sample(range(nv), rng.randint(0, 2)))
            for _ in range(rng.randint(1, 4))
        ]
        free = [] if i >= 7 else [
            sum(1 << v for v in rng.sample(range(nv), rng.randint(1, 3))) for _ in range(rng.randint(8, 16))
        ]
        yield copies, free + forced, nv


def test_forced_targets_keep_the_recorded_answers_and_nodes():
    # each planted instance at floors 0, 2 and 5: forced targets are met at
    # the root, so every count, cut and stop is the one recorded when they
    # were counted apart from a search over the other targets
    found = [
        setup_search(copies, targets, nv)(nv, floor, len(targets))
        for copies, targets, nv in _planted_instances()
        for floor in (0, 2, 5)
    ]
    assert found == [
        (size, sum(1 << v for v in witness), nodes)
        for size, witness, nodes in [
            (5, (0, 6, 10, 11), 35), (5, (0, 6, 10, 11), 35), (5, (0, 6, 10, 11), 27),
            (7, (0, 1, 5, 6, 13, 15), 21), (7, (0, 1, 5, 6, 13, 15), 21), (7, (0, 1, 5, 6, 13, 15), 21),
            (6, (4, 7, 8, 11), 15), (6, (4, 7, 8, 11), 15), (6, (4, 7, 8, 11), 15),
            (3, (0, 4, 8, 10, 11, 13), 24), (3, (0, 4, 8, 10, 11, 13), 24), (5, (0, 3, 5, 10, 11, 13), 14),
            (7, (2, 4, 7, 12), 20), (7, (2, 4, 7, 12), 20), (7, (2, 4, 7, 12), 20),
            (7, (1, 2, 4, 5, 9), 15), (7, (1, 2, 4, 5, 9), 15), (7, (1, 2, 4, 5, 9), 15),
            (5, (0, 4, 10), 7), (5, (0, 4, 10), 7), (5, (0, 4, 10), 7),
            (3, (0, 1, 2, 3, 7), 6), (3, (0, 1, 2, 3, 7), 6), (3, (0, 1, 2, 3, 7), 6),
            (3, (0, 1, 2, 4, 7), 6), (3, (0, 1, 2, 4, 7), 6), (3, (0, 1, 2, 4, 7), 6),
            (4, (0, 2, 3, 5, 8), 6), (4, (0, 2, 3, 5, 8), 6), (4, (0, 2, 3, 5, 8), 6),
        ]
    ]


def test_all_forced_search_stops_at_its_first_leaf():
    # the triangles of K8 as both copies and targets: every target is
    # forced, so the first leaf meets all 56 and cuts every later branch.
    # Counted like the other targets, they would make the search
    # exponential in n
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 8)
    start = time.perf_counter()
    found = setup_search(fam.copies, fam.copies, 28)(28, 0, len(fam))
    assert time.perf_counter() - start < 0.1
    assert found == (56, (1 << 21) - 1, 22)


def test_long_pivot_bans_the_variables_before_each_branch():
    # A = vars 0..39, B = vars 20..59: the first single hitting variable in
    # branching order is 20, after two-variable sets through 0..19
    assert min_hitting_set(masks(range(40), range(20, 60)), 60) == (1, 1 << 20)
    # three disjoint blocks of 40: the lowest variable of each
    blocks = masks(range(0, 40), range(40, 80), range(80, 120))
    assert min_hitting_set(blocks, 120) == (3, 1 | 1 << 40 | 1 << 80)


def test_floor_at_the_minimum_stops_the_search(monkeypatch):
    # K3 at n = 8: 28 variables x 56 copies = 1,568 setup steps; the
    # floor-free search needs 5,114 nodes, as does one floored below
    # alpha = 28 - 16 = 12, and with the floor at 12 it stops after 350
    # on the same witness
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 8)
    reference = min_hitting_set(fam.copies, 28)
    assert reference[0] == 12
    search = setup_search(fam.copies, _singletons(28), 28)
    assert search(28, 0, 28) == search(28, 11, 28) == (*reference, 5114)
    # the cap is checked at the counted node: a budget of the 350 nodes
    # answers, and one node less refuses
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 350)
    assert search(28, 12, 28) == (*reference, 350)
    with pytest.raises(ScaleGuardError, match="exceeds 350 nodes"):
        search(28, 11, 28)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 349)
    with pytest.raises(ScaleGuardError, match="exceeds 349 nodes"):
        search(28, 12, 28)


def test_hitting_set_search_guards(monkeypatch):
    # K3 at n = 8 with one singleton target per edge, listed by hand
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 8)
    rk = EdgeRanker(8, 2)
    singletons = [1 << v for v in range(rk.count)]
    with pytest.raises(InputError):
        setup_search(masks([0, 1], []), singletons, rk.count)(rk.count, 0, rk.count)
    with pytest.raises(InputError):
        min_hitting_set(masks([0, 1], []), 2)
    # 2000 variables x 2000 disjoint copies: 4M setup steps, refused up front
    with pytest.raises(ScaleGuardError, match="setup steps"):
        min_hitting_set([1 << v for v in range(2000)], 2000)
    # with no targets there is no setup, and the search must go 2000 deep,
    # past the recursion limit
    with pytest.raises(ScaleGuardError, match="recursion limit"):
        setup_search([1 << v for v in range(2000)], [], 2000)(2000, 0, 0)
    # 28 targets x 56 copies = 1,568 setup steps pass; the search needs
    # 5,114 nodes
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1568)
    with pytest.raises(ScaleGuardError, match="nodes"):
        setup_search(fam.copies, singletons, rk.count)(rk.count, 0, rk.count)


def _no_table(*args, **kwargs):
    raise AssertionError("an index table was built")


def test_hitting_set_setup_guard(monkeypatch):
    copies = masks([0, 1], [1, 2], [2, 3])
    targets = masks([0], [3], [1, 2])
    # 4 variables (or 3 targets) x 3 copies: 12 (or 9) setup steps
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 12)
    assert min_hitting_set(copies, 4)[0] == 2
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 11)
    assert setup_search(copies, targets, 4)(4, 0, 3)[0] == 1
    with pytest.raises(ScaleGuardError):
        min_hitting_set(copies, 4)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 8)
    with pytest.raises(ScaleGuardError):
        setup_search(copies, targets, 4)(4, 0, 3)
    # a refusal builds no index table, and an empty family needs none
    monkeypatch.setattr(monomial, "_index_sets", _no_table)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 11)
    with pytest.raises(ScaleGuardError, match="12 setup steps exceed 11"):
        min_hitting_set(copies, 4)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 8)
    with pytest.raises(ScaleGuardError, match="9 setup steps exceed 8"):
        setup_search(copies, targets, 4)
    assert min_hitting_set([], 5) == (0, 0)


# ---------------------------------------------------------------------------
# initial degree: the minimum hitting set of the copies


def test_initial_degree_explicit():
    # alpha of the cover ideal is the least degree of its members
    copies = masks([0, 1], [0, 2], [3])
    members = [m for m in range(1 << 4) if all(m & c for c in copies)]
    assert min_hitting_set(copies, 4)[0] == min(m.bit_count() for m in members) == 2


def test_initial_degree_whole_ring():
    # no copies to meet: the monomial 1 is a member
    assert min_hitting_set([], 1) == (0, 0)


def test_initial_degree_zero_ideal_rejected():
    # an empty copy is met by no support, so no monomial is a member and
    # there is no degree to return
    with pytest.raises(InputError):
        min_hitting_set([0], 1)


def test_initial_degree_cover_triangles_in_k4():
    copies = enumerate_forbidden_copies(builtin_spec("K3"), 4).copies
    assert min_hitting_set(copies, comb(4, 2))[0] == comb(4, 2) - 4 == 2


def test_minimal_supports_antichain():
    assert minimal_supports([0b111, 0b011, 0b110, 0b011]) == [0b011, 0b110]
