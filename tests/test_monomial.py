import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turancover import monomial
from turancover.errors import InputError, ScaleGuardError
from turancover.hypergraph import EdgeRanker, builtin_spec, enumerate_forbidden_copies
from turancover.monomial import (
    alexander_dual,
    min_hitting_set,
    min_targets_met,
    minimal_supports,
)


def masks(*bit_lists):
    return [sum(1 << b for b in bits) for bits in bit_lists]


# ---------------------------------------------------------------------------
# membership


def test_cover_membership_triangle():
    copies = enumerate_forbidden_copies(builtin_spec("K3"), 3).copies
    rk = EdgeRanker(3, 2)
    m = rk.mask([frozenset((1, 2))])
    assert all(m & c for c in copies)
    assert not all(0 & c for c in copies)


def test_cover_equals_explicit_dual_form():
    # membership in cover form == divisibility by a dual generator
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 4)
    rk = EdgeRanker(4, 2)
    copies = fam.copies
    dual_gens = alexander_dual(copies)
    for m in range(1 << rk.count):
        assert all(m & c for c in copies) == any(g & m == g for g in dual_gens)


# ---------------------------------------------------------------------------
# Alexander duality


def test_dual_of_single_generator():
    assert sorted(alexander_dual([0b11])) == [0b01, 0b10]


def test_dual_of_two_singletons():
    assert alexander_dual([0b01, 0b10]) == [0b11]


def test_dual_of_triangle_copies_in_k4():
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 4)
    rk = EdgeRanker(4, 2)
    copies = fam.copies
    dual = alexander_dual(copies)
    # brute-force minimal transversals over all 2^6 supports
    members = [
        m for m in range(1 << rk.count) if all(m & c for c in copies)
    ]
    assert sorted(dual) == sorted(minimal_supports(members))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=(1 << 12) - 1), min_size=1, max_size=8
    )
)
def test_dual_is_involutive(gens):
    antichain = minimal_supports(gens)
    double = alexander_dual(alexander_dual(antichain))
    assert sorted(double) == sorted(antichain)


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
    assert sorted(alexander_dual(copies)) == [0b001, 0b110]


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


def test_floor_at_or_below_the_minimum_keeps_value_and_witness():
    for copies, targets, nv in _random_instances(29, 40):
        reference = min_targets_met(copies, targets, nv)
        for floor in range(-2, reference[0] + 1):
            assert min_targets_met(copies, targets, nv, floor) == reference
        reference = min_hitting_set(copies, nv)
        for floor in range(-2, reference[0] + 1):
            assert min_hitting_set(copies, nv, floor) == reference
    # K3 at n = 7: alpha = 21 - 12 = 9
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 7)
    reference = min_hitting_set(fam.copies, 21)
    assert reference[0] == 9
    for floor in range(10):
        assert min_hitting_set(fam.copies, 21, floor) == reference


def test_floor_at_the_minimum_stops_the_search(monkeypatch):
    # K3 at n = 8: 28 variables x 56 copies = 1,568 setup steps; the
    # floor-free search needs 5,114 nodes, and with the floor at
    # alpha = 28 - 16 = 12 it stops within 1,568 on the same witness
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 8)
    reference = min_hitting_set(fam.copies, 28)
    assert reference[0] == 12
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1568)
    assert min_hitting_set(fam.copies, 28, 12) == reference
    with pytest.raises(ScaleGuardError, match="nodes"):
        min_hitting_set(fam.copies, 28, 11)


def test_hitting_set_search_guards(monkeypatch):
    # K3 at n = 8 as the `ex` search sees it: one singleton target per edge
    fam = enumerate_forbidden_copies(builtin_spec("K3"), 8)
    rk = EdgeRanker(8, 2)
    singletons = [1 << v for v in range(rk.count)]
    with pytest.raises(InputError):
        min_targets_met(masks([0, 1], []), singletons, rk.count)
    with pytest.raises(InputError):
        min_hitting_set(masks([0, 1], []), 2)
    # 2000 variables x 2000 disjoint copies: 4M setup steps, refused up front
    with pytest.raises(ScaleGuardError, match="setup steps"):
        min_hitting_set([1 << v for v in range(2000)], 2000)
    # with no targets there is no setup, and the search must go 2000 deep,
    # past the recursion limit
    with pytest.raises(ScaleGuardError, match="recursion limit"):
        min_targets_met([1 << v for v in range(2000)], [], 2000)
    # 28 targets x 56 copies = 1,568 setup steps pass; the search needs
    # 5,114 nodes
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 1568)
    with pytest.raises(ScaleGuardError, match="nodes"):
        min_targets_met(fam.copies, singletons, rk.count)


def _no_search(*args, **kwargs):
    raise AssertionError("the search was called")


def test_hitting_set_setup_guard(monkeypatch):
    copies = masks([0, 1], [1, 2], [2, 3])
    targets = masks([0], [3], [1, 2])
    # 4 variables (or 3 targets) x 3 copies: 12 (or 9) setup steps
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 12)
    assert min_hitting_set(copies, 4)[0] == 2
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 11)
    assert min_targets_met(copies, targets, 4)[0] == 1
    with pytest.raises(ScaleGuardError):
        min_hitting_set(copies, 4)
    monkeypatch.setattr(monomial, "ALPHA_CAP_NODES", 8)
    with pytest.raises(ScaleGuardError):
        min_targets_met(copies, targets, 4)
    # refusals and empty families never reach the singleton targets
    monkeypatch.setattr(monomial, "min_targets_met", _no_search)
    with pytest.raises(ScaleGuardError):
        min_hitting_set(copies, 4)
    assert min_hitting_set([], 5) == (0, 0)


# ---------------------------------------------------------------------------
# initial degree: the minimum hitting set of the copies


def test_initial_degree_explicit():
    # alpha of the cover ideal is the least degree of its dual generators
    copies = masks([0, 1], [0, 2], [3])
    gens = alexander_dual(copies)
    assert min_hitting_set(copies, 4)[0] == min(g.bit_count() for g in gens) == 2


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
