import itertools
import random
from math import comb

import pytest

from turancover.diagonal import (
    DEFAULT_POLY_CAP,
    DiagonalParams,
    DifferenceProduct,
    check_partite_generators,
    counterexample_differences,
    counterexample_polynomial,
    generator_degree_bound,
    in_differentiated_ideal,
    in_identification_ideal,
    missing_triple_differences,
    missing_triple_product,
    random_partite_3graph,
    verify_counterexample,
)
from turancover.errors import InputError, ScaleGuardError
from turancover.hypergraph import RGraph, balanced_partition, turan_count
from turancover.polycore import Polynomial, product, vandermonde


# ---------------------------------------------------------------------------
# missing-triple products


def test_p_empty_on_three_vertices():
    p = missing_triple_product(3, RGraph(3, 3))
    want = (
        Polynomial.difference(1, 2, 3)
        * Polynomial.difference(1, 3, 3)
        * Polynomial.difference(2, 3, 3)
    )
    assert p == want


def test_p_complete_is_one():
    assert missing_triple_product(3, RGraph(3, 3, [(1, 2, 3)])) == Polynomial.one(3)


def test_p_empty_degree_on_four_vertices():
    p = missing_triple_product(4, RGraph(4, 3))
    assert p.degree_info() == (12, True)


def test_degree_law_random_graphs():
    rng = random.Random(2)
    triples = list(itertools.combinations(range(1, 5), 3))
    for _ in range(10):
        chosen = [t for t in triples if rng.random() < 0.5]
        G = RGraph(4, 3, chosen)
        p = missing_triple_product(4, G)
        deg, homog = p.degree_info()
        assert deg == 3 * (comb(4, 3) - len(G))
        assert homog


def test_scale_guard():
    with pytest.raises(ScaleGuardError):
        missing_triple_product(8, RGraph(8, 3))


# ---------------------------------------------------------------------------
# identification ideal


def test_difference_in_ideal_when_all_identified():
    assert in_identification_ideal(Polynomial.difference(1, 2, 3), DiagonalParams(3, 3))


def test_difference_fails_at_larger_n():
    assert not in_identification_ideal(Polynomial.difference(1, 2, 4), DiagonalParams(4, 3))


def test_vacuous_range_everything_in_ideal():
    params = DiagonalParams(2, 3)
    assert in_identification_ideal(Polynomial.one(2), params)
    assert in_identification_ideal(Polynomial(2, {(1, 1): 1}), params)


def test_ideal_property_monotone_under_multiplication():
    rng = random.Random(8)
    params = DiagonalParams(4, 3)
    p = vandermonde(4)
    assert in_identification_ideal(p, params)
    for _ in range(5):
        exps = tuple(rng.randint(0, 2) for _ in range(4))
        q = Polynomial(4, {exps: rng.randint(1, 3)})
        assert in_identification_ideal(p * q, params)


# ---------------------------------------------------------------------------
# differentiated ideal


def test_linear_witness_at_three_three():
    assert in_differentiated_ideal(Polynomial.difference(1, 2, 3), DiagonalParams(3, 3))


def test_full_vandermonde_in_di_4_3():
    assert in_differentiated_ideal(vandermonde(4), DiagonalParams(4, 3))


def test_difference_not_in_di_4_3():
    assert not in_differentiated_ideal(Polynomial.difference(1, 2, 4), DiagonalParams(4, 3))


def in_di_all_sets(p, params):
    """Reference membership test: identify every derivative d^j p / dx_i^j,
    0 <= j <= n-3, on every ell-set."""
    n = params.n
    deg = p.degree()
    for i in range(1, n + 1):
        for j in range(max(n - 3, 0) + 1):
            if deg is not None and j > deg:
                break
            if not in_identification_ideal(p.derivative(i, j), params):
                return False
    return True


def random_difference_product(n, rng):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    factors = [Polynomial.difference(*rng.choice(pairs), n) for _ in range(rng.randint(1, n + 1))]
    return product(factors, n)


def random_missing_triple_product(n, rng):
    # dense graphs keep the product small; most are not (ell-1)-partite
    triples = list(itertools.combinations(range(1, n + 1), 3))
    missing = rng.sample(triples, rng.randint(1, min(len(triples), 4)))
    return missing_triple_product(n, RGraph(n, 3, [t for t in triples if t not in missing]))


def test_restricted_check_matches_all_sets_oracle():
    rng = random.Random(2024)
    seen = {"member": 0, "fails at j = 0": 0, "fails at j >= 1 only": 0}
    for n in range(3, 7):
        for ell in range(3, n + 1):
            params = DiagonalParams(n, ell)
            for draw in (random_difference_product, random_missing_triple_product):
                for _ in range(12 if n < 6 else 4):
                    p = draw(n, rng)
                    want = in_di_all_sets(p, params)
                    assert in_differentiated_ideal(p, params) == want, (n, ell, p)
                    if want:
                        seen["member"] += 1
                    elif not in_identification_ideal(p, params):
                        seen["fails at j = 0"] += 1
                    else:
                        seen["fails at j >= 1 only"] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# the pair-count test against the expanded oracle


def classify(p, params):
    """The expanded oracle's verdict: member, fails at j = 0, or fails at
    some j >= 1 only."""
    if in_differentiated_ideal(p, params):
        return "member"
    if not in_identification_ideal(p, params):
        return "fails at j = 0"
    return "fails at j >= 1 only"


def random_pair_multiset(n, rng):
    pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(1, n + 1))]
    if rng.random() < 0.4:
        pairs += rng.choices(pairs, k=rng.randint(1, 2))  # repeated pairs
    return DifferenceProduct(n, pairs)


def test_pair_count_matches_expanded_oracle():
    rng = random.Random(7)
    seen = {"member": 0, "fails at j = 0": 0, "fails at j >= 1 only": 0}
    for n in range(3, 7):
        for ell in range(3, n + 1):
            params = DiagonalParams(n, ell)
            for _ in range(16 if n < 6 else 6):
                F = random_pair_multiset(n, rng)
                verdict = classify(F.polynomial(), params)
                assert F.in_differentiated_ideal(params) == (verdict == "member"), (n, ell, F.pairs)
                seen[verdict] += 1
    assert all(seen.values()), seen


def missing_triple_graphs():
    """Partite and non-partite 3-graphs on [n], n <= 5: random partite ones
    from the library's sampler, and dense ones missing a few triples."""
    rng = random.Random(31)
    graphs = []
    for n in (3, 4, 5):
        # at n = 5 fewer parts leave more missing triples: the empty graph's
        # product has 7080 terms
        for parts in range(2 if n < 5 else 4, n):
            graphs += [random_partite_3graph(n, parts, rng) for _ in range(3 if n < 5 else 1)]
        triples = list(itertools.combinations(range(1, n + 1), 3))
        for _ in range(6):
            missing = rng.sample(triples, rng.randint(1, min(len(triples), 3)))
            graphs.append(RGraph(n, 3, [t for t in triples if t not in missing]))
    return graphs


def test_pair_count_matches_oracle_on_missing_triple_products():
    seen = {True: 0, False: 0}
    for G in set(missing_triple_graphs()):
        n = G.n
        F = missing_triple_differences(n, G)
        p = missing_triple_product(n, G)
        assert F.degree == p.degree()
        for ell in range(3, n + 1):
            params = DiagonalParams(n, ell)
            want = in_differentiated_ideal(p, params)
            assert F.in_differentiated_ideal(params) == want, (n, ell, G)
            seen[want] += 1
    assert all(seen.values()), seen


def test_pair_count_vacuous_range_and_small_orders():
    F = DifferenceProduct(3, [(1, 2)])
    assert F.in_differentiated_ideal(DiagonalParams(3, 4))  # n < ell
    assert F.in_differentiated_ideal(DiagonalParams(3, 3))  # n = 3: only j = 0
    # (4, 4): one pair inside [4] fails d/dx_1; two disjoint pairs pass
    assert not DifferenceProduct(4, [(1, 2)]).in_differentiated_ideal(DiagonalParams(4, 4))
    assert DifferenceProduct(4, [(1, 2), (3, 4)]).in_differentiated_ideal(DiagonalParams(4, 4))
    # two pairs through vertex 1 exceed the order cap n - 3 = 1
    assert DifferenceProduct(4, [(1, 2), (3, 1)]).in_differentiated_ideal(DiagonalParams(4, 4))


def test_difference_product_rejects_bad_pairs():
    for pairs in ([(1, 1)], [(0, 2)], [(1, 4)]):
        with pytest.raises(InputError):
            DifferenceProduct(3, pairs)
    with pytest.raises(InputError):
        DifferenceProduct(3, [(1, 2)]).in_differentiated_ideal(DiagonalParams(4, 3))


def test_empty_product_is_not_a_member():
    assert not DifferenceProduct(4, []).in_differentiated_ideal(DiagonalParams(4, 3))
    assert not in_differentiated_ideal(Polynomial.one(4), DiagonalParams(4, 3))


@pytest.mark.parametrize("ell", [3, 4, 6])
def test_witness_at_n_20(ell):
    rep = verify_counterexample(DiagonalParams(20, ell))
    assert rep["verdict"] == "counterexample confirmed"
    assert rep["F_degree"] == counterexample_differences(DiagonalParams(20, ell)).degree
    assert rep["F_degree"] < rep["D"] == generator_degree_bound(DiagonalParams(20, ell))


def test_work_guard():
    # C(37, 3) * (3 + C(37, 2)) = 5,197,830 steps, over the 5,000,000 cap
    with pytest.raises(ScaleGuardError):
        verify_counterexample(DiagonalParams(37, 3))
    # C(21, 3) * (3 + 3 * C(21, 3)) steps for the empty graph's product
    with pytest.raises(ScaleGuardError):
        check_partite_generators(21, 3, 1, 0)
    with pytest.raises(ScaleGuardError):
        DifferenceProduct(8, [(1, 2)] * 10**5).in_differentiated_ideal(DiagonalParams(8, 4))
    # refused before any binomial of the huge arguments is formed
    with pytest.raises(ScaleGuardError):
        verify_counterexample(DiagonalParams(10**6, 5 * 10**5))
    with pytest.raises(ScaleGuardError):
        check_partite_generators(10**6, 3, 1)
    # n = ell: a single ell-set, read through its empty complement
    assert verify_counterexample(DiagonalParams(10**9, 10**9))["in_DI"]


def test_polynomial_cap_on_the_oracle_path():
    with pytest.raises(ScaleGuardError):
        counterexample_polynomial(DiagonalParams(8, 3))
    assert verify_counterexample(DiagonalParams(8, 3))["verdict"] == "counterexample confirmed"


def test_expanded_oracle_agrees_on_every_witness_under_the_cap():
    for n in range(3, DEFAULT_POLY_CAP + 1):
        for ell in range(3, n + 1):
            params = DiagonalParams(n, ell)
            F = counterexample_polynomial(params)
            report = verify_counterexample(params)
            assert in_differentiated_ideal(F, params) == report["in_DI"], (n, ell)
            assert F.degree() == report["F_degree"], (n, ell)


# ---------------------------------------------------------------------------
# witness polynomial and degree bound


def test_witness_cases():
    assert counterexample_polynomial(DiagonalParams(3, 3)) == Polynomial.difference(1, 2, 3)
    assert counterexample_polynomial(DiagonalParams(4, 3)).degree() == comb(4, 2)
    F44 = counterexample_polynomial(DiagonalParams(4, 4))
    assert F44 == Polynomial.difference(1, 2, 4) * Polynomial.difference(3, 4, 4)


def test_witness_pigeonhole_structure():
    # for ell >= 4 every ell-subset has two indices in the same stored part
    from turancover.hypergraph import balanced_partition

    for ell, n in [(4, 5), (5, 6), (4, 6)]:
        parts = balanced_partition(n, ell - 2)
        part_of = {v: i for i, P in enumerate(parts) for v in P}
        for S in itertools.combinations(range(1, n + 1), ell):
            assert len({part_of[v] for v in S}) < len(S)


def test_witness_pairs_are_within_part_pairs():
    for ell in range(4, 9):
        for n in range(ell, 14):
            parts = balanced_partition(n, ell - 2)
            want = [pair for part in parts for pair in itertools.combinations(part, 2)]
            assert list(counterexample_differences(DiagonalParams(n, ell)).pairs) == want
    for n in range(4, 7):
        F = counterexample_differences(DiagonalParams(n, 3))
        assert F.pairs == tuple(itertools.combinations(range(1, n + 1), 2))
        assert F.polynomial() == vandermonde(n)


@pytest.mark.parametrize(
    "ell,n,expected",
    [(3, 4, 12), (3, 3, 3), (4, 4, 6), (4, 5, 18)],
)
def test_generator_degree_bound(ell, n, expected):
    assert generator_degree_bound(DiagonalParams(n, ell)) == expected


def test_degree_bound_uses_turan_count():
    for ell in (3, 4, 5):
        for n in range(ell, 7):
            want = 3 * (comb(n, 3) - turan_count(n, ell - 1, 3))
            assert generator_degree_bound(DiagonalParams(n, ell)) == want


# ---------------------------------------------------------------------------
# the verification itself


def test_verify_3_3():
    rep = verify_counterexample(DiagonalParams(3, 3))
    assert rep["F_degree"] == 1 and rep["D"] == 3
    assert rep["verdict"] == "counterexample confirmed"


def test_verify_3_4():
    rep = verify_counterexample(DiagonalParams(4, 3))
    assert rep["F_degree"] == 6 and rep["D"] == 12
    assert rep["verdict"] == "counterexample confirmed"


def test_verify_5_4():
    rep = verify_counterexample(DiagonalParams(5, 4))
    assert rep["F_degree"] == comb(3, 2) + comb(2, 2)
    assert rep["D"] == 3 * (comb(5, 3) - turan_count(5, 3, 3))
    assert rep["F_degree"] < rep["D"]
    assert rep["verdict"] == "counterexample confirmed"


def test_verify_rejects_vacuous_range():
    with pytest.raises(InputError):
        verify_counterexample(DiagonalParams(3, 4))


# ---------------------------------------------------------------------------
# partite generators lemma


def test_partite_edgeless_graph_in_di():
    G = RGraph(4, 3)  # any 2-partite 3-graph is edgeless
    p = missing_triple_product(4, G)
    assert p.degree() == 12
    assert in_differentiated_ideal(p, DiagonalParams(4, 3))


def test_partite_transversal_triples_in_di():
    # all transversal triples of parts {1,2},{3},{4}
    G = RGraph(4, 3, [(1, 3, 4), (2, 3, 4)])
    p = missing_triple_product(4, G)
    assert in_differentiated_ideal(p, DiagonalParams(4, 4))


def test_random_partite_sampler_is_partite():
    rng = random.Random(4)
    for _ in range(10):
        G = random_partite_3graph(5, 2, rng)
        assert len(G) == 0  # 2-partite 3-graphs have no transversal triples


def test_check_partite_generators_small():
    assert check_partite_generators(4, 3, 5, seed=1)
    assert check_partite_generators(4, 4, 5, seed=1)
