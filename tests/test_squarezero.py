import itertools
import json
import math
import random
import time
import tracemalloc
from math import comb

import pytest

from turancover import squarezero
from turancover.cli import EXIT_BAD_INPUT, EXIT_CLAIM_FAILED, main
from turancover.errors import ClaimCheckError, InputError, ScaleGuardError
from turancover.hypergraph import RGraph, brute_force_gen_ex, turan_count
from turancover.squarezero import (
    SquareZeroQuotient,
    elem_sym,
    smoothing_step,
    symmetrize,
    terminal_class_sizes,
)


def zero_pairs(A):
    """The pairs (C, D) of parallel classes of A, C before D, whose cross
    products all vanish, read from their first variables."""
    return [(C, D) for C, D in itertools.combinations(A.parallel_classes(), 2) if A.killed(C[0], D[0])]


def random_quotient(rng, n):
    pairs = [
        p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4
    ]
    return SquareZeroQuotient(n, pairs)


# ---------------------------------------------------------------------------
# Hilbert values


def test_hilbert_balanced_partition_is_turan_count():
    A = SquareZeroQuotient.from_partition(4, 2)
    assert A.hilbert(2) == turan_count(4, 2, 2) == 4


def test_partition_quotient_refuses_no_parts():
    with pytest.raises(InputError, match="bad partition parameters"):
        SquareZeroQuotient.from_partition(5, 0)


def test_hilbert_free_algebra_binomials():
    A = SquareZeroQuotient(5)
    for d in range(7):
        assert A.hilbert(d) == comb(5, d)


def test_hilbert_single_kill_pair():
    A = SquareZeroQuotient(3, [(1, 2)])
    assert A.hilbert(2) == 2


def test_hilbert_base_cases():
    A = SquareZeroQuotient(6, [(1, 2)])
    assert A.hilbert(0) == 1
    assert A.hilbert(1) == 6


def test_hilbert_exhaustive_reference():
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 7)
        A = random_quotient(rng, n)
        for d in range(n + 1):
            ref = sum(
                1
                for S in itertools.combinations(range(1, n + 1), d)
                if not any(A.killed(a, b) for a, b in itertools.combinations(S, 2))
            )
            assert A.hilbert(d) == ref


def test_hilbert_with_isolated_vertices_matches_brute_force():
    # random kill graphs on at most five vertices of [n], the rest with no
    # kill partner: the scans visit only the partnered vertices, and the
    # count of every degree, of the quotient and of one lambda, is the
    # brute-force count
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(4, 11)
        busy = sorted(rng.sample(range(1, n + 1), rng.randint(2, 5)))
        A = SquareZeroQuotient(n, [p for p in itertools.combinations(busy, 2) if rng.random() < 0.5])
        c = rng.randint(1, n)
        for d in range(n + 1):
            standard = [
                S for S in itertools.combinations(range(1, n + 1), d)
                if not any(A.killed(a, b) for a, b in itertools.combinations(S, 2))
            ]
            assert A.hilbert(d) == len(standard)
            lam = sum(all(v != c and not A.killed(c, v) for v in S) for S in standard)
            assert A.lambda_dim(c, d) == lam, (n, c, d)


# ---------------------------------------------------------------------------
# top vanishing


def test_top_vanishing_partition_structure():
    for n, q in [(5, 2), (6, 3), (7, 3)]:
        A = SquareZeroQuotient.from_partition(n, q)
        assert A.top_vanishing(q)
        assert not A.top_vanishing(q - 1)


def test_top_vanishing_free_algebra():
    # all squarefree monomials survive, so only degree n+1 vanishes
    A = SquareZeroQuotient(4)
    assert A.top_vanishing(4)
    assert not A.top_vanishing(3)


def test_top_vanishing_complete_kill():
    A = SquareZeroQuotient(4, itertools.combinations(range(1, 5), 2))
    assert A.top_vanishing(1)


def test_top_vanishing_iff_no_large_standard_subset():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 6)
        A = random_quotient(rng, n)
        for q in range(n + 1):
            independent = any(
                not any(A.killed(a, b) for a, b in itertools.combinations(S, 2))
                for S in itertools.combinations(range(1, n + 1), q + 1)
            )
            assert A.top_vanishing(q) == (not independent)


# ---------------------------------------------------------------------------
# parallel classes and lambda


def test_parallel_classes_examples():
    assert SquareZeroQuotient(3, [(1, 2)]).parallel_classes() == ((1, 2), (3,))
    assert SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)]).parallel_classes() == (
        (1,),
        (2,),
        (3,),
        (4,),
    )
    full = SquareZeroQuotient(4, itertools.combinations(range(1, 5), 2))
    assert full.parallel_classes() == ((1, 2, 3, 4),)


def test_lambda_examples():
    A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
    assert A.lambda_dim(1, 1) == 1
    free = SquareZeroQuotient(5)
    for d in range(5):
        assert free.lambda_dim(2, d) == comb(4, d)
    star = SquareZeroQuotient(4, [(1, 2), (1, 3), (1, 4)])
    assert star.lambda_dim(1, 1) == 0


def test_lambda_constant_on_classes():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(2, 7)
        A = random_quotient(rng, n)
        for cls in A.parallel_classes():
            for d in range(n):
                vals = {A.lambda_dim(c, d) for c in cls}
                assert len(vals) == 1


# ---------------------------------------------------------------------------
# cloning


def test_clone_worked_example():
    A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
    B = A.clone((1,), (3,))
    assert B.kill == frozenset(
        {frozenset((1, 2)), frozenset((1, 3)), frozenset((2, 3))}
    )
    assert B.hilbert(2) == 3


def test_clone_merges_classes():
    A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
    B = A.clone((1,), (3,))
    # 2 was already killed with both 1 and 3, so it joins the merged class
    assert (1, 2, 3) in B.parallel_classes()


def test_clone_requires_zero_products():
    A = SquareZeroQuotient(3)
    with pytest.raises(InputError):
        A.clone((1,), (2,))


def test_quotient_is_a_frozen_value_of_its_kill_graph():
    """A quotient is its (n, kill graph): the checked constructor and the
    trusted one (`clone`, `_from_adj`) make equal values that hash alike,
    and it cannot be changed."""
    A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
    B = A.clone((1,), (3,))
    fresh = SquareZeroQuotient(4, B.kill)
    built = (fresh, SquareZeroQuotient._from_adj(4, B._adj), SquareZeroQuotient(4, reversed(B._pairs())))
    for Q in built:
        assert Q == B and B == Q and hash(Q) == hash(B)
    assert A != B and SquareZeroQuotient(3) != SquareZeroQuotient(4)
    assert len({B, *built}) == 1
    for Q in (A, B, *built):
        assert Q != Q.kill and Q != (Q.n, Q._adj) and Q != None  # noqa: E711
        for attr in ("n", "_adj"):
            with pytest.raises(AttributeError):
                setattr(Q, attr, getattr(Q, attr))
            with pytest.raises(AttributeError):
                delattr(Q, attr)


def test_clone_dimension_ledger():
    rng = random.Random(55)
    checked = 0
    while checked < 50:
        n = rng.randint(3, 8)
        A = random_quotient(rng, n)
        candidates = zero_pairs(A)
        if not candidates:
            continue
        U, V = candidates[rng.randrange(len(candidates))]
        r = rng.randint(1, n)
        B = A.clone(U, V)  # V becomes clones of U
        lhs = B.hilbert(r) - A.hilbert(r)
        rhs = len(V) * (A.lambda_dim(U[0], r - 1) - A.lambda_dim(V[0], r - 1))
        assert lhs == rhs
        checked += 1


def test_clone_preserves_top_vanishing():
    rng = random.Random(66)
    checked = 0
    while checked < 30:
        n = rng.randint(3, 7)
        A = random_quotient(rng, n)
        candidates = zero_pairs(A)
        if not candidates:
            continue
        # smallest q with vanishing top piece
        q = max(d for d in range(n + 1) if A.hilbert(d) > 0)
        U, V = candidates[0]
        B = A.clone(U, V)
        assert B.top_vanishing(q)
        checked += 1


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_already_partition_structured():
    A = SquareZeroQuotient.from_partition(6, 3)
    term, trace, sizes = symmetrize(A, 3, 3)
    assert term == A and trace == [] and sizes == [2, 2, 2]


def test_symmetrize_worked_example():
    A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
    term, trace, sizes = symmetrize(A, 2, 2)
    assert len(trace) <= 3
    assert sizes == terminal_class_sizes(term)
    assert len(sizes) <= 2
    assert term.hilbert(2) >= 3
    assert term.hilbert(2) == elem_sym(sizes, 2)


@pytest.mark.parametrize("q,kill", [(3, [(1, 2)]), (2, [(1, 2), (3, 4), (1, 3)])], ids=["no-step", "steps"])
def test_symmetrize_refuses_r_below_one_before_any_count(monkeypatch, capsys, q, kill):
    # the first graph takes no clone step and the second does: both are
    # refused on r, before a Hilbert or lambda count reads it as a degree
    def no_count(*args):
        raise AssertionError("counted")

    A = SquareZeroQuotient(4, kill)
    with monkeypatch.context() as m:
        for name in ("top_vanishing", "hilbert", "lambda_dim"):
            m.setattr(SquareZeroQuotient, name, no_count)
        for r in (0, -1):
            with pytest.raises(InputError, match=f"^need r >= 1, got r={r}$"):
                symmetrize(A, q, r)
    argv = ["symmetrize", "--n", "4", "--q", str(q), "--r", "0", "--kill", *(f"{a},{b}" for a, b in kill)]
    assert main(argv) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "bad input", "message": "need r >= 1, got r=0"}


def test_symmetrize_properties_random():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 8)
        A = random_quotient(rng, n)
        q = max(d for d in range(n + 1) if A.hilbert(d) > 0)
        r = rng.randint(2, max(2, q))
        term, trace, sizes = symmetrize(A, q, r)
        assert len(trace) < n
        assert term.top_vanishing(q)
        assert term.hilbert(r) >= A.hilbert(r)
        assert sizes == terminal_class_sizes(term)
        assert len(sizes) <= q
        assert term.hilbert(r) == elem_sym(sizes, r)
        assert term.hilbert(r) <= turan_count(n, q, r)
        # terminal kill graph is exactly the within-class pairs
        want = {
            frozenset(p)
            for cls in term.parallel_classes()
            for p in itertools.combinations(cls, 2)
        }
        assert term.kill == frozenset(want)


# ---------------------------------------------------------------------------
# elementary symmetric values and smoothing


def test_elem_sym_values():
    assert elem_sym((2, 2), 2) == 4
    assert elem_sym((2, 2, 2), 3) == 8
    assert elem_sym((5, 1, 7), 0) == 1
    assert elem_sym((1, 2), 3) == 0
    assert elem_sym((), 0) == 1


def test_elem_sym_matches_expansion():
    rng = random.Random(88)
    for _ in range(30):
        vals = [rng.randint(0, 6) for _ in range(rng.randint(1, 6))]
        for r in range(len(vals) + 2):
            ref = sum(math.prod(S) for S in itertools.combinations(vals, r))
            assert elem_sym(vals, r) == ref


def test_smoothing_step_examples():
    assert smoothing_step((3, 1), 2) == ((2, 2), 1)
    assert smoothing_step((2, 2), 2) == ((2, 2), 0)
    new, delta = smoothing_step((4, 1, 1), 3)
    assert sorted(new, reverse=True) == [3, 2, 1]
    assert delta == (4 - 1 - 1) * elem_sym((1,), 1)
    assert elem_sym(new, 3) - elem_sym((4, 1, 1), 3) == delta


def test_smoothing_reaches_balanced_tuple():
    rng = random.Random(99)
    for _ in range(50):
        length = rng.randint(1, 6)
        tup = tuple(rng.randint(1, 8) for _ in range(length))
        r = rng.randint(1, 6)
        current = tup
        for _ in range(100):
            nxt, delta = smoothing_step(current, r)
            assert delta >= 0
            assert elem_sym(nxt, r) - elem_sym(current, r) == delta
            if nxt == current:
                break
            current = nxt
        assert max(current) - min(current) <= 1
        n, q = sum(current), len(current)
        assert elem_sym(current, r) == turan_count(n, q, r)


# ---------------------------------------------------------------------------
# reference: every kill graph on [n]


def kill_graph_maxima(n):
    """{(q, r): the largest h_r over quotients on [n] with h_{q+1} = 0}, for
    q = 1..n+1 and r = 2..n, by walking all 2^C(n,2) kill graphs."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    best = {}
    for mask in range(1 << len(pairs)):
        A = SquareZeroQuotient(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        h = [A.hilbert(d) for d in range(n + 3)]
        for q in range(1, n + 2):
            if h[q + 1] == 0:
                for r in range(2, n + 1):
                    best[q, r] = max(best.get((q, r), 0), h[r])
    return best


def test_kill_graph_maxima_are_gen_ex_on_the_complement():
    # the standard r-sets are the r-cliques of the kill graph's complement
    for n in range(2, 6):
        for (q, r), best in kill_graph_maxima(n).items():
            value, _ = brute_force_gen_ex(n, RGraph.complete(r, 2), RGraph.complete(q + 1, 2))
            assert value == best == turan_count(n, q, r), (n, q, r)


@pytest.mark.parametrize("n,q,r", [(4, 2, 2), (5, 2, 2), (4, 3, 2), (4, 2, 3)])
def test_brute_force_hilbert_turan(n, q, r):
    # the Hilbert-Turán bound h_r <= t_r(n, q), attained, checked by the gen-ex
    # oracle on the complement and by the walk over every kill graph
    best, _ = brute_force_gen_ex(n, RGraph.complete(r, 2), RGraph.complete(q + 1, 2))
    assert best == kill_graph_maxima(n)[q, r] == turan_count(n, q, r)


def test_brute_force_hilbert_turan_matches_per_quotient_loop():
    # every quotient built on every call, against the gen-ex oracle's value and
    # its witness: the quotient killing the witness's non-edges attains it
    n = 4
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    quotients = [
        SquareZeroQuotient(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        for mask in range(1 << len(pairs))
    ]
    for q in range(1, n + 2):
        for r in range(2, n + 1):
            values = [A.hilbert(r) for A in quotients if A.top_vanishing(q)]
            best, G = brute_force_gen_ex(n, RGraph.complete(r, 2), RGraph.complete(q + 1, 2))
            assert best == max(values) == turan_count(n, q, r), (q, r)
            W = SquareZeroQuotient(n, [p for p in pairs if frozenset(p) not in G.edges])
            assert W.top_vanishing(q) and W.hilbert(r) == best, (q, r)


def test_brute_force_hilbert_turan_trivial_large_q():
    # q >= n: no (q+1)-set exists, so the free algebra is allowed and h_2 = C(4, 2)
    best, _ = brute_force_gen_ex(4, RGraph.complete(2, 2), RGraph.complete(6, 2))
    assert best == kill_graph_maxima(4)[5, 2] == comb(4, 2)


def test_hilbert_past_the_old_recursion_limit():
    # the recursive count went one level per vertex and was refused here
    start = time.monotonic()
    assert SquareZeroQuotient(2000).hilbert(1) == 2000
    assert SquareZeroQuotient(2000).lambda_dim(1, 1) == 1999
    assert SquareZeroQuotient(60).hilbert(30) == comb(60, 30)
    # with no kill pairs d = 4 orders no vertex and takes the free block
    # at once; it once ordered all 4000, which a quadratic order cannot do
    # inside the budget
    assert SquareZeroQuotient(4000).hilbert(4) == comb(4000, 4)
    assert time.monotonic() - start < 1.0


def test_class_grouping_is_refused_past_its_key_bits(monkeypatch):
    # the keys of 10 vertices hold at least 1 + 2 + ... + 10 = 55 bits
    A = SquareZeroQuotient(10, [(1, 2), (2, 3)])
    calls = {
        "symmetrize": lambda: symmetrize(A, 9, 2),
        "parallel_classes": A.parallel_classes,
        "lambda_dim": lambda: A.lambda_dim(1, 2),
        "clone": lambda: A.clone((1,), (2,)),
        "terminal_class_sizes": lambda: terminal_class_sizes(A),
    }
    monkeypatch.setattr(squarezero, "GROUP_CAP_BITS", 55)
    for name, call in calls.items():
        assert call(), name
    monkeypatch.setattr(squarezero, "GROUP_CAP_BITS", 54)
    for name, call in calls.items():
        with pytest.raises(ScaleGuardError, match="needs 55 key bits, cap 54"):
            call()
    # a count needs no classes
    assert A.hilbert(2) == comb(10, 2) - 2


def test_answer_digits_are_priced_exactly(monkeypatch):
    # at a cap of 5 digits, C(m, d) < 10**5 is let through, by the bit
    # length alone or by the product of binomials, and any larger refused
    monkeypatch.setattr(squarezero, "HILBERT_CAP_DIGITS", 5)
    for m in range(70):
        for d in range(m + 3):
            try:
                squarezero._check_answer_digits(m, d)
            except ScaleGuardError:
                assert comb(m, d) >= 10**5, (m, d)
            else:
                assert comb(m, d) < 10**5, (m, d)


def test_hilbert_answers_up_to_the_digit_limit_and_refuses_past_it():
    # the least d with C(15000, d) past 4300 digits, found by bisection
    low, high = 1, 7500
    while low < high:
        mid = (low + high) // 2
        low, high = (mid + 1, high) if comb(15000, mid) < 10**4300 else (low, mid)
    A = SquareZeroQuotient(15000)
    assert A.hilbert(low - 1) == comb(15000, low - 1)
    for count in (lambda: A.hilbert(low), lambda: SquareZeroQuotient(15001).lambda_dim(1, low)):
        with pytest.raises(ScaleGuardError, match=f"C\\(15000, {low}\\) exceeds 4300 digits"):
            count()


def test_hilbert_step_budget_is_refused(monkeypatch):
    A = random_quotient(random.Random(5), 30)
    assert A.hilbert(4) > 0
    monkeypatch.setattr(squarezero, "HILBERT_CAP_STEPS", 10)
    with pytest.raises(ScaleGuardError):
        A.hilbert(4)
    with pytest.raises(ScaleGuardError):
        A.lambda_dim(1, 4)


# ---------------------------------------------------------------------------
# references: the recursive count and the pair-set quotient operations that
# the adjacency-mask code replaced, kept as oracles on a seeded grid

GRID_DENSITIES = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def reference_adj(n, pairs):
    adj = [0] * (n + 1)
    for a, b in (tuple(p) for p in pairs):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def reference_counter(adj):
    """The old recursive count (one level per vertex, a leaf per standard
    monomial), memoized per kill graph so that the sparse strata stay cheap."""
    memo = {}

    def count(allowed, d):
        if d == 0:
            return 1
        if allowed.bit_count() < d:
            return 0
        if (allowed, d) not in memo:
            low = allowed & -allowed
            v = low.bit_length() - 1
            without = allowed ^ low
            memo[allowed, d] = count(without, d) + count(without & ~adj[v], d - 1)
        return memo[allowed, d]

    return count


def reference_hilbert_lambda(n, pairs):
    """(hilbert, lambda_dim) of the kill graph `pairs` on [n]."""
    adj = reference_adj(n, pairs)
    count = reference_counter(adj)
    full = (1 << (n + 1)) - 2
    return (
        lambda d: count(full, d),
        lambda c, d: count(full & ~((1 << c) | adj[c]), d),
    )


def reference_parallel_classes(n, pairs):
    """Classes by closed neighbourhood, and the class pairs (C, D), C before
    D, with every cross flag over all of C x D zero; a non-uniform flag set
    fails the test."""
    adj = reference_adj(n, pairs)
    groups = {}
    for v in range(1, n + 1):
        groups.setdefault(adj[v] | 1 << v, []).append(v)
    classes = tuple(sorted(tuple(g) for g in groups.values()))
    zero = []
    for C, D in itertools.combinations(classes, 2):
        flags = {frozenset((u, v)) in pairs for u in C for v in D}
        assert len(flags) == 1, (C, D)
        if flags.pop():
            zero.append((C, D))
    return classes, zero


def reference_clone(n, pairs, S, T):
    """The old clone: rebuild the pair set of the kill graph."""
    inside = set(S) | set(T)
    new = {p for p in pairs if not (p & set(T))}
    new.update(frozenset(p) for p in itertools.combinations(sorted(inside), 2))
    for z in range(1, n + 1):
        if z not in inside and frozenset((S[0], z)) in pairs:
            new.update(frozenset((v, z)) for v in T)
    return frozenset(new)


def reference_symmetrize(n, pairs, r):
    """The old symmetrization loop over pair sets: (terminal pairs, trace)."""
    trace = []
    while True:
        candidates = sorted(reference_parallel_classes(n, pairs)[1], key=lambda pair: (pair[0][0], pair[1][0]))
        if not candidates:
            return pairs, trace
        U, V = candidates[0]
        hilbert, lam = reference_hilbert_lambda(n, pairs)
        lu, lv = lam(U[0], r - 1), lam(V[0], r - 1)
        if lu > lv:
            source, target = U, V
        elif lv > lu:
            source, target = V, U
        else:
            source, target = (U, V) if U[0] < V[0] else (V, U)
        before = hilbert(r)
        pairs = reference_clone(n, pairs, source, target)
        trace.append(
            {
                "source": list(source),
                "target": list(target),
                "lambda_source": max(lu, lv),
                "lambda_target": min(lu, lv),
                "hilbert_before": before,
                "hilbert_after": reference_hilbert_lambda(n, pairs)[0](r),
            }
        )


def grid_quotients():
    """Seeded kill graphs: n = 1..24 at every grid density."""
    rng = random.Random(2024)
    for density in GRID_DENSITIES:
        for n in range(1, 25):
            pairs = frozenset(
                frozenset(p)
                for p in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < density
            )
            yield n, pairs


def test_hilbert_and_lambda_match_the_recursive_count_on_the_grid():
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        assert A.kill == pairs
        hilbert, lam = reference_hilbert_lambda(n, pairs)
        for d in range(9):
            assert A.hilbert(d) == hilbert(d), (n, sorted(map(sorted, pairs)), d)
            for c in range(1, n + 1):
                assert A.lambda_dim(c, d) == lam(c, d), (n, c, d)


def test_parallel_class_cross_products_are_uniform():
    # the flag read from one representative pair holds for every u in C, v in D
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        classes = A.parallel_classes()
        for C, D in itertools.combinations(classes, 2):
            zero = A.killed(C[0], D[0])
            assert all(A.killed(u, v) == zero for u in C for v in D), (n, C, D)
        assert (classes, zero_pairs(A)) == reference_parallel_classes(n, pairs)


def test_clone_matches_the_pair_set_clone_on_the_grid():
    rng = random.Random(11)
    cloned = 0
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        zero = zero_pairs(A)
        for C, D in rng.sample(zero, min(4, len(zero))):
            for S, T in ((C, D), (D, C)):
                B = A.clone(S, T)
                assert B.kill == reference_clone(n, pairs, S, T), (n, S, T)
                assert B == SquareZeroQuotient(n, B.kill)
                cloned += 1
    assert cloned > 100


def test_symmetrize_trace_matches_the_pair_set_loop_on_the_grid():
    rng = random.Random(7)
    steps = 0
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        q = max(d for d in range(n + 1) if A.hilbert(d) > 0)
        r = rng.randint(1, min(q, 8))
        terminal, trace, sizes = symmetrize(A, q, r)
        want_pairs, want_trace = reference_symmetrize(n, pairs, r)
        assert trace == want_trace, (n, r)
        assert terminal.kill == want_pairs
        assert sizes == terminal_class_sizes(terminal), (n, r)
        steps += len(trace)
    assert steps > 100


def test_clone_refuses_what_is_not_a_pair_of_parallel_classes():
    A = SquareZeroQuotient(4, [(1, 2), (3, 4), (1, 3)])
    for S, T in [((1,), (1,)), ((1, 1), (3,)), ((1,), (3, 4)), ((1,), (5,)), ((), (3,))]:
        with pytest.raises(InputError):
            A.clone(S, T)
    # classes (1, 2), (3), (4): a part of a class is no source or target
    B = SquareZeroQuotient(4, [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)])
    assert B.parallel_classes() == ((1, 2), (3,), (4,))
    for S, T in [((1,), (3,)), ((3,), (2,))]:
        with pytest.raises(InputError):
            B.clone(S, T)
    assert B.clone((1, 2), (3,)).kill == reference_clone(4, B.kill, (1, 2), (3,))


@pytest.mark.parametrize(
    "pair,message",
    [
        ((1, 1), "bad kill pair [1]"),
        ((0, 1), "bad kill pair [0, 1]"),
        ((-1, 2), "bad kill pair [-1, 2]"),
        ((5, 1), "bad kill pair [1, 5]"),
        ((1,), "bad kill pair [1]"),
        ((), "bad kill pair []"),
        ((1, 2, 3), "bad kill pair [1, 2, 3]"),
        (frozenset({3}), "bad kill pair [3]"),
        # two distinct entries, but three in all: not a pair
        ((1, 2, 2), "bad kill pair [1, 2, 2]"),
        # vertices far outside [n], refused before any shift builds them
        ((1, 10**12), "bad kill pair [1, 1000000000000]"),
        ((-(10**12), 2), "bad kill pair [-1000000000000, 2]"),
    ],
)
def test_constructor_rejects_bad_kill_pairs(pair, message):
    with pytest.raises(InputError) as excinfo:
        SquareZeroQuotient(4, [(1, 2), pair])
    assert str(excinfo.value) == message


def test_far_vertex_is_refused_before_its_bit_is_built():
    # 1 << 2**30 would take 128 MiB; the refusal allocates next to nothing
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="bad kill pair"):
            SquareZeroQuotient(4, [(1, 2), (1, 2**30)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_kill_masks_are_priced_exactly_when_they_could_pass_the_cap(monkeypatch):
    # every grid quotient's masks fit a cap of their own bits and not one
    # bit less, and the priced constructor builds the same quotient
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        bits = sum(mask.bit_length() for mask in A._adj)
        if not bits:
            continue
        with monkeypatch.context() as m:
            m.setattr(squarezero, "MASK_CAP_BITS", bits)
            assert SquareZeroQuotient(n, iter(pairs)) == A
            m.setattr(squarezero, "MASK_CAP_BITS", bits - 1)
            with pytest.raises(ScaleGuardError, match=f"^kill masks need {bits} bits, cap {bits - 1}$"):
                SquareZeroQuotient(n, pairs)


def test_a_quotient_whose_complete_kill_graph_fits_the_cap_is_not_priced(monkeypatch):
    def priced(n, kill):
        raise AssertionError("priced")

    monkeypatch.setattr(squarezero, "_priced_pairs", priced)
    monkeypatch.setattr(squarezero, "MASK_CAP_BITS", 110)
    assert SquareZeroQuotient(10, itertools.combinations(range(1, 11), 2)).hilbert(2) == 0
    monkeypatch.setattr(squarezero, "MASK_CAP_BITS", 109)
    with pytest.raises(AssertionError, match="priced"):
        SquareZeroQuotient(10)


@pytest.mark.parametrize("pair,message", [((5, 1), "bad kill pair [1, 5]"), ((1, 2, 2), "bad kill pair [1, 2, 2]"), ((3,), "bad kill pair [3]")])
def test_a_priced_kill_list_refuses_a_bad_pair_before_its_price(monkeypatch, pair, message):
    # the price would refuse (1, 4) alone; a bad pair after it is refused as unpriced
    monkeypatch.setattr(squarezero, "MASK_CAP_BITS", 0)
    with pytest.raises(InputError) as excinfo:
        SquareZeroQuotient(4, [(1, 4), pair])
    assert str(excinfo.value) == message
    with pytest.raises(ScaleGuardError, match="^kill masks need 7 bits, cap 0$"):
        SquareZeroQuotient(4, [(1, 4)])


# ---------------------------------------------------------------------------
# the closed form at d = 3 and the direct clone-pair pick


def brute_force_count(A, d, allowed=None):
    vertices = range(1, A.n + 1) if allowed is None else allowed
    return sum(
        1
        for S in itertools.combinations(vertices, d)
        if not any(A.killed(a, b) for a, b in itertools.combinations(S, 2))
    )


def test_triple_closed_form_matches_brute_force_on_both_sides(monkeypatch):
    # d = 3 is one closed-form step, and d = 4..6 branch down onto it; each
    # count runs under its own leaf form, which picks both forms on this
    # grid, and then under each form forced through _leaf_flip
    rng = random.Random(303)
    cases = []
    for density in (0.0, 0.1, 0.3, 0.5, 0.6, 0.8, 0.95, 1.0):
        for n in range(3, 13):
            pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
            A = SquareZeroQuotient(n, pairs)
            c = rng.randint(1, n)
            partners = [v for v in range(1, n + 1) if v != c and not A.killed(c, v)]
            want = [brute_force_count(A, d) for d in range(3, 7)]
            want += [brute_force_count(A, d, partners) for d in (3, 4)]
            cases.append((A, c, want))
    leaf_flip = squarezero._leaf_flip
    independent_triples = squarezero._independent_triples
    for form in (None, 0, -1):
        forms, leaves = [], []

        def flip(adj, allowed, partnered):
            forms.append(leaf_flip(adj, allowed, partnered) if form is None else form)
            return forms[-1]

        def recorded(rows, allowed, m, scope, flip):
            leaves.append(flip)
            return independent_triples(rows, allowed, m, scope, flip)

        monkeypatch.setattr(squarezero, "_leaf_flip", flip)
        monkeypatch.setattr(squarezero, "_independent_triples", recorded)
        for A, c, want in cases:
            got = [A.hilbert(d) for d in range(3, 7)] + [A.lambda_dim(c, d) for d in (3, 4)]
            assert got == want, (A.n, c, form)
        assert set(forms) == ({0, -1} if form is None else {form})
        # the complement counts the d = 3 entries of exactly the counts
        # that chose it
        complement = [leaf for leaf in leaves if leaf == -1]
        assert bool(complement) == (-1 in forms)
        if form == -1:
            assert len(complement) > 100


def tied_grid_quotients():
    """Seeded kill graphs on n <= 12: plain random ones, and q colour classes
    killed inside plus random cross pairs, as symmetrize's inputs look; the
    second kind gives many tied lambda values."""
    rng = random.Random(1212)
    for n in range(2, 13):
        for density in (0.2, 0.5, 0.8):
            yield n, frozenset(
                frozenset(p)
                for p in itertools.combinations(range(1, n + 1), 2)
                if rng.random() < density
            )
            colour = {v: rng.randrange(rng.randint(1, 4)) for v in range(1, n + 1)}
            yield n, frozenset(
                frozenset((a, b))
                for a, b in itertools.combinations(range(1, n + 1), 2)
                if colour[a] == colour[b] or rng.random() < density / 2
            )


def test_first_zero_product_pair_is_the_least_zero_flag():
    # symmetrize's pair rule, read from the class keys
    for n, pairs in itertools.chain(grid_quotients(), tied_grid_quotients()):
        A = SquareZeroQuotient(n, pairs)
        zero = zero_pairs(A)
        want = min(zero, key=lambda pair: (pair[0][0], pair[1][0])) if zero else None
        classes = squarezero._group_classes(A._adj)
        keys = squarezero._first_killed_pair(classes)
        got = keys and tuple(tuple(squarezero._bits(classes[key])) for key in keys)
        assert got == want, (n, sorted(map(sorted, pairs)))


def test_symmetrize_direct_pick_matches_the_pair_set_loop_with_ties():
    rng = random.Random(12)
    steps = ties = 0
    for n, pairs in tied_grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        q = max(d for d in range(n + 1) if A.hilbert(d) > 0)
        r = rng.randint(1, q)
        terminal, trace, _ = symmetrize(A, q, r)
        want_pairs, want_trace = reference_symmetrize(n, pairs, r)
        assert trace == want_trace, (n, r)
        assert terminal.kill == want_pairs
        steps += len(trace)
        ties += sum(s["lambda_source"] == s["lambda_target"] for s in trace)
    assert steps > 50 and ties > 10


# ---------------------------------------------------------------------------
# symmetrize on class keys against the loop over vertex masks it replaced


def clone_loop_symmetrize(A, q, r):
    """The loop over vertex masks: each step regroups the quotient, takes
    the least pair of `zero_pairs` as its pair, reads lambda by
    `lambda_dim` and clones by `clone`.  (terminal quotient, trace)."""
    assert A.top_vanishing(q)
    trace, current, h = [], A, None
    while True:
        zero = zero_pairs(current)
        if not zero:
            break
        U, V = min(zero, key=lambda pair: (pair[0][0], pair[1][0]))
        lu, lv = current.lambda_dim(U[0], r - 1), current.lambda_dim(V[0], r - 1)
        source, target = (V, U) if lv > lu else (U, V)
        before = current.hilbert(r) if h is None else h
        current = current.clone(source, target)
        h = before + len(target) * abs(lu - lv)
        trace.append(
            {
                "source": list(source),
                "target": list(target),
                "lambda_source": max(lu, lv),
                "lambda_target": min(lu, lv),
                "hilbert_before": before,
                "hilbert_after": h,
            }
        )
    assert current.hilbert(r) == h or not trace
    return current, trace


# the benchmark's symmetrize strata: (n, q, cross-class kill density)
SYMMETRIZE_SHAPES = [(20, 4, 0.3), (30, 5, 0.3), (40, 4, 0.3), (40, 8, 0.5)]


def symmetrize_cases():
    """(quotient, q): the grid, at its largest nonzero degree, and coloured
    quotients of the benchmark's shapes, at their colour count."""
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        yield A, max(d for d in range(n + 1) if A.hilbert(d) > 0)
    for n, q, density in SYMMETRIZE_SHAPES:
        for seed in range(3):
            yield coloured_quotient(seed, n, q, density), q


def test_symmetrize_on_class_keys_is_the_clone_loop():
    steps = 0
    for A, q in symmetrize_cases():
        for r in range(1, 5):
            want = clone_loop_symmetrize(A, q, r)
            terminal, trace, sizes = symmetrize(A, q, r)
            assert trace == want[1], (A, q, r)
            assert terminal == want[0], (A, q, r)
            assert sizes == terminal_class_sizes(terminal), (A, q, r)
            steps += len(trace)
    assert steps > 1000


def test_a_lambda_tie_keeps_the_first_class_as_the_source():
    # the kill 4-cycle: classes (1) and (2) are killed together, and each
    # has one variable outside its closed neighbourhood
    A = SquareZeroQuotient(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    terminal, trace, _ = symmetrize(A, 2, 2)
    assert trace[0]["source"] == [1] and trace[0]["target"] == [2]
    assert trace[0]["lambda_source"] == trace[0]["lambda_target"] == 1
    assert (terminal, trace) == clone_loop_symmetrize(A, 2, 2)


def test_class_lambda_is_lambda_dim_on_every_representative():
    checked = 0
    for A, _ in symmetrize_cases():
        classes = squarezero._group_classes(A._adj)
        for key, mask in classes.items():
            c = (mask & -mask).bit_length() - 1
            # c's count on the quotient's own masks, the keys' shortcuts aside
            allowed = ((2 << A.n) - 2) & ~(1 << c | A._adj[c])
            for d in range(4):
                assert squarezero._class_lambda(A.n, classes, key, d) == squarezero._count(A._adj, allowed, d)[0], (A, c, d)
                checked += 1
    assert checked > 5000


# ---------------------------------------------------------------------------
# the cloning ledger and its terminal certificate

# three clone steps: (3) onto (1), (1, 3) onto (4), (1, 3, 4) onto (7)
LEDGER_CASE = (7, [(1, 3), (1, 4), (1, 5), (1, 7), (2, 4), (2, 7), (3, 4), (3, 7), (4, 5), (4, 6), (5, 6)], 3, 2)


def test_symmetrize_counts_hilbert_at_most_three_times_and_groups_each_quotient_once(monkeypatch):
    hilbert, group = SquareZeroQuotient.hilbert, squarezero._group_classes
    counts, grouped = [], []

    def counted(self, d):
        counts.append(d)
        return hilbert(self, d)

    def recorded(adj):
        grouped.append(adj)
        return group(adj)

    monkeypatch.setattr(SquareZeroQuotient, "hilbert", counted)
    monkeypatch.setattr(squarezero, "_group_classes", recorded)
    long_runs = 0
    for n, pairs in grid_quotients():
        A = SquareZeroQuotient(n, pairs)
        q = next(d for d in range(n + 1) if not hilbert(A, d + 1))
        counts.clear()
        grouped.clear()
        terminal, trace, _ = symmetrize(A, q, 2)
        assert len(counts) <= 3, (n, len(trace))
        # one grouping per call: the steps run on the input's classes,
        # and the terminal class sizes are read from the classes they end on
        assert grouped == [A._adj], n
        long_runs += len(trace) >= 3
    assert long_runs > 20


def test_a_wrong_ledger_step_fails_the_terminal_certificate(monkeypatch, capsys):
    n, pairs, q, r = LEDGER_CASE
    A = SquareZeroQuotient(n, pairs)
    assert len(symmetrize(A, q, r)[1]) == 3
    class_lambda = squarezero._class_lambda
    # class (3) reports a lambda one too high
    monkeypatch.setattr(
        squarezero,
        "_class_lambda",
        lambda n, classes, key, d: class_lambda(n, classes, key, d) + (classes[key] == 1 << 3),
    )
    with pytest.raises(ClaimCheckError):
        symmetrize(A, q, r)
    kill = [f"{a},{b}" for a, b in pairs]
    argv = ["symmetrize", "--n", str(n), "--q", str(q), "--r", str(r), "--kill", *kill]
    assert main(argv) == EXIT_CLAIM_FAILED
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "claim check failed"


# ---------------------------------------------------------------------------
# the branching order of counts at d >= 4


def kill_order_cases():
    """(adj, allowed) pairs: the grid and the tied grid, each with the full
    vertex mask and two random submasks."""
    rng = random.Random(4141)
    for n, pairs in itertools.chain(grid_quotients(), tied_grid_quotients()):
        adj = reference_adj(n, pairs)
        full = (1 << (n + 1)) - 2
        yield adj, full
        for _ in range(2):
            yield adj, full & rng.getrandbits(n + 1)


def test_kill_order_places_a_vertex_with_the_most_kill_partners_next():
    for adj, allowed in kill_order_cases():
        order = squarezero._kill_order(adj, allowed)
        assert sorted(order) == [v for v in range(len(adj)) if allowed >> v & 1], allowed
        left = allowed
        for v in order:
            degrees = [(adj[u] & left).bit_count() for u in range(len(adj)) if left >> u & 1]
            assert (adj[v] & left).bit_count() == max(degrees), (allowed, order)
            left ^= 1 << v


def strata_quotients(scale):
    """Seeded kill graphs of the benchmark's Hilbert strata shapes (n, kill
    density, d), with n cut to n // scale."""
    rng = random.Random(606)
    for n, density, d in ((20, 0.1, 6), (24, 0.2, 6), (30, 0.2, 6), (40, 0.3, 6),
                          (40, 0.5, 5), (60, 0.5, 5), (60, 0.7, 4)):
        n //= scale
        for _ in range(3):
            pairs = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density]
            yield n, pairs, d


def test_ordered_count_matches_the_recursive_count_from_d_4():
    for n, pairs, d in strata_quotients(2):
        A = SquareZeroQuotient(n, pairs)
        hilbert, lam = reference_hilbert_lambda(n, {frozenset(p) for p in pairs})
        for e in range(4, d + 2):
            assert A.hilbert(e) == hilbert(e), (n, pairs, e)
            for c in range(1, n + 1):
                assert A.lambda_dim(c, e) == lam(c, e), (n, pairs, c, e)


def count_and_steps(monkeypatch, A, d, c=None):
    """`squarezero._count`'s (value, steps) over the vertices that `A.hilbert(d)`
    counts, or with c those that `A.lambda_dim(c, d)` counts, after checking
    that the cap is read at the counted step: a budget of exactly those
    steps answers, and one step less refuses."""
    allowed = (2 << A.n) - 2
    if c is not None:
        allowed &= ~(1 << c | A._adj[c])
    value, steps = squarezero._count(A._adj, allowed, d)
    monkeypatch.setattr(squarezero, "HILBERT_CAP_STEPS", steps)
    assert squarezero._count(A._adj, allowed, d) == (value, steps)
    monkeypatch.setattr(squarezero, "HILBERT_CAP_STEPS", steps - 1)
    with pytest.raises(ScaleGuardError, match=f"exceeds {steps - 1} steps"):
        squarezero._count(A._adj, allowed, d)
    return value, steps


def seeded_quotient(seed, n, density):
    rng = random.Random(seed)
    return SquareZeroQuotient(n, [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < density])


# (seed, n, kill density, d, value, steps, steps of the lowest-label order)
ORDERED_STEPS = [
    (1, 20, 0.1, 6, 5080, 199, 482),
    (2, 24, 0.2, 6, 3373, 574, 955),
    (3, 30, 0.2, 6, 24388, 1203, 2648),
    (4, 40, 0.3, 6, 13975, 2845, 4484),
    (5, 40, 0.5, 5, 510, 554, 607),
    (6, 60, 0.7, 4, 228, 112, 115),
]


@pytest.mark.parametrize("seed,n,density,d,value,steps,label_steps", ORDERED_STEPS)
def test_ordered_count_takes_the_pinned_steps(monkeypatch, seed, n, density, d, value, steps, label_steps):
    A = seeded_quotient(seed, n, density)
    assert A.hilbert(d) == value
    assert count_and_steps(monkeypatch, A, d) == (value, steps)
    if d == 6:
        # the sparse strata are where the order pays
        assert steps < label_steps


def test_ordered_lambda_takes_the_pinned_steps(monkeypatch):
    A = seeded_quotient(7, 30, 0.3)
    assert A.lambda_dim(1, 5) == 28
    assert count_and_steps(monkeypatch, A, 5, 1) == (28, 81)  # 104 in the lowest-label order


def coloured_quotient(seed, n, q, density):
    """q colour classes killed inside plus random cross pairs, as
    symmetrize's inputs look in the benchmark."""
    rng = random.Random(seed)
    colour = {v: rng.randrange(q) for v in range(1, n + 1)}
    return SquareZeroQuotient(n, [
        (a, b)
        for a, b in itertools.combinations(range(1, n + 1), 2)
        if colour[a] == colour[b] or rng.random() < density
    ])


# counts whose chains end in free blocks, in dead ends and in isolated
# vertices: (quotient, c of lambda_dim or None for hilbert, d, value, steps)
CHAIN_STEPS = [
    pytest.param(seeded_quotient(8, 60, 0.5), None, 5, 6137, 1385, id="hilbert-60-0.5-d5"),
    pytest.param(coloured_quotient(9, 40, 4, 0.3), None, 5, 0, 664, id="coloured-40-q4-d5"),
    pytest.param(seeded_quotient(10, 30, 0.05), 1, 4, 10637, 20, id="lambda-30-0.05-d4"),
]


@pytest.mark.parametrize("A,c,d,value,steps", CHAIN_STEPS)
def test_chain_walk_takes_the_pinned_steps(monkeypatch, A, c, d, value, steps):
    assert (A.hilbert(d) if c is None else A.lambda_dim(c, d)) == value
    assert count_and_steps(monkeypatch, A, d, c) == (value, steps)


def test_leaving_out_unpartnered_vertices_keeps_the_order_of_the_rest():
    # placing a vertex with no kill partner moves no other vertex's degree,
    # so the order without such vertices is the full order with them taken out
    for adj, allowed in kill_order_cases():
        partnered = 0
        for mask in adj:
            partnered |= mask
        full = squarezero._kill_order(adj, allowed)
        assert squarezero._kill_order(adj, allowed & partnered) == [v for v in full if partnered >> v & 1]
