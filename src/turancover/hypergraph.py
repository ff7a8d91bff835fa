"""r-uniform hypergraphs on [n], Turán constructions, and exact search oracles.

Edges are r-element frozensets of 1-based vertices.  Edge sets are colex
masks: bit i is the r-set of colex rank i (`colex_rank`, the same for every
n), so subset tests are single AND ops.  A forbidden copy is such a mask
from the moment it is listed: the squarefree monomial of its edges in the
edge-variable ring.  `EdgeRanker` lists the r-sets of [n] in that order, and
`colex_unrank` maps one rank back to its r-set without a list.

Copies of an explicit pattern F on k vertices are vertex sets times
labellings.  Its shapes, the k!/|Aut(F)| distinct relabellings of F's edges
by positions 0..k-1 (for a complete pattern the one `complete_shape`, built
without relabelling), each a sorted tuple of sorted position tuples, are
computed once and placed on each k-subset of [n] (`place_copies`), as are
their pair shadows (`pair_shadows`).

The oracles walk the edges in colex order: taking an edge recurses, and
leaving it out is the next turn of the walk's loop.  They keep the listed
copies, forbidden or target, in bitsets over copy indices
(`_copy_bitsets`): per edge, the copies whose last edge it is and the
copies avoiding it.  A copy is live while none of its edges is left out.
Every edge below the current one is decided, so a live copy ending there
has all its other edges chosen: adding the edge completes exactly the live
copies ending there, and leaving it out kills the live copies through it.
The core-pair family is never listed: an r-graph holds a member iff its
shadow graph (the pairs of positive codegree) has an ell-clique.  Its
oracles keep that shadow graph as one adjacency bitmask per vertex
(`_shadow_step`), and `core_family_free` runs the same bitset clique search
on a whole graph's shadow.

The oracles import nothing from the cover-ideal search or the polynomial
core: they are the independent check of both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, isqrt
from operator import getitem, le
from typing import Collection, Iterable, Iterator

from .errors import InputError, ScaleGuardError

Edge = frozenset


# ---------------------------------------------------------------------------
# ranking of r-sets


def rsets_colex(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of [n] as sorted tuples, in colex order: the combinations
    of n, n-1, ..., 1 (reverse colex order) read backwards.  For r > n the
    list is empty, returned before `itertools.combinations` allocates its r
    indices."""
    if r > n:
        return []
    return [t[::-1] for t in reversed(list(itertools.combinations(range(n, 0, -1), r)))]


def colex_rank(edge: Iterable[int]) -> int:
    """The colex position of {v_1 < ... < v_r}, the sum of C(v_j - 1, j)
    (combinatorial number system); independent of n, so [m]'s r-sets come first."""
    return sum(comb(v - 1, j) for j, v in enumerate(sorted(edge), 1))


def colex_unrank(rank: int, r: int) -> tuple[int, ...]:
    """The r-set at colex position `rank`, as a sorted tuple: the inverse of
    `colex_rank`.  From j = r down to 3, v_j - 1 is the largest c with
    C(c, j) <= rank, bisected below rank + j (C(c, j) >= c - j + 1 for
    c >= j), and C(c, j) is taken off the rank.  The last two are closed
    form: v_2 - 1 = (1 + isqrt(8 rank + 1)) // 2, and v_1 - 1 is the rank
    left after C(v_2 - 1, 2)."""
    if r < 2:
        return (rank + 1,) if r else ()
    top = ()
    for j in range(r, 2, -1):
        c, hi = j - 1, rank + j  # C(c, j) <= rank < C(hi, j)
        while hi - c > 1:
            mid = (c + hi) // 2
            if comb(mid, j) <= rank:
                c = mid
            else:
                hi = mid
        top = (c + 1, *top)
        rank -= comb(c, j)
    b = (1 + isqrt(8 * rank + 1)) // 2
    return (rank - b * (b - 1) // 2 + 1, b + 1, *top)


def edge_mask(edges: Iterable[Iterable[int]]) -> int:
    """The mask of an edge set: the bits at its edges' colex ranks."""
    return _mask_of([colex_rank(e) for e in edges])


class EdgeRanker:
    """The r-subsets of [n] listed at their bit positions [0, C(n,r))."""

    def __init__(self, n: int, r: int):
        self.n, self.r = n, r
        self.sets = rsets_colex(n, r)
        self.count = len(self.sets)

    def unmask(self, mask: int) -> list[Edge]:
        """The edges of the set bits, in rank order."""
        return [frozenset(self.sets[i]) for i in _bits(mask)]


# OR-ing in or peeling off one bit at a time copies the mask once per bit,
# quadratic in a long mask; up to this many bits it measured faster than one
# pass over a byte buffer or a digit string
PEEL_BITS = 32


def _mask_of(positions: list[int]) -> int:
    """The mask with the bits at `positions` set: OR-ed in one at a time up
    to PEEL_BITS positions, past that set in a byte buffer read as one int."""
    if len(positions) <= PEEL_BITS:
        m = 0
        for p in positions:
            m |= 1 << p
        return m
    buf = bytearray((max(positions) >> 3) + 1)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, in increasing order: peeled
    up to PEEL_BITS of them, past that read in one pass over its binary
    digits."""
    out = []
    if mask.bit_count() <= PEEL_BITS:
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


# ---------------------------------------------------------------------------
# core types


@dataclass(frozen=True, slots=True, repr=False)
class RGraph:
    """An r-uniform hypergraph on vertex set [n], identified with its edge set:
    `edges`, given as any iterable of r-sets of [n], is kept as a frozenset
    of frozensets.  Equality and hashing compare (n, r, edges)."""

    n: int
    r: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self):
        n, r = self.n, self.r
        if n < 1 or r < 1:
            raise InputError(f"need n, r >= 1, got n={n}, r={r}")
        es = set()
        for e in self.edges:
            fe = frozenset(e)
            if len(fe) != r:
                raise InputError(f"edge {sorted(fe)} does not have {r} distinct vertices")
            if not (1 <= min(fe) and max(fe) <= n):
                raise InputError(f"edge {sorted(fe)} has vertices outside [1, {n}]")
            es.add(fe)
        object.__setattr__(self, "edges", frozenset(es))

    @classmethod
    def _from_edges(cls, n: int, r: int, edges: Iterable[Edge]) -> "RGraph":
        """Wrap edges that are r-sets of [n] as frozensets already, such as
        an `EdgeRanker`'s: none of __post_init__'s checks are repeated."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "r", r)
        object.__setattr__(g, "edges", frozenset(edges))
        return g

    @classmethod
    def complete(cls, n: int, r: int) -> "RGraph":
        return cls(n, r, itertools.combinations(range(1, n + 1), r))

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        es = sorted(tuple(sorted(e)) for e in self.edges)
        return f"RGraph(n={self.n}, r={self.r}, edges={es})"

    def codegree(self, a: int, b: int) -> int:
        """Number of edges containing both a and b."""
        if a == b:
            raise InputError("codegree needs two distinct vertices")
        if not (1 <= a <= self.n and 1 <= b <= self.n):
            raise InputError(f"vertices ({a}, {b}) out of range [1, {self.n}]")
        return sum(1 for e in self.edges if a in e and b in e)

    def edge_list(self) -> list[tuple[int, ...]]:
        return sorted((tuple(sorted(e)) for e in self.edges))


@dataclass(frozen=True)
class CopyFamily:
    """Explicit list of forbidden (or target) copies inside the complete r-graph on [n].

    Each copy is a nonzero colex edge mask (`edge_mask`), in nondecreasing
    order; a repeated copy (a pair shadow shared by two target copies)
    counts each time.
    """

    n: int
    r: int
    copies: tuple[int, ...]

    def __post_init__(self):
        copies = self.copies
        if 0 in copies:
            raise InputError("empty copy in CopyFamily")
        if not all(map(le, copies, copies[1:])):
            raise InputError("copies out of order in CopyFamily")

    def __len__(self) -> int:
        return len(self.copies)


@dataclass(frozen=True)
class CoreFamily:
    """Symbolic descriptor of the core-pair family: r-graphs with at most C(ell, 2)
    edges containing an ell-vertex core whose every pair lies in some edge."""

    ell: int
    r: int

    def __post_init__(self):
        if self.ell < 2 or self.r < 2:
            raise InputError("core-pair family needs ell, r >= 2")


FamilySpec = RGraph | CoreFamily


# ---------------------------------------------------------------------------
# Turán constructions


def _balanced_parts(n: int, q: int) -> Iterator[range]:
    """The q parts of [n] in index order, larger parts first, as ranges
    made one at a time."""
    if n < 0 or q < 1:
        raise InputError(f"bad partition parameters n={n}, q={q}")
    base, extra = divmod(n, q)
    # the i parts before part i hold base vertices each, one more for each
    # of the first `extra`
    starts = (base * i + min(i, extra) + 1 for i in range(q + 1))
    return itertools.starmap(range, itertools.pairwise(starts))


def balanced_partition(n: int, q: int) -> list[list[int]]:
    """Partition [n] into q parts in index order, larger parts first."""
    return [list(part) for part in _balanced_parts(n, q)]


def partition_pairs(n: int, q: int) -> list[tuple[int, int]]:
    """The pairs inside the parts of `balanced_partition(n, q)`, part by
    part.  Part sizes never grow, so the walk stops at the first part of
    fewer than two vertices and no later part is made: the cost is the
    pairs'."""
    parts = itertools.takewhile(lambda part: len(part) > 1, _balanced_parts(n, q))
    return [pair for part in parts for pair in itertools.combinations(part, 2)]


def turan_construct(n: int, q: int, r: int) -> RGraph:
    """The complete balanced q-partite r-graph T_r(n, q); only the first
    min(q, n) parts are nonempty, so only those are built."""
    part_of = {v: i for i, P in enumerate(balanced_partition(n, min(q, n))) for v in P}
    edges = [
        e
        for e in itertools.combinations(range(1, n + 1), r)
        if len({part_of[v] for v in e}) == r
    ]
    return RGraph(n, r, edges)


def turan_count(n: int, q: int, r: int) -> int:
    """t_r(n, q): sum over r-subsets S of classes of the product of their sizes.

    The balanced partition has `extra` classes of size base + 1 and q - extra
    of size base, so an r-subset taking i of the larger classes contributes
    (base + 1)^i * base^(r - i), and there are C(extra, i) * C(q - extra, r - i)
    of them: O(r) work, with no partition built.
    """
    if n < 0 or q < 1 or r < 0:
        raise InputError(f"bad Turán parameters n={n}, q={q}, r={r}")
    if r > q:
        return 0
    base, extra = divmod(n, q)
    return sum(
        comb(extra, i) * comb(q - extra, r - i) * (base + 1) ** i * base ** (r - i)
        for i in range(r + 1)
    )


# ---------------------------------------------------------------------------
# core-family freeness


def core_family_free(G: RGraph, ell: int) -> bool:
    """Whether G contains no member of the core-pair family (ell, G.r).

    G contains a member iff its shadow graph (the pairs of positive
    codegree) has an ell-clique: picking one witnessing edge per pair yields
    a member with <= C(ell, 2) edges.  The shadow graph is one adjacency
    bitmask per vertex, searched by the oracle's `_has_clique`.
    """
    adj = [0] * (G.n + 1)
    for e in G.edges:
        for a, b in itertools.combinations(e, 2):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return not _has_clique(adj, (1 << (G.n + 1)) - 2, ell)


# ---------------------------------------------------------------------------
# copy enumeration


COPY_CAP = 2_000_000
ORACLE_CAP_EDGES = 30


def complete_shape(k: int, r: int) -> tuple[int, set]:
    """(k, shapes) of the complete r-graph on k vertices: its one shape, all
    r-sets of the positions 0..k-1."""
    return k, {tuple(itertools.combinations(range(k), r))}


def _shapes(F: RGraph) -> tuple[int, set]:
    """(k, shapes) of an explicit pattern: its k edge-covered vertices and
    the distinct images of its edges under the k! relabellings of those
    vertices by positions 0..k-1, which are k!/|Aut(F)| shapes.  A complete
    pattern (all C(k, r) edges) has the one shape of `complete_shape`, found
    before any edge is relabelled; for any other, ScaleGuardError refuses
    k! * |E(F)| labelling steps above COPY_CAP."""
    verts = sorted(set().union(*F.edges)) if F.edges else []
    if not verts:
        raise InputError("forbidden graph has no edges")
    k = len(verts)
    if len(F.edges) == comb(k, F.r):
        return complete_shape(k, F.r)
    index = {v: i for i, v in enumerate(verts)}
    edges = [[index[v] for v in e] for e in F.edges]
    labelling_work = factorial(k) * len(F.edges)
    if labelling_work > COPY_CAP:
        raise ScaleGuardError(f"labelling work {labelling_work} exceeds cap {COPY_CAP}")
    shapes = {
        tuple(sorted(tuple(sorted(p[i] for i in e)) for e in edges))
        for p in itertools.permutations(range(k))
    }
    return k, shapes


def explicit_shapes(F: RGraph, n: int) -> tuple[int, set]:
    """`_shapes(F)` for F placed in [n]; (0, set()), no shape, when F.n > n."""
    return _shapes(F) if F.n <= n else (0, set())


def pair_shadows(shapes: tuple[int, set]) -> tuple[int, list]:
    """The pair shadow of each shape of `explicit_shapes(T, n)`: the pairs of
    positions inside its edges, a 2-graph shape on the same k positions
    (every vertex of T lies in an edge).  Distinct shapes can share a
    shadow, and the list keeps one entry per shape, so `place_copies` lists
    the shadow of every copy of T, repeats included."""
    k, found = shapes
    return k, [
        tuple(sorted({p for e in shape for p in itertools.combinations(e, 2)}))
        for shape in found
    ]


def explicit_copy_count(shapes: tuple[int, Collection], n: int) -> int:
    """The number of copies `place_copies(shapes, n, r)` lists, C(n, k) *
    (number of shapes), found without listing a single copy."""
    k, found = shapes
    return comb(n, k) * len(found)


def guard_copy_listing(copies: int, edges: int) -> None:
    """Refuse to list `copies` copies of `edges` edges each: ScaleGuardError
    when the edges placed exceed COPY_CAP."""
    if copies * edges > COPY_CAP:
        raise ScaleGuardError(f"copy count {copies} x {edges} edges exceeds cap {COPY_CAP}")


def place_copies(shapes: tuple[int, Collection], n: int, r: int) -> CopyFamily:
    """Every shape of `shapes` = (k, shapes on positions 0..k-1) placed on
    every k-subset of [n], as colex masks in nondecreasing order; no shape
    gives the empty family.
    ScaleGuardError refuses C(n, k) * (number of shapes) copies times the
    edges of one shape above COPY_CAP, before any is placed.

    Rank tables.  On the 0-based k-set c (c[i] = v - 1) a shape's edge, a
    sorted position tuple (p_1 < ... < p_r), sits at the colex rank
    C(c[p_1], 1) + ... + C(c[p_r], r).  Tables of C(u, t) for u < n and
    1 <= t <= r, O(n * r) entries, hold every term, so an edge costs one
    lookup per position and a sum: no `comb` call, and no C(n, r) table.
    A graph pattern (r = 2) of at most PEEL_BITS edges, K8 and smaller,
    ORs in one bit per pair (i, j) of each copy, at C(c[j], 2) + c[i], with
    no list per copy: every pattern of the `turan` and `star` benchmark
    passes, which that loop runs about 10% faster (ops/s) than the sums."""
    k, found = shapes
    if not found:
        return CopyFamily(n, r, ())
    nedges = len(next(iter(found)))
    guard_copy_listing(explicit_copy_count(shapes, n), nedges)
    # every position lies in an edge, so a copy's vertex set is the k-set it
    # was placed on: distinct shapes give distinct copies, and a shape listed
    # twice gives each of its copies twice.  A shape's edges are sorted
    # position tuples, so on the 0-based k-set c (c[i] = v - 1) `colex_rank`'s
    # sum needs no sort per copy
    tables = [[comb(u, t) for u in range(n)] for t in range(1, r + 1)]
    if r == 2 and nedges <= PEEL_BITS:
        # past PEEL_BITS bits, OR-ing one at a time is quadratic in the mask
        closing = tables[1]
        copies = []
        for c in itertools.combinations(range(n), k):
            for shape in found:
                m = 0
                for i, j in shape:
                    m |= 1 << (closing[c[j]] + c[i])
                copies.append(m)
        return CopyFamily(n, r, tuple(sorted(copies)))
    copies = [
        _mask_of([sum(map(getitem, tables, map(c.__getitem__, e))) for e in shape])
        for c in itertools.combinations(range(n), k)
        for shape in found
    ]
    return CopyFamily(n, r, tuple(sorted(copies)))


def enumerate_forbidden_copies(
    F: RGraph, n: int, shapes: tuple[int, set] | None = None
) -> CopyFamily:
    """All copies of the explicit pattern F inside the complete r-graph on
    [n], the edge sets of its embeddings (n >= F.n), as distinct colex edge
    masks in increasing order.  `shapes` is `explicit_shapes(F, n)` when
    the caller has found it already.  `place_copies` puts the distinct
    labellings of F's k edge-covered vertices (one for a complete pattern)
    on each k-subset of [n].
    ScaleGuardError refuses k! * |E(F)| labelling steps of any other
    pattern, or C(n, k) * (number of labellings) copies times |E(F)| edges
    placed, above COPY_CAP, each before that work starts.
    """
    return place_copies(shapes or explicit_shapes(F, n), n, F.r)


def pair_stars(ranker: EdgeRanker) -> dict[tuple[int, int], int]:
    """Each pair (a, b), a < b, of [n] mapped to the mask of the r-sets
    containing it, in one pass over the ranked r-sets that lists each
    star's positions, set by `_mask_of` (OR-ing in one bit per r-set would
    copy the growing mask each time).  Every pair is listed, in pair-rank
    (colex) order, with mask 0 when r > n."""
    n = ranker.n
    stars = {(a, b): [] for b in range(2, n + 1) for a in range(1, b)}
    for i, t in enumerate(ranker.sets):
        for p in itertools.combinations(t, 2):
            stars[p].append(i)
    return {p: _mask_of(positions) for p, positions in stars.items()}


def minimal_supports(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal elements, sorted by (popcount, value)."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def count_copies(G: RGraph, fam: CopyFamily) -> int:
    """Number of copies entirely contained in G."""
    if (G.n, G.r) != (fam.n, fam.r):
        raise InputError("graph and copy family have incompatible (n, r)")
    g = edge_mask(G.edges)
    return sum(1 for c in fam.copies if c & g == c)


# ---------------------------------------------------------------------------
# brute-force extremal oracles


def _oracle_edges(n: int, r: int) -> int:
    """C(n, r), the potential edges an oracle walks.  InputError refuses
    n < 1, and ScaleGuardError more than ORACLE_CAP_EDGES edges, before
    any copy is listed."""
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    m = comb(n, r)
    if m > ORACLE_CAP_EDGES:
        raise ScaleGuardError(f"{m} potential edges exceeds cap {ORACLE_CAP_EDGES}")
    return m


def brute_force_ex(n: int, spec: FamilySpec) -> tuple[int, RGraph]:
    """Exact ex(n, spec) by branch-and-bound over subgraphs of the complete r-graph.

    `_oracle_edges` refuses n < 1 and more than ORACLE_CAP_EDGES potential
    edges before any copy is listed.  One loop decides edges 0, 1, ... in
    turn: taking edge idx recurses, and leaving it out is the next turn.
    A node is cut unless `room`, its size plus the m - idx edges still
    open, beats the incumbent.  For an explicit pattern, `live` holds the
    copies with no edge left out (`_copy_bitsets`): edge idx may join iff
    no live copy ends there, and leaving it out keeps the live copies
    avoiding it.  For the core-pair family, `_shadow_step` decides.

    The witness is the first optimum in the walk's order, edge 0 taken
    before edge 0 left out, then edge 1, and so on: the optimal free set
    whose indicator vector, read from edge 0, is largest.
    """
    m = _oracle_edges(n, spec.r)
    ranker = EdgeRanker(n, spec.r)
    copies, add, remove = _freeness_test(spec, n, ranker)
    ending, avoiding = _copy_bitsets(copies, m)
    best_size, best_mask = -1, 0

    def walk(idx: int, chosen: int, room: int, live: int) -> None:
        nonlocal best_size, best_mask
        while room > best_size:
            if idx == m:  # passed the cut: strictly larger
                best_size, best_mask = room, chosen
                return
            if not ending[idx] & live and (not add or add(idx)):
                walk(idx + 1, chosen | 1 << idx, room, live)
            if remove:
                remove(idx)
            live &= avoiding[idx]
            idx += 1
            room -= 1

    walk(0, 0, m, (1 << len(copies)) - 1)
    return best_size, RGraph._from_edges(n, spec.r, ranker.unmask(best_mask))


def _copy_bitsets(copies: Collection[int], m: int) -> tuple[list[int], list[int]]:
    """(ending, avoiding) over the copy masks on m edges: bit j of
    `ending[i]` is set iff copy j's last (highest-ranked) edge is i, and bit
    j of `avoiding[i]` iff copy j does not hold edge i."""
    ending, avoiding = [0] * m, [(1 << len(copies)) - 1] * m
    bit = 1
    for cm in copies:
        ending[cm.bit_length() - 1] |= bit
        while cm:  # peeled as `_bits` does, with no list per copy
            low = cm & -cm
            avoiding[low.bit_length() - 1] ^= bit
            cm ^= low
        bit <<= 1
    return ending, avoiding


def _freeness_test(spec: FamilySpec, n: int, ranker: EdgeRanker):
    """(copies, add, remove): how the oracles keep a chosen edge set free of
    `spec`.  For an explicit pattern, its copy masks, each listed once, and
    no steps; for the core-pair family, no copies and `_shadow_step`'s
    steps."""
    if isinstance(spec, CoreFamily):
        return ((), *_shadow_step(ranker, spec.ell))
    return enumerate_forbidden_copies(spec, n).copies, None, None


def _shadow_step(ranker: EdgeRanker, ell: int):
    """(add, remove), the core-pair freeness step of both oracles.

    A graph contains a member of the core-pair family (ell, r) iff its
    shadow graph (the pairs of positive codegree) has an ell-clique.
    `add(idx)` adds the r-set of rank idx and says whether the shadow is
    still K_ell-free; `remove(idx)` takes an added r-set out again.  The
    shadow is one adjacency bitmask per vertex beside a flat list of
    codegrees indexed by pair, and each r-set's pairs are listed once
    with their vertex bits.  `add` covers the r-set's pairs in order: a new
    ell-clique holds a new pair, and the last such pair sees all of the
    clique's other pairs, so the step searches the common neighbourhood of
    each newly covered pair for an (ell - 2)-clique as it is covered, and
    stops searching at the first hit.  It still records every pair before
    it answers, so `remove` undoes it exactly.  For ell <= r every r-set
    alone is a member, so `add` refuses each one and keeps no state.
    """
    if ell <= ranker.r:  # one r-set alone covers an ell-clique
        return (lambda idx: False), (lambda idx: None)
    n, k = ranker.n, ell - 2
    w = n + 1
    # each pair {a < b} of each r-set as (its index a * w + b, a, b, bit of
    # a, bit of b)
    edge_pairs = [
        [(a * w + b, a, b, 1 << a, 1 << b) for a, b in itertools.combinations(t, 2)]
        for t in ranker.sets
    ]
    codeg = [0] * (w * w)
    adj = [0] * (n + 1)  # bit u of adj[v] is set iff {u, v} is covered

    def add(idx: int) -> bool:
        free = True
        for p, a, b, abit, bbit in edge_pairs[idx]:
            if codeg[p]:
                codeg[p] += 1
                continue
            codeg[p] = 1
            adj[a] |= bbit
            adj[b] |= abit
            if free:
                common = adj[a] & adj[b]
                free = common.bit_count() < k or not _has_clique(adj, common, k)
        return free

    def remove(idx: int) -> None:
        for p, a, b, abit, bbit in edge_pairs[idx]:
            codeg[p] -= 1
            if not codeg[p]:
                adj[a] ^= bbit
                adj[b] ^= abit

    return add, remove


def _has_clique(adj: list[int], cand: int, k: int) -> bool:
    """Whether the vertex bitmask `cand` holds a k-clique of the graph `adj`."""
    if k <= 1:
        return k == 0 or cand != 0
    while cand.bit_count() >= k:
        low = cand & -cand
        cand ^= low
        if _has_clique(adj, cand & adj[low.bit_length() - 1], k - 1):
            return True
    return False


def check_target_spec(target_spec: FamilySpec, forbid_spec: FamilySpec) -> None:
    """InputError unless the target of ex(n, T, F) is an explicit pattern of
    F's uniformity with an edge.  A core-pair target family would count
    only the minimal copies it lists, which is no standard objective."""
    if target_spec.r != forbid_spec.r:
        raise InputError("target and forbidden families must share uniformity")
    if isinstance(target_spec, CoreFamily):
        raise InputError(
            "target must be an explicit pattern: a core-pair family would count only its minimal copies"
        )
    if not target_spec.edges:
        raise InputError("target has no edges")


def brute_force_gen_ex(
    n: int, target_spec: FamilySpec, forbid_spec: FamilySpec
) -> tuple[int, RGraph]:
    """Exact generalized Turán number ex(n, T, F): max number of target copies
    in a forbid-free graph, by branch-and-bound over subgraphs; refused on
    n < 1 or above ORACLE_CAP_EDGES potential edges before any copy is
    listed.  The target must pass `check_target_spec`.  The walk, its
    freeness test and its witness are `brute_force_ex`'s, and the target
    copies are kept in the same bitsets over their own indices: taking edge
    idx completes the live target copies ending there, and leaving it out
    kills the live ones through it.  A node is cut unless `alive`, the
    copies done plus those still live, beats the incumbent.  A target copy
    holding a forbidden copy of an explicit F is in no free graph, so it is
    dropped before the walk."""
    check_target_spec(target_spec, forbid_spec)
    r = forbid_spec.r
    m = _oracle_edges(n, r)
    ranker = EdgeRanker(n, r)
    forb, add, remove = _freeness_test(forbid_spec, n, ranker)
    targ = [
        t
        for t in enumerate_forbidden_copies(target_spec, n).copies
        if not any(f & t == f for f in forb)
    ]
    ending, avoiding = _copy_bitsets(forb, m)
    t_end, t_avoiding = _copy_bitsets(targ, m)
    best_count, best_mask = -1, 0

    def walk(idx: int, chosen: int, done: int, alive: int, live: int, tlive: int) -> None:
        # done: target copies already fully inside chosen
        nonlocal best_count, best_mask
        while alive > best_count:
            if idx == m:  # passed the cut: every alive copy is done
                best_count, best_mask = done, chosen
                return
            if not ending[idx] & live and (not add or add(idx)):
                gained = (t_end[idx] & tlive).bit_count()
                walk(idx + 1, chosen | 1 << idx, done + gained, alive, live, tlive)
            if remove:
                remove(idx)
            kept = tlive & t_avoiding[idx]
            alive -= (tlive ^ kept).bit_count()
            tlive = kept
            live &= avoiding[idx]
            idx += 1

    walk(0, 0, 0, len(targ), (1 << len(forb)) - 1, (1 << len(targ)) - 1)
    return best_count, RGraph._from_edges(n, r, ranker.unmask(best_mask))


# ---------------------------------------------------------------------------
# named builtin specs and file ingestion


def builtin_spec(name: str) -> FamilySpec:
    """Named specs: K2..K9, P3, C4, and K_ell_r(L,R) for the core-pair family."""
    name = name.strip()
    cliques = {f"K{s}": s for s in range(2, 10)}
    if name in cliques:
        s = cliques[name]
        return RGraph.complete(s, 2)
    if name == "P3":
        return RGraph(3, 2, [(1, 2), (2, 3)])
    if name == "C4":
        return RGraph(4, 2, [(1, 2), (2, 3), (3, 4), (1, 4)])
    if name.startswith("K_ell_r(") and name.endswith(")"):
        inner = name[len("K_ell_r(") : -1]
        try:
            ell, r = (int(x) for x in inner.split(","))
        except ValueError as exc:
            raise InputError(f"cannot parse core-family spec {name!r}") from exc
        return CoreFamily(ell, r)
    raise InputError(f"unknown builtin spec {name!r}")


def parse_hypergraph(text: str) -> RGraph:
    """Parse the hypergraph text format: line 1 is `n r`; each following
    non-comment line lists r vertex indices; `#` starts a comment."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InputError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"header must be 'n r', got {lines[0]!r}")
    n, r = int(head[0]), int(head[1])
    edges = []
    for line in lines[1:]:
        vs = [int(x) for x in line.split()]
        if len(vs) != r:
            raise InputError(f"edge line {line!r} does not list {r} vertices")
        edges.append(vs)
    return RGraph(n, r, edges)


__all__ = [
    "RGraph",
    "CopyFamily",
    "CoreFamily",
    "EdgeRanker",
    "rsets_colex",
    "colex_rank",
    "colex_unrank",
    "edge_mask",
    "balanced_partition",
    "partition_pairs",
    "turan_construct",
    "turan_count",
    "core_family_free",
    "COPY_CAP",
    "complete_shape",
    "explicit_copy_count",
    "explicit_shapes",
    "guard_copy_listing",
    "pair_shadows",
    "place_copies",
    "enumerate_forbidden_copies",
    "pair_stars",
    "minimal_supports",
    "count_copies",
    "brute_force_ex",
    "check_target_spec",
    "brute_force_gen_ex",
    "builtin_spec",
    "parse_hypergraph",
]
