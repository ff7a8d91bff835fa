"""r-uniform hypergraphs on [n], Turán constructions, and exact search oracles.

Edges are r-element frozensets of 1-based vertices.  Edge sets are bitmasks
over the C(n, r) potential edges under a fixed colexicographic rank
function (`EdgeRanker`), so subset tests are single AND ops.  A forbidden
copy is such a mask from the moment it is listed: the squarefree monomial
of its edges in the edge-variable ring.

Copies of an explicit pattern F on k vertices are vertex sets times
labellings: the k!/|Aut(F)| distinct relabellings of F's edges (one for a
complete pattern, which is not relabelled) are computed once and placed on
each k-subset of [n].  Core-pair copies on one ell-core
are the Alexander dual of its pairs' stars (`pair_stars`).  The core-pair
family oracle keeps the shadow graph of covered pairs as one adjacency
bitmask per vertex and decides each new violation with a bitset clique
search; `core_family_free` runs the same search on a whole graph's shadow.
The oracles import nothing from the cover-ideal search or the
polynomial core: they are the independent check of both.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass, field
from math import comb, factorial
from operator import lt
from typing import Iterable, Sequence

from .errors import InputError, ScaleGuardError

Edge = frozenset


# ---------------------------------------------------------------------------
# ranking of r-sets


def rsets_colex(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of [n] as sorted tuples, in colexicographic order."""
    return sorted(itertools.combinations(range(1, n + 1), r), key=lambda t: t[::-1])


class EdgeRanker:
    """Fixed bijection between r-subsets of [n] and bit positions [0, C(n,r))."""

    def __init__(self, n: int, r: int):
        self.n = n
        self.r = r
        self.sets = rsets_colex(n, r)
        self.rank = {frozenset(t): i for i, t in enumerate(self.sets)}
        self.edges = list(self.rank)
        self.count = len(self.sets)

    def mask(self, edges: Iterable[Edge]) -> int:
        m = 0
        for e in edges:
            m |= 1 << self.rank[frozenset(e)]
        return m

    def unmask(self, mask: int) -> list[Edge]:
        """The edges of the set bits, in rank order; one pass over the
        mask's binary digits, so linear in its length."""
        digits = bin(mask)[:1:-1]
        return [self.edges[i] for i, d in enumerate(digits) if d == "1"]


# ---------------------------------------------------------------------------
# core types


class RGraph:
    """An r-uniform hypergraph on vertex set [n], identified with its edge set."""

    __slots__ = ("n", "r", "edges")

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]] = ()):
        if n < 1 or r < 1:
            raise InputError(f"need n, r >= 1, got n={n}, r={r}")
        es = set()
        for e in edges:
            fe = frozenset(e)
            if len(fe) != r:
                raise InputError(f"edge {sorted(fe)} does not have {r} distinct vertices")
            if not all(1 <= v <= n for v in fe):
                raise InputError(f"edge {sorted(fe)} has vertices outside [1, {n}]")
            es.add(fe)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "edges", frozenset(es))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RGraph is immutable")

    @classmethod
    def complete(cls, n: int, r: int) -> "RGraph":
        return cls(n, r, itertools.combinations(range(1, n + 1), r))

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RGraph):
            return NotImplemented
        return (self.n, self.r, self.edges) == (other.n, other.r, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

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

    Each copy is a nonzero edge mask over the ranks of `EdgeRanker(n, r)`,
    in strictly increasing order.  `span`, for the copies of an explicit
    pattern, is the k vertices each spans; it takes no part in equality.
    """

    n: int
    r: int
    copies: tuple[int, ...]
    span: int | None = field(default=None, compare=False)

    def __post_init__(self):
        copies = self.copies
        if 0 in copies:
            raise InputError("empty copy in CopyFamily")
        if not all(map(lt, copies, copies[1:])):
            kind = "duplicate copy" if len(set(copies)) < len(copies) else "copies out of order"
            raise InputError(f"{kind} in CopyFamily")

    def __len__(self) -> int:
        return len(self.copies)

    def restrict(self, m: int) -> "CopyFamily":
        """The copies inside [m], m <= n: colex ranks put the r-sets of [m]
        first, so these are the masks below 1 << C(m, r), a prefix of the
        sorted list.  This is `enumerate_forbidden_copies(spec, m)`, minimal
        core-pair copies included (a minimal copy on [n] inside [m] is
        minimal on [m], and conversely), except for an explicit pattern
        declared on more than m vertices, which that call does not place."""
        end = bisect_left(self.copies, 1 << comb(m, self.r))
        # a prefix of checked copies is still nonzero and increasing, so the
        # family is built without running __post_init__ again
        fam = object.__new__(CopyFamily)
        fam.__dict__.update(n=m, r=self.r, copies=self.copies[:end], span=self.span)
        return fam


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


def balanced_partition(n: int, q: int) -> list[list[int]]:
    """Partition [n] into q parts in index order, larger parts first."""
    if n < 0 or q < 1:
        raise InputError(f"bad partition parameters n={n}, q={q}")
    base, extra = divmod(n, q)
    parts = []
    v = 1
    for i in range(q):
        size = base + (1 if i < extra else 0)
        parts.append(list(range(v, v + size)))
        v += size
    return parts


def turan_construct(n: int, q: int, r: int) -> RGraph:
    """The complete balanced q-partite r-graph T_r(n, q)."""
    parts = balanced_partition(n, q)
    part_of = {}
    for i, P in enumerate(parts):
        for v in P:
            part_of[v] = i
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
    if r > q:
        return 0
    if n < 0 or q < 1 or r < 0:
        raise InputError(f"bad Turán parameters n={n}, q={q}, r={r}")
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
TRANSVERSAL_CAP = 1_000_000
ORACLE_CAP_EDGES = 30


def _shapes(F: RGraph) -> tuple[int, set]:
    """(k, shapes) of an explicit pattern: its k edge-covered vertices and
    the distinct images of its edges under the k! relabellings of those
    vertices by positions 0..k-1, which are k!/|Aut(F)| shapes.  A complete
    pattern (all C(k, r) edges) is its only shape and is not relabelled;
    for any other, ScaleGuardError refuses k! * |E(F)| labelling steps above
    COPY_CAP."""
    verts = sorted(set().union(*F.edges)) if F.edges else []
    if not verts:
        raise InputError("forbidden graph has no edges")
    k = len(verts)
    index = {v: i for i, v in enumerate(verts)}
    edges = [[index[v] for v in e] for e in F.edges]
    if len(edges) == comb(k, F.r):
        return k, {frozenset(map(frozenset, edges))}
    labelling_work = factorial(k) * len(F.edges)
    if labelling_work > COPY_CAP:
        raise ScaleGuardError(f"labelling work {labelling_work} exceeds cap {COPY_CAP}")
    shapes = {
        frozenset(frozenset(p[i] for i in e) for e in edges)
        for p in itertools.permutations(range(k))
    }
    return k, shapes


def explicit_shapes(F: RGraph, n: int) -> tuple[int, set]:
    """`_shapes(F)` for F placed in [n]; (0, set()), no shape, when F.n > n."""
    return _shapes(F) if F.n <= n else (0, set())


def explicit_copy_count(shapes: tuple[int, set], n: int) -> int:
    """len(enumerate_forbidden_copies(F, n)) from `explicit_shapes(F, n)`,
    C(n, k) * (number of shapes), found without listing a single copy."""
    k, found = shapes
    return comb(n, k) * len(found)


def guard_copy_listing(copies: int, edges: int) -> None:
    """Refuse to list `copies` copies of `edges` edges each: ScaleGuardError
    when the edges placed exceed COPY_CAP."""
    if copies * edges > COPY_CAP:
        raise ScaleGuardError(f"copy count {copies} x {edges} edges exceeds cap {COPY_CAP}")


def enumerate_forbidden_copies(
    spec: FamilySpec, n: int, shapes: tuple[int, set] | None = None
) -> CopyFamily:
    """All copies of `spec` inside the complete r-graph on [n], as edge masks
    over `EdgeRanker(n, r)` in increasing order.

    For an explicit RGraph F, copies are the edge sets of the embeddings of
    F into [n]; F needs n >= F.n.  `shapes` is `explicit_shapes(F, n)` when
    the caller has found it already.  They are listed as
    k-subsets of [n] times the distinct labellings of F's k edge-covered
    vertices (one for a complete pattern), and ScaleGuardError refuses
    k! * |E(F)| labelling steps of any other pattern, or C(n, k) * (number
    of labellings) copies times |E(F)| edges placed, above COPY_CAP, each
    before that work starts.  The family records k as its span.
    For the symbolic core-pair family, only inclusion-minimal
    copies are emitted (hitting them all is hitting all copies): per
    ell-core, the Alexander dual of its pairs' stars, then
    `minimal_supports` across cores.  ScaleGuardError first refuses
    C(n, ell) * C(n-2, r-2)^C(ell, 2) one-edge-per-pair systems above
    COPY_CAP.  That bounds the dualizer: a minimal transversal of the first
    i stars is the union of a system of those i pairs, so its candidate
    list at step i is never longer than the number of those systems.
    """
    if isinstance(spec, RGraph):
        F = spec
        k, shapes = shapes or explicit_shapes(F, n)
        if not shapes:
            return CopyFamily(n, F.r, ())
        guard_copy_listing(comb(n, k) * len(shapes), len(F.edges))
        # every vertex of F lies in an edge, so a copy's vertex set is the k-set
        # it was placed on, and distinct (k-set, shape) pairs give distinct copies
        rank = EdgeRanker(n, F.r).rank
        copies = [
            sum(1 << rank[frozenset(c[i] for i in e)] for e in shape)
            for c in itertools.combinations(range(1, n + 1), k)
            for shape in shapes
        ]
        return CopyFamily(n, F.r, tuple(sorted(copies)), k)

    ell, r = spec.ell, spec.r
    if n < max(ell, r):
        return CopyFamily(n, r, ())
    projected = comb(n, ell) * comb(n - 2, r - 2) ** comb(ell, 2)
    if projected > COPY_CAP:
        raise ScaleGuardError(f"projected copy count {projected} exceeds cap {COPY_CAP}")
    ranker = EdgeRanker(n, r)
    stars = pair_stars(ranker)
    core_copies = itertools.chain.from_iterable(
        alexander_dual([stars[p] for p in itertools.combinations(core, 2)])
        for core in itertools.combinations(range(1, n + 1), ell)
    )
    return CopyFamily(n, r, tuple(sorted(minimal_supports(core_copies))))


def pair_stars(ranker: EdgeRanker) -> dict[tuple[int, int], int]:
    """Each pair (a, b), a < b, of [n] mapped to the mask of the r-sets
    containing it, in one pass over the ranked r-sets.  Every pair is
    listed, with mask 0 when r > n."""
    stars = dict.fromkeys(itertools.combinations(range(1, ranker.n + 1), 2), 0)
    for i, t in enumerate(ranker.sets):
        for p in itertools.combinations(t, 2):
            stars[p] |= 1 << i
    return stars


def minimal_supports(masks: Iterable[int]) -> list[int]:
    """Inclusion-minimal elements, sorted by (popcount, value)."""
    ordered = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in ordered:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def alexander_dual(gens: Sequence[int]) -> list[int]:
    """Minimal transversals of the generator supports (classical incremental
    dualization: refine the antichain of minimal partial transversals one
    hyperedge at a time).  Involutive on antichains.  ScaleGuardError
    refuses an antichain of more than TRANSVERSAL_CAP transversals."""
    gens = minimal_supports(gens)
    if any(g == 0 for g in gens):
        # nothing hits the empty support: the dual of the whole ring is zero
        return []
    transversals = [0]
    for g in gens:
        hit = [t for t in transversals if t & g]
        missed = [t for t in transversals if not (t & g)]
        extended = [t | (1 << b) for t in missed for b in _bits(g)]
        transversals = minimal_supports(hit + extended)
        if len(transversals) > TRANSVERSAL_CAP:
            raise ScaleGuardError(f"transversal antichain exceeded cap {TRANSVERSAL_CAP}")
    return transversals


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def count_copies(G: RGraph, fam: CopyFamily) -> int:
    """Number of copies entirely contained in G."""
    if (G.n, G.r) != (fam.n, fam.r):
        raise InputError("graph and copy family have incompatible (n, r)")
    g = EdgeRanker(G.n, G.r).mask(G.edges)
    return sum(1 for c in fam.copies if c & g == c)


# ---------------------------------------------------------------------------
# brute-force extremal oracles


def brute_force_ex(n: int, spec: FamilySpec) -> tuple[int, RGraph]:
    """Exact ex(n, spec) by branch-and-bound over subgraphs of the complete r-graph.

    Deterministic: among optimal witnesses, the one with lexicographically
    smallest edge bitmask (colex edge ranks) is returned.  ScaleGuardError
    refuses more than ORACLE_CAP_EDGES potential edges before any copy is
    listed.
    """
    m = comb(n, spec.r)
    if m > ORACLE_CAP_EDGES:
        raise ScaleGuardError(f"{m} potential edges exceeds cap {ORACLE_CAP_EDGES}")
    if isinstance(spec, CoreFamily):
        return _brute_force_ex_core_family(n, spec)
    fam = enumerate_forbidden_copies(spec, n)
    r = fam.r
    ranker = EdgeRanker(n, r)
    if not fam.copies:
        return m, RGraph.complete(n, r)

    # copies indexed by their highest-ranked edge: a copy can only become
    # fully chosen when its last edge is added
    by_last: list[list[int]] = [[] for _ in range(m)]
    for cm in fam.copies:
        by_last[cm.bit_length() - 1].append(cm)

    best_size = -1
    best_mask = 0

    def dfs(idx: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size + (m - idx) < best_size:
            return
        if idx == m:
            if size > best_size or (size == best_size and chosen < best_mask):
                best_size, best_mask = size, chosen
            return
        # include edge idx if it completes no forbidden copy
        cand = chosen | (1 << idx)
        if all((cm & cand) != cm for cm in by_last[idx]):
            dfs(idx + 1, cand, size + 1)
        dfs(idx + 1, chosen, size)

    dfs(0, 0, 0)
    witness = RGraph(n, r, ranker.unmask(best_mask))
    return best_size, witness


def _brute_force_ex_core_family(n: int, spec: CoreFamily) -> tuple[int, RGraph]:
    """Core-pair family oracle on the shadow graph of covered pairs.

    A graph contains a member iff its shadow graph (the pairs of positive
    codegree) has an ell-clique.  Adding an edge can only create one through
    a pair (a, b) it newly covers, and such a pair lies in an ell-clique iff
    the common shadow neighbourhood of a and b holds an (ell - 2)-clique.
    The shadow graph is one adjacency bitmask per vertex, kept in step with
    the codegree counts as the DFS adds and removes edges.
    """
    ell, r = spec.ell, spec.r
    ranker = EdgeRanker(n, r)
    m = ranker.count
    if n < ell:
        return m, RGraph.complete(n, r)

    edge_pairs = [list(itertools.combinations(t, 2)) for t in ranker.sets]
    codeg = [[0] * (n + 1) for _ in range(n + 1)]  # codeg[a][b] for a < b
    adj = [0] * (n + 1)  # bit u of adj[v] is set iff {u, v} is covered

    best_size = -1
    best_mask = 0

    def dfs(idx: int, chosen: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size + (m - idx) < best_size:
            return
        if idx == m:
            if size > best_size or (size == best_size and chosen < best_mask):
                best_size, best_mask = size, chosen
            return
        new_pairs = []
        for a, b in edge_pairs[idx]:
            if not codeg[a][b]:
                new_pairs.append((a, b))
                adj[a] |= 1 << b
                adj[b] |= 1 << a
            codeg[a][b] += 1
        if not any(_has_clique(adj, adj[a] & adj[b], ell - 2) for a, b in new_pairs):
            dfs(idx + 1, chosen | (1 << idx), size + 1)
        for a, b in edge_pairs[idx]:
            codeg[a][b] -= 1
        for a, b in new_pairs:
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
        dfs(idx + 1, chosen, size)

    dfs(0, 0, 0)
    witness = RGraph(n, r, ranker.unmask(best_mask))
    return best_size, witness


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


def brute_force_gen_ex(
    n: int, target_spec: FamilySpec, forbid_spec: FamilySpec
) -> tuple[int, RGraph]:
    """Exact generalized Turán number ex(n, T, F): max number of target copies
    in a forbid-free graph, by branch-and-bound over subgraphs; refused above
    ORACLE_CAP_EDGES potential edges before any copy is listed."""
    r = forbid_spec.r
    if target_spec.r != r:
        raise InputError("target and forbidden families must share uniformity")
    m = comb(n, r)
    if m > ORACLE_CAP_EDGES:
        raise ScaleGuardError(f"{m} potential edges exceeds cap {ORACLE_CAP_EDGES}")
    forb = enumerate_forbidden_copies(forbid_spec, n)
    targ = enumerate_forbidden_copies(target_spec, n)
    ranker = EdgeRanker(n, r)

    forb_by_last: list[list[int]] = [[] for _ in range(m)]
    for cm in forb.copies:
        forb_by_last[cm.bit_length() - 1].append(cm)
    # target copies grouped by last edge: count completed copies incrementally;
    # and by every edge: excluding an edge loses only the copies through it
    targ_by_last: list[list[int]] = [[] for _ in range(m)]
    targ_by_edge: list[list[int]] = [[] for _ in range(m)]
    for cm in targ.copies:
        targ_by_last[cm.bit_length() - 1].append(cm)
        for idx in range(m):
            if cm >> idx & 1:
                targ_by_edge[idx].append(cm)

    best_count = -1
    best_mask = 0

    def dfs(idx: int, chosen: int, excluded: int, done: int, alive: int) -> None:
        # done: target copies already fully inside chosen
        # alive: upper bound = done + copies not yet touching an excluded edge
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
        lost = sum(1 for cm in targ_by_edge[idx] if not (cm & excluded))
        dfs(idx + 1, chosen, excluded | bit, done, alive - lost)

    dfs(0, 0, 0, 0, len(targ))
    witness = RGraph(n, r, ranker.unmask(best_mask))
    return best_count, witness


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
    "balanced_partition",
    "turan_construct",
    "turan_count",
    "core_family_free",
    "COPY_CAP",
    "explicit_copy_count",
    "explicit_shapes",
    "guard_copy_listing",
    "enumerate_forbidden_copies",
    "pair_stars",
    "minimal_supports",
    "alexander_dual",
    "count_copies",
    "brute_force_ex",
    "brute_force_gen_ex",
    "builtin_spec",
    "parse_hypergraph",
]
