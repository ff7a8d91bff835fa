"""Square-zero quadratic monomial quotients and Hilbert-function symmetrization.

A quotient is determined by its kill graph: the set of unordered variable
pairs whose product vanishes (all squares vanish implicitly).  The degree-d
Hilbert value counts d-subsets of [n] containing no kill pair, so everything
here is exact combinatorial counting on the kill graph.

The kill graph is kept as one adjacency bitmask per variable, and every
step works on those masks: the Hilbert count is an iterative branching over
vertex masks, in smallest-last order of the non-kill graph (most kill
partners first), with closed forms for d <= 3 and binomial blocks of free
vertices, under a step budget (HILBERT_CAP_STEPS); parallel classes are
grouped by closed-neighbourhood mask, once per quotient, and
symmetrization picks its clone pair from the class representatives alone; a
clone step rewrites only the masks it changes.

Symmetrization counts the degree-r Hilbert value once before its first
clone and carries it through the steps by the cloning ledger: cloning class
T onto class S changes it by |T| (lambda_S - lambda_T).  One count of the
terminal quotient certifies the carried value, so a call makes at most three
Hilbert counts however many steps it takes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import _bits, partition_pairs

# stack entries one Hilbert count may pop before it is refused
HILBERT_CAP_STEPS = 5_000_000


def elem_sym(values, r: int) -> int:
    """Elementary symmetric polynomial e_r evaluated at a tuple of integers.

    e_0 = 1; e_r = 0 for r < 0 or r > len(values).
    """
    vals = list(values)
    if r < 0 or r > len(vals):
        return 0
    # DP over e_0..e_r
    e = [1] + [0] * r
    for v in vals:
        for k in range(r, 0, -1):
            e[k] += v * e[k - 1]
    return e[r]


def smoothing_step(values, r: int) -> tuple[tuple[int, ...], int]:
    """One balancing step: replace a maximal entry a and a minimal entry b with
    a >= b + 2 by (a-1, b+1).  Returns (new tuple, e_r gain); the gain equals
    (a - b - 1) * e_{r-2}(other entries) and is always >= 0.
    """
    vals = list(values)
    if not vals:
        return tuple(vals), 0
    a = max(vals)
    b = min(vals)
    if a < b + 2:
        return tuple(vals), 0
    ia = vals.index(a)
    rest = vals[:ia] + vals[ia + 1 :]
    ib = rest.index(b)
    others = rest[:ib] + rest[ib + 1 :]
    delta = (a - b - 1) * elem_sym(others, r - 2)
    new_vals = list(vals)
    new_vals[ia] = a - 1
    # adjust the first minimal entry distinct from position ia
    jb = next(i for i, v in enumerate(new_vals) if v == b and i != ia)
    new_vals[jb] = b + 1
    return tuple(new_vals), delta


@dataclass(frozen=True)
class ParallelPartition:
    """Maximal parallel classes of a quotient plus the uniform cross-product
    flags (True = all products between the two classes vanish)."""

    classes: tuple[tuple[int, ...], ...]
    zero_between: dict


def _bad_pair(p) -> InputError:
    """The refusal of a kill pair that is not two distinct variables of [n].
    It names the pair's distinct entries, or all of them when a repeat hides
    a third entry, as in (1, 2, 2)."""
    entries = tuple(p)
    distinct = sorted(set(entries))
    return InputError(f"bad kill pair {sorted(entries) if len(distinct) == 2 else distinct}")


class SquareZeroQuotient:
    """n variables with a kill graph of vanishing quadratic products.

    The kill graph is stored only as adjacency masks: bit b of `_adj[a]` is
    set iff x_a x_b = 0 (a != b).  Equality and hashing compare (n, _adj).
    `_classes` holds the parallel-class masks once `_class_masks` has built
    them (None before), so each quotient groups its variables at most once.
    """

    __slots__ = ("n", "_adj", "_classes")

    def __init__(self, n: int, kill=()):
        if n < 1:
            raise InputError("need n >= 1")
        adj = [0] * (n + 1)
        for p in kill:
            try:
                a, b = p
            except ValueError:
                raise _bad_pair(p) from None
            if a == b or not (0 < a <= n and 0 < b <= n):
                raise _bad_pair(p)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_classes", None)

    @classmethod
    def _from_adj(cls, n: int, adj) -> "SquareZeroQuotient":
        """A quotient on [n] with the given (symmetric, loop-free) masks."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))
        object.__setattr__(self, "_classes", None)
        return self

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SquareZeroQuotient is immutable")

    def __eq__(self, other):
        if not isinstance(other, SquareZeroQuotient):
            return NotImplemented
        return (self.n, self._adj) == (other.n, other._adj)

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"SquareZeroQuotient(n={self.n}, kill={self._pairs()})"

    @property
    def kill(self) -> frozenset:
        """The kill graph as a frozenset of 2-element frozensets."""
        return frozenset(frozenset(p) for p in self._pairs())

    def _pairs(self) -> list[tuple[int, int]]:
        """Kill pairs (a, b), a < b, in lexicographic order."""
        pairs = []
        for a in range(1, self.n + 1):
            later = self._adj[a] >> (a + 1)
            while later:
                low = later & -later
                later ^= low
                pairs.append((a, a + low.bit_length()))
        return pairs

    @classmethod
    def from_partition(cls, n: int, q: int) -> "SquareZeroQuotient":
        """The complete balanced q-partite quotient: kill within-part pairs
        (`hypergraph.partition_pairs`)."""
        return cls(n, partition_pairs(n, q))

    def killed(self, a: int, b: int) -> bool:
        return bool(self._adj[a] >> b & 1)

    # -- Hilbert data --------------------------------------------------

    def hilbert(self, d: int) -> int:
        """Number of standard degree-d monomials: d-subsets with no kill pair."""
        if d < 0:
            raise InputError("degree must be nonnegative")
        return self._count((1 << (self.n + 1)) - 2, d)

    def _count(self, allowed: int, d: int) -> int:
        """Number of d-subsets of the vertex mask `allowed` with no kill pair.

        Depth-first over an explicit stack of (allowed, d, multiplicity, p).
        An entry branches on its first vertex v in `order`, searched from
        position p on: subsets avoiding v, plus subsets through v with v's
        kill partners barred.  Both children hold only vertices after v, so
        they start at v's position + 1.  Each d-set is counted once, on the
        branch path through its own vertices, so any order gives the same
        count.  `order` is the smallest-last order of the non-kill graph on
        the call's vertices (`_kill_order`): each vertex has the most kill
        partners among those after it, so the child through v keeps only its
        later non-kill partners, at most the degeneracy of the non-kill graph
        (Matula and Beck 1983; Chiba and Nishizeki 1985).  The order is built
        only for d >= 4, since no entry of a smaller d branches.  Four
        shortcuts end a branch or widen it:

        * d <= 1: the count is 1 or popcount(allowed);
        * d == 2: C(m, 2) minus the kill pairs inside `allowed`;
        * d == 3: a closed form in edges, degrees and triangles of the
          sparser of the kill graph and its complement inside `allowed`;
        * v has no kill partner in `allowed`: every such free vertex, f of
          them, is pulled out as one block, and (rest, d - k, C(f, k)) is
          pushed for each k, since the block's k-subsets combine freely with
          any standard subset of the rest.

        Each popped entry is one step; past HILBERT_CAP_STEPS the count is
        refused with ScaleGuardError.
        """
        adj = self._adj
        order = _kill_order(adj, allowed) if d >= 4 else ()
        total = 0
        steps = 0
        stack = [(allowed, d, 1, 0)]
        while stack:
            allowed, d, mult, p = stack.pop()
            steps += 1
            if steps > HILBERT_CAP_STEPS:
                raise ScaleGuardError(
                    f"Hilbert count exceeds {HILBERT_CAP_STEPS} steps"
                )
            if d == 0:
                total += mult
                continue
            m = allowed.bit_count()
            if m < d:
                continue
            if d == 1:
                total += mult * m
                continue
            if d == 2:
                pairs = comb(m, 2)
                later = allowed
                while later:
                    low = later & -later
                    later ^= low
                    pairs -= (adj[low.bit_length() - 1] & later).bit_count()
                total += mult * pairs
                continue
            if d == 3:
                total += mult * _independent_triples(adj, allowed, m)
                continue
            v = order[p]
            while not allowed >> v & 1:
                p += 1
                v = order[p]
            p += 1
            if adj[v] & allowed:
                without = allowed ^ (1 << v)
                stack.append((without, d, mult, p))
                stack.append((without & ~adj[v], d - 1, mult, p))
                continue
            free = 0
            scan = allowed
            while scan:
                low = scan & -scan
                scan ^= low
                if not adj[low.bit_length() - 1] & allowed:
                    free |= low
            rest = allowed ^ free
            f = free.bit_count()
            for k in range(max(0, d - rest.bit_count()), min(f, d) + 1):
                stack.append((rest, d - k, mult * comb(f, k), p))
        return total

    def top_vanishing(self, q: int) -> bool:
        """Whether the degree-(q+1) piece vanishes."""
        if q < 0:
            raise InputError("q must be nonnegative")
        return self.hilbert(q + 1) == 0

    # -- parallel structure --------------------------------------------

    def _class_masks(self) -> dict[int, int]:
        """Closed kill-neighbourhood mask -> mask of the variables that have
        it, i.e. the parallel classes, in order of their first variables.
        Built on the first call and kept, since the masks never change;
        callers only read it."""
        if self._classes is None:
            object.__setattr__(self, "_classes", _group_classes(self._adj))
        return self._classes

    def parallel_classes(self) -> ParallelPartition:
        """Group variables by equal closed kill-neighborhoods; two variables
        are parallel iff they are killed together and their external kill
        sets agree, which is exactly closed-neighborhood equality.

        Each cross flag is read from one pair of representatives.  It is
        uniform over C x D: for u, u' in C and v in D (so v is neither),
        N[u] = N[u'] gives v in N[u] iff v in N[u'], i.e. x_u x_v = 0 iff
        x_u' x_v = 0; the same argument with N[v] = N[v'] moves v within D.
        """
        classes = tuple(tuple(_bits(mask)) for mask in self._class_masks().values())
        zero_between = {
            (C, D): self.killed(C[0], D[0])
            for C, D in itertools.combinations(classes, 2)
        }
        return ParallelPartition(classes, zero_between)

    def first_zero_product_pair(self):
        """The pair (C, D) of distinct parallel classes with all cross
        products zero and the smallest (C[0], D[0]), or None when there is
        none.  It is the least zero flag of `parallel_classes`, found from
        the class representatives alone: the first representative u with a
        kill partner among the later representatives, and the first such
        partner."""
        adj = self._adj
        classes = self._class_masks()
        reps = 0
        for mask in classes.values():
            reps |= mask & -mask
        while reps:
            low = reps & -reps
            reps ^= low
            u = low.bit_length() - 1
            # reps now holds the representatives after u
            hit = adj[u] & reps
            if hit:
                v = (hit & -hit).bit_length() - 1
                return tuple(_bits(classes[adj[u] | low])), tuple(_bits(classes[adj[v] | (1 << v)]))
        return None

    def lambda_dim(self, c: int, d: int) -> int:
        """dim of x_c * (degree-d piece): standard d-subsets avoiding c and
        all kill partners of c."""
        if not 1 <= c <= self.n:
            raise InputError(f"variable {c} out of range")
        if d < 0:
            raise InputError("degree must be nonnegative")
        allowed = ((1 << (self.n + 1)) - 2) & ~((1 << c) | self._adj[c])
        return self._count(allowed, d)

    # -- cloning -------------------------------------------------------

    def clone(self, source, target) -> "SquareZeroQuotient":
        """Make the variables of `target` clones of those of `source`.

        Both must be distinct parallel classes with all cross products zero.
        Afterwards all pairs inside source+target are killed, target inherits
        source's external kill relations, and everything else is unchanged.
        Only the masks of source, target and their external neighbours are
        rewritten.
        """
        S = tuple(sorted(source))
        T = tuple(sorted(target))
        if not S or not T or not all(1 <= v <= self.n for v in S + T):
            raise InputError("clone needs two distinct parallel classes")
        # a repeated vertex carries in the sum, so its popcount falls short
        s_mask = sum(1 << v for v in S)
        t_mask = sum(1 << v for v in T)
        classes = self._class_masks().values()
        if (
            s_mask.bit_count() != len(S)
            or t_mask.bit_count() != len(T)
            or s_mask not in classes
            or t_mask not in classes
            or s_mask == t_mask
        ):
            raise InputError("clone needs two distinct parallel classes")
        if not self.killed(S[0], T[0]):
            raise InputError("clone needs zero products between the classes")
        adj = list(self._adj)
        inside = s_mask | t_mask
        external = self._adj[S[0]] & ~inside
        # target's old external neighbours lose it; source's gain it
        scan = (self._adj[T[0]] & ~inside) | external
        while scan:
            low = scan & -scan
            scan ^= low
            z = low.bit_length() - 1
            adj[z] = adj[z] & ~t_mask | (t_mask if external & low else 0)
        for v in S + T:
            adj[v] = (inside ^ (1 << v)) | external
        return SquareZeroQuotient._from_adj(self.n, adj)


def _group_classes(adj) -> dict[int, int]:
    """Closed-neighbourhood mask -> mask of the vertices 1..n that have it,
    for the adjacency masks `adj` (index 0 unused)."""
    classes: dict[int, int] = {}
    for v in range(1, len(adj)):
        closed = adj[v] | (1 << v)
        classes[closed] = classes.get(closed, 0) | (1 << v)
    return classes


def _kill_order(adj, allowed: int) -> list[int]:
    """The vertices of `allowed`, each next one with the most kill partners
    among those not yet placed: the smallest-last order of the non-kill graph
    inside `allowed`.  A bucket queue on kill degree builds it in O(m + e)
    for m vertices and e kill pairs: placing a vertex moves each unplaced
    kill partner one bucket down, and the entry it leaves behind is skipped,
    since its degree no longer matches that bucket."""
    verts = _bits(allowed)
    deg = [0] * len(adj)
    buckets = [[] for _ in verts]
    for v in verts:
        deg[v] = k = (adj[v] & allowed).bit_count()
        buckets[k].append(v)
    order = []
    left = allowed
    top = len(verts) - 1
    while top >= 0:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        v = bucket.pop()
        if deg[v] != top:
            continue
        order.append(v)
        left ^= 1 << v
        for u in _bits(adj[v] & left):
            deg[u] -= 1
            buckets[deg[u]].append(u)
    return order


def _independent_triples(adj, allowed: int, m: int) -> int:
    """Number of 3-subsets of the m-vertex mask `allowed` with no kill pair.

    With e kill pairs inside `allowed` and degrees deg(v) there, inclusion-
    exclusion over the kill pairs of a triple gives
    C(m, 3) - e (m - 2) + sum_v C(deg v, 2) - (kill triangles).  When the
    kill graph is the denser side (2e > C(m, 2)) the triples are counted
    directly instead, as the triangles of its complement.
    """
    twice_e = 0
    paths = 0
    scan = allowed
    while scan:
        low = scan & -scan
        scan ^= low
        deg = (adj[low.bit_length() - 1] & allowed).bit_count()
        twice_e += deg
        paths += deg * (deg - 1) // 2
    if twice_e > comb(m, 2):
        return _triangles(adj, allowed, -1)
    return comb(m, 3) - twice_e // 2 * (m - 2) + paths - _triangles(adj, allowed, 0)


def _triangles(adj, allowed: int, flip: int) -> int:
    """Triangles inside `allowed` of the kill graph (flip = 0) or of its
    complement (flip = -1, so that adj[v] ^ flip = ~adj[v]).  Each triangle
    u < w < x is found once, at u, as a neighbour x > w shared by u and w."""
    count = 0
    scan = allowed
    while scan:
        low = scan & -scan
        scan ^= low
        # scan now holds the vertices after u, so no self bit is read
        later = (adj[low.bit_length() - 1] ^ flip) & scan
        while later:
            low_w = later & -later
            later ^= low_w
            count += ((adj[low_w.bit_length() - 1] ^ flip) & later).bit_count()
    return count


def symmetrize(
    A: SquareZeroQuotient, q: int, r: int
) -> tuple[SquareZeroQuotient, list[dict]]:
    """Repeatedly clone between zero-product parallel class pairs until the
    kill graph is a disjoint union of class cliques.

    Requires r >= 1 and top_vanishing(A, q), else InputError, before any
    count.  Each step takes the zero-product class
    pair with the smallest (first vertex, first vertex), read by
    `first_zero_product_pair`, and clones the class
    with the larger lambda(r-1) onto the other (ties: the class with the
    smaller first vertex is the source), so the degree-r Hilbert value never
    decreases; the class count strictly drops, so at most n-1 steps occur.

    Step values come from the cloning ledger: h_r is counted once, before
    the first clone, and each step's `hilbert_after` is its `hilbert_before`
    plus |target| (lambda_source - lambda_target), from the two lambda
    values the step already has.  The terminal quotient's h_r is then
    counted once and must equal the carried value, or ClaimCheckError is
    raised.  So a call makes at most three Hilbert counts: top_vanishing,
    the initial value and the terminal certificate.  Returns the terminal
    quotient and the step trace.
    """
    if r < 1:
        raise InputError(f"need r >= 1, got r={r}")
    if not A.top_vanishing(q):
        raise InputError("symmetrize requires a vanishing degree-(q+1) piece")
    trace: list[dict] = []
    current = A
    h = None
    while True:
        pair = current.first_zero_product_pair()
        if pair is None:
            break
        U, V = pair
        lu = current.lambda_dim(U[0], r - 1)
        lv = current.lambda_dim(V[0], r - 1)
        if lu > lv:
            source, target = U, V
        elif lv > lu:
            source, target = V, U
        else:
            source, target = (U, V) if U[0] < V[0] else (V, U)
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
    if trace:
        counted = current.hilbert(r)
        if counted != h:
            raise ClaimCheckError(f"terminal h_{r} = {counted}, cloning ledger gives {h}")
    return current, trace


def terminal_class_sizes(B: SquareZeroQuotient) -> list[int]:
    """Class sizes of a terminal quotient (kill graph = within-class pairs):
    the popcounts of its parallel-class masks."""
    return sorted((mask.bit_count() for mask in B._class_masks().values()), reverse=True)


__all__ = [
    "SquareZeroQuotient",
    "ParallelPartition",
    "elem_sym",
    "smoothing_step",
    "symmetrize",
    "terminal_class_sizes",
]
