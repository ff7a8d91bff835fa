"""Square-zero quadratic monomial quotients and Hilbert-function symmetrization.

A quotient is determined by its kill graph: the set of unordered variable
pairs whose product vanishes (all squares vanish implicitly).  The degree-d
Hilbert value counts d-subsets of [n] containing no kill pair, so everything
here is exact combinatorial counting on the kill graph.

The kill graph is kept as one adjacency bitmask per variable, and the
Hilbert count is a function of those masks (`_count`): an iterative
branching over vertex masks, in smallest-last order of the non-kill graph
(most kill partners first, only the vertices that have one), with closed
forms for d <= 3 and binomial blocks of free vertices, under a step budget
(HILBERT_CAP_STEPS); each chain of "avoid the next vertex" branches is
walked in place, and each d = 3 entry is counted by one scan of its
vertices, on the kill side or the complement's.  A count whose answer
could pass HILBERT_CAP_DIGITS decimal digits is refused before it starts.

A quotient holds nothing but its masks; a pair (a, b) gives a a mask of
b + 1 bits, so masks that could pass MASK_CAP_BITS bits are priced first.
Parallel classes are grouped by closed-neighbourhood mask
(`_group_classes`), once per call that needs them, into a class
dictionary, the one class structure: closed kill-neighbourhood key ->
class mask; past GROUP_CAP_BITS bits of keys the grouping is refused
before its first key.  Symmetrization runs its steps on that dictionary
alone: the clone pair comes from the class representatives, lambda at
degree <= 2 from class sizes and keys, a clone rewrites the keys, and
the terminal class sizes are its popcounts.  Vertex masks are built
once, for the terminal quotient.

Symmetrization counts the degree-r Hilbert value once before its first
clone and carries it through the steps by the cloning ledger: cloning class
T onto class S changes it by |T| (lambda_S - lambda_T).  One count of the
terminal quotient certifies the carried value, so a call makes at most three
Hilbert counts however many steps it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb
from operator import or_

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import _bits, partition_pairs

# stack entries one Hilbert count may pop before it is refused
HILBERT_CAP_STEPS = 5_000_000
# variables a quotient may have before it is refused, ahead of its masks
QUOTIENT_CAP_VERTICES = 4_000_000
# decimal digits a Hilbert count's binomial bound may have: Python's
# default limit on int -> str, past which no report could print the answer
HILBERT_CAP_DIGITS = 4300
# bits the kill masks of a quotient may hold in all, n (n + 1) at most on
# [n], so every quotient on n <= 46,340 variables fits unpriced
MASK_CAP_BITS = 1 << 31
# bits of closed-neighbourhood keys a class grouping may build, at least
# n (n + 1) / 2 on [n] whatever the kill graph: 2**28 admits n ~ 23,000
GROUP_CAP_BITS = 1 << 28


def check_quotient_size(n: int) -> None:
    """Refuse a quotient on more than QUOTIENT_CAP_VERTICES variables with
    ScaleGuardError, before any of its n + 1 masks is built: their memory
    grows linearly in n (about 260 MB at 16 million variables)."""
    if n > QUOTIENT_CAP_VERTICES:
        raise ScaleGuardError(f"n={n} exceeds quotient cap {QUOTIENT_CAP_VERTICES} variables")


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
    """One balancing step: replace the first maximal entry a and the first
    minimal entry b, when a >= b + 2, by (a-1, b+1).  Returns (new tuple,
    e_r gain); the gain equals (a - b - 1) * e_{r-2}(other entries) and is
    always >= 0.
    """
    vals = list(values)
    if not vals or max(vals) < min(vals) + 2:
        return tuple(vals), 0
    ia, ib = vals.index(max(vals)), vals.index(min(vals))
    a, b = vals[ia], vals[ib]
    others = [v for i, v in enumerate(vals) if i != ia and i != ib]
    vals[ia], vals[ib] = a - 1, b + 1
    return tuple(vals), (a - b - 1) * elem_sym(others, r - 2)


def _bad_pair(p) -> InputError:
    """The refusal of a kill pair that is not two distinct variables of [n].
    It names the pair's distinct entries, or all of them when a repeat hides
    a third entry, as in (1, 2, 2)."""
    entries = tuple(p)
    distinct = sorted(set(entries))
    return InputError(f"bad kill pair {sorted(entries) if len(distinct) == 2 else distinct}")


def _priced_pairs(n: int, kill) -> list:
    """The kill pairs as a list, checked as the constructor checks them,
    and refused with ScaleGuardError when their masks would hold more than
    MASK_CAP_BITS bits in all: a vertex's mask has one bit more than its
    largest kill partner, so a pair (a, b) alone gives a a mask of b + 1
    bits, however few pairs there are.  The constructor's loop keeps its
    own inline check: a call per pair made it about 40% slower."""
    pairs = list(kill)
    top: dict[int, int] = {}
    for p in pairs:
        try:
            a, b = p
        except ValueError:
            raise _bad_pair(p) from None
        if a == b or not (0 < a <= n and 0 < b <= n):
            raise _bad_pair(p)
        top[a] = max(top.get(a, 0), b)
        top[b] = max(top.get(b, 0), a)
    bits = sum(top.values()) + len(top)
    if bits > MASK_CAP_BITS:
        raise ScaleGuardError(f"kill masks need {bits} bits, cap {MASK_CAP_BITS}")
    return pairs


@dataclass(frozen=True, slots=True, init=False, repr=False)
class SquareZeroQuotient:
    """n variables with a kill graph of vanishing quadratic products.

    The kill graph is stored only as adjacency masks: bit b of `_adj[a]` is
    set iff x_a x_b = 0 (a != b).  Equality and hashing compare (n, _adj).
    The constructor is the one check of kill pairs; every quotient built
    from pairs goes through it.  When the masks could pass MASK_CAP_BITS
    bits, n (n + 1) > MASK_CAP_BITS, it prices them exactly
    (`_priced_pairs`) before the first is built.
    """

    n: int
    _adj: tuple[int, ...]

    def __init__(self, n: int, kill=()):
        if n < 1:
            raise InputError("need n >= 1")
        check_quotient_size(n)
        if n * (n + 1) > MASK_CAP_BITS:
            kill = _priced_pairs(n, kill)
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

    @classmethod
    def _from_adj(cls, n: int, adj) -> "SquareZeroQuotient":
        """A quotient on [n] with the given (symmetric, loop-free) masks,
        unchecked: for `clone` and `symmetrize`, whose masks come from the
        class keys of a checked quotient."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", tuple(adj))
        return self

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
        return _count(self._adj, (1 << (self.n + 1)) - 2, d)[0]

    def top_vanishing(self, q: int) -> bool:
        """Whether the degree-(q+1) piece vanishes."""
        if q < 0:
            raise InputError("q must be nonnegative")
        return self.hilbert(q + 1) == 0

    # -- parallel structure --------------------------------------------

    def parallel_classes(self) -> tuple[tuple[int, ...], ...]:
        """The parallel classes, in order of first variables: two variables
        are parallel iff they are killed together and their external kill
        sets agree, which is exactly closed-neighborhood equality.

        All cross products of classes C and D vanish iff killed(C[0], D[0]),
        read from one pair of representatives, since it is uniform over
        C x D: for u, u' in C and v in D (so v is neither), N[u] = N[u']
        gives v in N[u] iff v in N[u'], i.e. x_u x_v = 0 iff x_u' x_v = 0;
        the same argument with N[v] = N[v'] moves v within D.
        """
        return tuple(tuple(_bits(mask)) for mask in _group_classes(self._adj).values())

    def lambda_dim(self, c: int, d: int) -> int:
        """dim of x_c * (degree-d piece): standard d-subsets avoiding c and
        all kill partners of c, counted by `_class_lambda` as `symmetrize`
        counts its steps."""
        if not 1 <= c <= self.n:
            raise InputError(f"variable {c} out of range")
        if d < 0:
            raise InputError("degree must be nonnegative")
        return _class_lambda(self.n, _group_classes(self._adj), self._adj[c] | 1 << c, d)

    # -- cloning -------------------------------------------------------

    def clone(self, source, target) -> "SquareZeroQuotient":
        """Make the variables of `target` clones of those of `source`.

        Both must be distinct parallel classes with all cross products zero.
        Afterwards all pairs inside source+target are killed, target inherits
        source's external kill relations, and everything else is unchanged.
        The class keys are rewritten by `_clone_classes`, symmetrize's
        cloning rule, and the masks are built from the new keys.
        """
        S = tuple(sorted(source))
        T = tuple(sorted(target))
        if not S or not T or not all(1 <= v <= self.n for v in S + T):
            raise InputError("clone needs two distinct parallel classes")
        # a repeated vertex carries in the sum, so its popcount falls short
        s_mask = sum(1 << v for v in S)
        t_mask = sum(1 << v for v in T)
        classes = _group_classes(self._adj)
        s_key = self._adj[S[0]] | 1 << S[0]
        t_key = self._adj[T[0]] | 1 << T[0]
        if (
            s_mask.bit_count() != len(S)
            or t_mask.bit_count() != len(T)
            or classes[s_key] != s_mask
            or classes[t_key] != t_mask
            or s_mask == t_mask
        ):
            raise InputError("clone needs two distinct parallel classes")
        if not s_key & t_mask:
            raise InputError("clone needs zero products between the classes")
        return SquareZeroQuotient._from_adj(self.n, _key_adj(self.n, _clone_classes(classes, s_key, t_key)))


def _group_classes(adj) -> dict[int, int]:
    """Closed-neighbourhood mask -> mask of the vertices 1..n that have it,
    for the adjacency masks `adj` (index 0 unused): the parallel classes, in
    order of their first variables.  The key of v has at least v + 1 bits,
    so past GROUP_CAP_BITS bits in all, n (n + 1) / 2, the grouping is
    refused with ScaleGuardError before its first key is built."""
    n = len(adj) - 1
    if n * (n + 1) // 2 > GROUP_CAP_BITS:
        raise ScaleGuardError(f"n={n}: grouping classes needs {n * (n + 1) // 2} key bits, cap {GROUP_CAP_BITS}")
    classes: dict[int, int] = {}
    for v in range(1, len(adj)):
        closed = adj[v] | (1 << v)
        classes[closed] = classes.get(closed, 0) | (1 << v)
    return classes


def _key_adj(n: int, classes: dict[int, int]) -> list[int]:
    """The adjacency masks (index 0 unused) of the quotient on [n] with the
    class dictionary `classes`: each vertex's kill partners are its class
    key without itself."""
    adj = [0] * (n + 1)
    for key, mask in classes.items():
        for v in _bits(mask):
            adj[v] = key ^ 1 << v
    return adj


def _first_killed_pair(classes: dict[int, int]) -> tuple[int, int] | None:
    """The keys (of C, of D) of the distinct parallel classes with all cross
    products zero and the smallest (C[0], D[0]), or None when there is none:
    the first representative with a killed later representative, and the
    first such one.  `classes` is in order of first variables."""
    reps = {mask & -mask: key for key, mask in classes.items()}
    later = sum(reps)
    for low, key in reps.items():
        later ^= low  # the representatives after this one
        hit = key & later
        if hit:
            return key, reps[hit & -hit]
    return None


def _class_lambda(n: int, classes: dict[int, int], key: int, d: int) -> int:
    """dim of x_c * (degree-d piece) for the variables c of the class with
    key `key`: the standard d-subsets of allowed = [n] minus key.  allowed
    is a union of classes, since parallel variables agree on c.  For d = 1
    that is popcount(allowed); for d = 2, C(m, 2) less the kill pairs
    inside allowed, half the sum over the classes X in it of
    |X| (|key(X) & allowed| - 1); for d >= 3, the count on masks built
    from the keys."""
    allowed = ((2 << n) - 2) & ~key
    if d <= 1:
        return allowed.bit_count() if d else 1
    if d == 2:
        twice_e = 0
        for k, mask in classes.items():
            if mask & allowed:
                twice_e += mask.bit_count() * ((k & allowed).bit_count() - 1)
        return comb(allowed.bit_count(), 2) - twice_e // 2
    return _count(_key_adj(n, classes), allowed, d)[0]


def _clone_classes(classes: dict[int, int], source_key: int, target_key: int) -> dict[int, int]:
    """The class dictionary after cloning the class with key `target_key`
    onto the one with key `source_key`, two classes killed together.  S + T
    gets key(S); every other key k becomes k & ~T | (T if k & S else 0), as
    T's old external partners lose it and S's gain it; and classes whose
    keys then collide merge.  Each merged class takes the place of its
    first member, so the order by first variable holds."""
    s_mask, t_mask = classes[source_key], classes[target_key]
    cloned: dict[int, int] = {}
    for key, mask in classes.items():
        if key == target_key:
            key = source_key
        else:
            key = key & ~t_mask | (t_mask if key & s_mask else 0)
        cloned[key] = cloned.get(key, 0) | mask
    return cloned


def _count(adj, allowed: int, d: int) -> tuple[int, int]:
    """Number of d-subsets of the vertex mask `allowed` with no kill pair of
    the adjacency masks `adj` (index 0 unused), and the steps taken to count
    them (below).

    Depth-first over an explicit stack of (allowed, d, multiplicity, p).
    An entry branches on its first vertex v in `order`, searched from
    position p on: subsets avoiding v, plus subsets through v with v's
    kill partners barred.  Both children hold only vertices after v, so
    they start at v's position + 1.  Each d-set is counted once, on the
    branch path through its own vertices, so any order gives the same
    count.  `order` is the smallest-last order of the non-kill graph on
    the call's vertices that have a kill partner (`_kill_order`): each
    vertex has the most kill partners among those after it, so the child
    through v keeps only its later non-kill partners, at most the
    degeneracy of the non-kill graph (Matula and Beck 1983; Chiba and
    Nishizeki 1985).  The order is built only for d >= 4, since no entry
    of a smaller d branches.  Four shortcuts end a branch or widen it:

    * d <= 1: the count is 1 or popcount(allowed);
    * d == 2: C(m, 2) minus the kill pairs inside `allowed` (`_kill_pairs`);
    * d == 3: `_independent_triples`, in the count's `_leaf_flip` form;
    * v has no kill partner in `allowed`, or `allowed` holds no vertex
      with a kill partner at all: every free vertex, f of them, is
      pulled out as one block, and (rest, d - k, C(f, k)) is pushed for
      each k, since the block's k-subsets combine freely with any
      standard subset of the rest.

    A vertex with no kill partner at all adds no kill pair and is free
    in every entry, so it is never ordered, and the kill-pair scans and
    the free-vertex scan visit only `partnered`, the vertices with one,
    built once per count: a count with few kill pairs costs no peel of
    an n-bit mask per vertex.

    An entry of d >= 4 walks its chain of entries that avoid the next
    vertex in place, and pushes only its children through v of d >= 4; a
    child of d = 3 is counted where it is made, as a popped entry of d = 3
    is.  Of the two `_leaf_flip` forms, the complement scans all the
    count's vertices over the kill masks complemented inside them, built
    once per count, and the kill side the vertices of `partnered` over `adj`.

    Each entry is one step, whether popped or consumed in place by a
    chain, and the steps are checked against HILBERT_CAP_STEPS where
    they are taken: past it the count is refused with ScaleGuardError.
    Before the first step, `_check_answer_digits` prices the answer.
    """
    _check_answer_digits(allowed.bit_count(), d)
    cap = HILBERT_CAP_STEPS
    partnered = reduce(or_, adj)
    if d >= 3:
        flip = _leaf_flip(adj, allowed, partnered)
        rows, scope = ([allowed & ~a for a in adj], allowed) if flip else (adj, partnered)
    if d >= 4:
        order = _kill_order(adj, allowed & partnered)
    total = 0
    steps = 0
    stack = [(allowed, d, 1, 0)]
    while stack:
        allowed, d, mult, p = stack.pop()
        steps += 1
        if steps > cap:
            raise ScaleGuardError(f"Hilbert count exceeds {cap} steps")
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
            total += mult * (comb(m, 2) - _kill_pairs(adj, allowed, partnered))
            continue
        if d == 3:
            total += mult * _independent_triples(rows, allowed, m, scope, flip)
            continue
        # d >= 4: walk the chain of entries that avoid the next vertex
        while m >= d:
            kills = 0
            if allowed & partnered:
                v = order[p]
                while not allowed >> v & 1:
                    p += 1
                    v = order[p]
                p += 1
                kills = adj[v] & allowed
            if not kills:
                free = allowed & ~partnered
                scan = allowed & partnered
                while scan:
                    low = scan & -scan
                    scan ^= low
                    if not adj[low.bit_length() - 1] & allowed:
                        free |= low
                rest = allowed ^ free
                f = free.bit_count()
                for k in range(max(0, d - rest.bit_count()), min(f, d) + 1):
                    stack.append((rest, d - k, mult * comb(f, k), p))
                break
            allowed ^= 1 << v
            m -= 1
            leaf = allowed & ~kills
            # steps for the chain's next entry and a d = 3 child, consumed here
            steps += 1 if d > 4 else 2
            if steps > cap:
                raise ScaleGuardError(f"Hilbert count exceeds {cap} steps")
            if d > 4:
                stack.append((leaf, d - 1, mult, p))
                continue
            size = leaf.bit_count()
            if size >= 3:
                total += mult * _independent_triples(rows, leaf, size, scope, flip)
    return total, steps


def _check_answer_digits(m: int, d: int) -> None:
    """Refuse with ScaleGuardError a count of the d-subsets of m vertices
    when C(m, d) has more than HILBERT_CAP_DIGITS decimal digits: every
    term of the count (binomial blocks times multiplicities, and the closed
    forms) counts d-subsets, so it is at most C(m, d).  C(m, d) < 2^(d b)
    for m's bit length b, which lets most counts through at once; any other
    multiplies out C(m, i) for i up to min(d, m - d) and stops at the
    limit, after about 3.33 HILBERT_CAP_DIGITS steps at most, since
    C(m, i) >= 2^i there."""
    # log2(10) > 3.3219, so 2^(digits * 3.3219) <= 10^digits
    if d * m.bit_length() <= HILBERT_CAP_DIGITS * 33219 // 10000:
        return
    limit = 10**HILBERT_CAP_DIGITS
    value = 1
    for i in range(min(d, m - d)):
        value = value * (m - i) // (i + 1)  # C(m, i + 1)
        if value >= limit:
            raise ScaleGuardError(f"Hilbert count C({m}, {d}) exceeds {HILBERT_CAP_DIGITS} digits")


def _kill_order(adj, allowed: int) -> list[int]:
    """The vertices of `allowed`, each next one with the most kill partners
    among those not yet placed: the smallest-last order of the non-kill graph
    inside `allowed`.  The count passes only the vertices that have a kill
    partner, so a quotient with few kill pairs orders few vertices.  A
    bucket queue on kill degree builds it in O(m + e) for m vertices and e
    kill pairs: placing a vertex moves each unplaced kill partner one bucket
    down, and the entry it leaves behind is skipped, since its degree no
    longer matches that bucket."""
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


def _kill_pairs(adj, allowed: int, partnered: int) -> int:
    """Number of kill pairs inside the vertex mask `allowed`, each found at
    its first vertex; only the vertices of `partnered` have one to find."""
    pairs = 0
    later = allowed & partnered
    while later:
        low = later & -later
        later ^= low
        pairs += (adj[low.bit_length() - 1] & later).bit_count()
    return pairs


def _leaf_flip(adj, allowed: int, partnered: int) -> int:
    """The form in which a count on `allowed` counts its d = 3 entries
    (`_independent_triples`): -1, the triangles of the complement, when the
    kill graph on `allowed` has density above 0.6, i.e. 10 e > 3 m (m - 1)
    for its e kill pairs and m vertices, else 0, the kill side's closed
    form.  The threshold is where the two forms cross on seeded random kill
    graphs of 40-100 vertices at d = 4 and 5: at density 0.5 the kill side
    is 1.2-1.6x faster, at 0.6 they are level, and at 0.7-0.9 the
    complement is up to 1.2x faster."""
    m = allowed.bit_count()
    return -(10 * _kill_pairs(adj, allowed, partnered) > 3 * m * (m - 1))


def _independent_triples(rows, allowed: int, m: int, scope: int, flip: int) -> int:
    """Number of 3-subsets of the m-vertex mask `allowed` with no kill pair,
    in the form `flip` names (`_leaf_flip`), from one scan of the vertices
    of `allowed & scope` that finds each triangle u < w < x of the masks
    `rows` at u, as a partner x > w shared by u and w.

    flip = -1: `rows` are the kill masks complemented inside the count's
    vertices, all in scope, so the triangles are the triples themselves.
    flip = 0: `rows` are the kill masks, and `scope` the vertices with a
    kill partner.  With e kill pairs inside `allowed` and degrees deg(v)
    there, summed by the same scan, inclusion-exclusion over the kill
    pairs of a triple gives C(m, 3) - e (m - 2) + sum_v C(deg v, 2) - t
    for the t kill triangles.
    """
    twice_e = squares = triangles = 0
    scan = allowed & scope
    while scan:
        low = scan & -scan
        scan ^= low
        nb = rows[low.bit_length() - 1]
        if not flip:
            deg = (nb & allowed).bit_count()
            twice_e += deg
            squares += deg * deg
        # scan now holds the vertices after u, so no self bit is read
        later = nb & scan
        while later:
            low_w = later & -later
            later ^= low_w
            triangles += (rows[low_w.bit_length() - 1] & later).bit_count()
    if flip:
        return triangles
    # sum_v C(deg v, 2) = (sum deg^2 - 2e) / 2
    return comb(m, 3) - twice_e // 2 * (m - 2) + (squares - twice_e) // 2 - triangles


def symmetrize(
    A: SquareZeroQuotient, q: int, r: int
) -> tuple[SquareZeroQuotient, list[dict], list[int]]:
    """Repeatedly clone between zero-product parallel class pairs until the
    kill graph is a disjoint union of class cliques.

    Requires r >= 1 and top_vanishing(A, q), else InputError, before any
    count.  The steps run on A's class dictionary (closed kill-neighbourhood
    key -> class mask), grouped once per call by `_group_classes`.  Each
    step takes the zero-product class pair with the smallest (first vertex,
    first vertex) (`_first_killed_pair`), and clones the class with the
    larger lambda(r-1) (`_class_lambda`) onto the other (ties: the class
    with the smaller first vertex is the source) by rewriting the keys
    (`_clone_classes`), so the degree-r Hilbert value never decreases; the
    class count strictly drops, so at most n-1 steps occur.  Vertex masks
    are built once, for the terminal quotient.

    Step values come from the cloning ledger: h_r is counted once, before
    the first clone, and each step's `hilbert_after` is its `hilbert_before`
    plus |target| (lambda_source - lambda_target), from the two lambda
    values the step already has.  The terminal quotient's h_r is then
    counted once and must equal the carried value, or ClaimCheckError is
    raised.  So a call makes at most three Hilbert counts: top_vanishing,
    the initial value and the terminal certificate.  Returns the terminal
    quotient, the step trace and its class sizes, largest first.
    """
    if r < 1:
        raise InputError(f"need r >= 1, got r={r}")
    if not A.top_vanishing(q):
        raise InputError("symmetrize requires a vanishing degree-(q+1) piece")
    n = A.n
    classes = _group_classes(A._adj)
    trace: list[dict] = []
    h = None
    while pair := _first_killed_pair(classes):
        ku, kv = pair
        lu = _class_lambda(n, classes, ku, r - 1)
        lv = _class_lambda(n, classes, kv, r - 1)
        # a tie keeps U, whose first vertex is the smaller, as the source
        source, target = (kv, ku) if lv > lu else (ku, kv)
        before = A.hilbert(r) if h is None else h
        h = before + classes[target].bit_count() * abs(lu - lv)
        trace.append(
            {
                "source": _bits(classes[source]),
                "target": _bits(classes[target]),
                "lambda_source": max(lu, lv),
                "lambda_target": min(lu, lv),
                "hilbert_before": before,
                "hilbert_after": h,
            }
        )
        classes = _clone_classes(classes, source, target)
    sizes = sorted((mask.bit_count() for mask in classes.values()), reverse=True)
    if not trace:
        return A, trace, sizes
    terminal = SquareZeroQuotient._from_adj(n, _key_adj(n, classes))
    counted = terminal.hilbert(r)
    if counted != h:
        raise ClaimCheckError(f"terminal h_{r} = {counted}, cloning ledger gives {h}")
    return terminal, trace, sizes


def terminal_class_sizes(B: SquareZeroQuotient) -> list[int]:
    """Class sizes of a terminal quotient (kill graph = within-class pairs):
    the popcounts of its parallel-class masks."""
    return sorted((mask.bit_count() for mask in _group_classes(B._adj).values()), reverse=True)


__all__ = [
    "SquareZeroQuotient",
    "elem_sym",
    "smoothing_step",
    "symmetrize",
    "terminal_class_sizes",
]
