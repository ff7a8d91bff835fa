"""Square-zero quadratic monomial quotients and Hilbert-function symmetrization.

A quotient is determined by its kill graph: the set of unordered variable
pairs whose product vanishes (all squares vanish implicitly).  The degree-d
Hilbert value counts d-subsets of [n] containing no kill pair, so everything
here is exact combinatorial counting on the kill graph.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from math import comb

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import balanced_partition, turan_count


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

    def class_of(self, v: int) -> tuple[int, ...]:
        for c in self.classes:
            if v in c:
                return c
        raise InputError(f"vertex {v} not in any class")


class SquareZeroQuotient:
    """n variables with a kill graph of vanishing quadratic products."""

    __slots__ = ("n", "kill", "_adj")

    def __init__(self, n: int, kill=()):
        if n < 1:
            raise InputError("need n >= 1")
        pairs = set()
        for p in kill:
            fp = frozenset(p)
            if len(fp) != 2 or not all(1 <= v <= n for v in fp):
                raise InputError(f"bad kill pair {sorted(fp)}")
            pairs.add(fp)
        adj = [0] * (n + 1)
        for a, b in (sorted(p) for p in pairs):
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kill", frozenset(pairs))
        object.__setattr__(self, "_adj", adj)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SquareZeroQuotient is immutable")

    def __eq__(self, other):
        if not isinstance(other, SquareZeroQuotient):
            return NotImplemented
        return (self.n, self.kill) == (other.n, other.kill)

    def __hash__(self):
        return hash((self.n, self.kill))

    def __repr__(self):
        pairs = sorted(tuple(sorted(p)) for p in self.kill)
        return f"SquareZeroQuotient(n={self.n}, kill={pairs})"

    @classmethod
    def from_partition(cls, n: int, q: int) -> "SquareZeroQuotient":
        """The complete balanced q-partite quotient: kill within-part pairs."""
        pairs = [
            (a, b)
            for part in balanced_partition(n, q)
            for a, b in itertools.combinations(part, 2)
        ]
        return cls(n, pairs)

    def killed(self, a: int, b: int) -> bool:
        return bool(self._adj[a] >> b & 1)

    # -- Hilbert data --------------------------------------------------

    def hilbert(self, d: int) -> int:
        """Number of standard degree-d monomials: d-subsets with no kill pair."""
        if d < 0:
            raise InputError("degree must be nonnegative")
        if d == 0:
            return 1
        allowed = 0
        for v in range(1, self.n + 1):
            allowed |= 1 << v
        return self._count(allowed, d)

    def _count(self, allowed: int, d: int) -> int:
        """`_count_independent`, refused with ScaleGuardError where its
        recursion, one level per vertex, passes the recursion limit."""
        try:
            return self._count_independent(allowed, d)
        except RecursionError:
            raise ScaleGuardError("Hilbert count exceeds the recursion limit") from None

    def _count_independent(self, allowed: int, d: int) -> int:
        if d == 0:
            return 1
        if allowed.bit_count() < d:
            return 0
        low = allowed & -allowed
        v = low.bit_length() - 1
        without = allowed ^ low
        # subsets avoiding v, plus subsets through v (v's kill partners barred)
        return self._count_independent(without, d) + self._count_independent(
            without & ~self._adj[v], d - 1
        )

    def top_vanishing(self, q: int) -> bool:
        """Whether the degree-(q+1) piece vanishes."""
        if q < 0:
            raise InputError("q must be nonnegative")
        return self.hilbert(q + 1) == 0

    # -- parallel structure --------------------------------------------

    def parallel_classes(self) -> ParallelPartition:
        """Group variables by equal closed kill-neighborhoods; two variables
        are parallel iff they are killed together and their external kill
        sets agree, which is exactly closed-neighborhood equality."""
        groups: dict[int, list[int]] = {}
        for v in range(1, self.n + 1):
            closed = self._adj[v] | (1 << v)
            groups.setdefault(closed, []).append(v)
        classes = tuple(sorted((tuple(sorted(g)) for g in groups.values())))
        zero_between = {}
        for C, D in itertools.combinations(classes, 2):
            flags = {self.killed(u, v) for u in C for v in D}
            if len(flags) != 1:
                raise ClaimCheckError("inconsistent cross products between parallel classes")
            zero_between[(C, D)] = flags.pop()
        return ParallelPartition(classes, zero_between)

    def lambda_dim(self, c: int, d: int) -> int:
        """dim of x_c * (degree-d piece): standard d-subsets avoiding c and
        all kill partners of c."""
        if not 1 <= c <= self.n:
            raise InputError(f"variable {c} out of range")
        if d < 0:
            raise InputError("degree must be nonnegative")
        allowed = 0
        for v in range(1, self.n + 1):
            allowed |= 1 << v
        allowed &= ~((1 << c) | self._adj[c])
        return self._count(allowed, d)

    # -- cloning -------------------------------------------------------

    def clone(self, source, target) -> "SquareZeroQuotient":
        """Make the variables of `target` clones of those of `source`.

        Both must be distinct parallel classes with all cross products zero.
        Afterwards all pairs inside source+target are killed, target inherits
        source's external kill relations, and everything else is unchanged.
        """
        S = tuple(sorted(source))
        T = tuple(sorted(target))
        part = self.parallel_classes()
        if S not in part.classes or T not in part.classes or S == T:
            raise InputError("clone needs two distinct parallel classes")
        key = (S, T) if (S, T) in part.zero_between else (T, S)
        if not part.zero_between[key]:
            raise InputError("clone needs zero products between the classes")
        inside = set(S) | set(T)
        s0 = S[0]
        # keep every pair not involving the target class, kill all pairs
        # inside the merged class, and copy the source's external relations
        # onto the target
        pairs = {p for p in self.kill if not (p & set(T))}
        for a, b in itertools.combinations(sorted(inside), 2):
            pairs.add(frozenset((a, b)))
        for z in range(1, self.n + 1):
            if z not in inside and self.killed(s0, z):
                for v in T:
                    pairs.add(frozenset((v, z)))
        return SquareZeroQuotient(self.n, pairs)


def symmetrize(
    A: SquareZeroQuotient, q: int, r: int
) -> tuple[SquareZeroQuotient, list[dict]]:
    """Repeatedly clone between zero-product parallel class pairs until the
    kill graph is a disjoint union of class cliques.

    Requires top_vanishing(A, q).  Each step clones the class with the
    smaller lambda(r-1) into the other, so the degree-r Hilbert value never
    decreases; the class count strictly drops, so at most n-1 steps occur.
    Returns the terminal quotient and the step trace.
    """
    if not A.top_vanishing(q):
        raise InputError("symmetrize requires a vanishing degree-(q+1) piece")
    trace: list[dict] = []
    current = A
    while True:
        part = current.parallel_classes()
        candidates = sorted(
            (pair for pair, zero in part.zero_between.items() if zero),
            key=lambda pair: (pair[0][0], pair[1][0]),
        )
        if not candidates:
            break
        U, V = candidates[0]
        lu = current.lambda_dim(U[0], r - 1)
        lv = current.lambda_dim(V[0], r - 1)
        if lu > lv:
            source, target = U, V
        elif lv > lu:
            source, target = V, U
        else:
            source, target = (U, V) if U[0] < V[0] else (V, U)
        before = current.hilbert(r)
        current = current.clone(source, target)
        after = current.hilbert(r)
        trace.append(
            {
                "source": list(source),
                "target": list(target),
                "lambda_source": max(lu, lv),
                "lambda_target": min(lu, lv),
                "hilbert_before": before,
                "hilbert_after": after,
            }
        )
    return current, trace


def terminal_class_sizes(B: SquareZeroQuotient) -> list[int]:
    """Class sizes of a terminal quotient (kill graph = within-class pairs)."""
    part = B.parallel_classes()
    return sorted((len(c) for c in part.classes), reverse=True)


@functools.lru_cache(maxsize=1)
def _all_hilbert_values(n: int) -> tuple[tuple[int, ...], ...]:
    """(h_0, ..., h_n) of every one of the 2^C(n,2) kill graphs on [n],
    built once per n for the (q, r) sweeps of `brute_force_hilbert_turan`."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    table = []
    for mask in range(1 << len(pairs)):
        A = SquareZeroQuotient(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        table.append(tuple(A.hilbert(d) for d in range(n + 1)))
    return tuple(table)


def brute_force_hilbert_turan(n: int, q: int, r: int, cap: int = 5) -> tuple[bool, int]:
    """Independent oracle for the Hilbert-Turán bound: exhaust all kill graphs
    on [n], keep those whose degree-(q+1) piece vanishes, and check that the
    degree-r Hilbert value never exceeds t_r(n, q) and that the balanced
    partition structure attains the maximum.

    Returns (bound holds and is attained, max Hilbert value observed).
    """
    if n > cap:
        raise ScaleGuardError(f"exhaustion over 2^C({n},2) kill graphs refused (cap n <= {cap})")
    if q < 0 or r < 0:
        raise InputError("q and r must be nonnegative")
    bound = turan_count(n, q, r)
    best = -1
    ok = True
    for values in _all_hilbert_values(n):
        # values[d] is h_d for d <= n; h_d = 0 above n
        if q + 1 <= n and values[q + 1]:
            continue
        h = values[r] if r <= n else 0
        best = max(best, h)
        if h > bound:
            ok = False
    attained = SquareZeroQuotient.from_partition(n, q).hilbert(r) == bound
    return ok and attained and best == bound, best


__all__ = [
    "SquareZeroQuotient",
    "ParallelPartition",
    "elem_sym",
    "smoothing_step",
    "symmetrize",
    "terminal_class_sizes",
    "brute_force_hilbert_turan",
]
