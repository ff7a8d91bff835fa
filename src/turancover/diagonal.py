"""Identification-vanishing ideals and the counterexample verification.

Works with two nested ideals of k[x_1..x_n]:

* the identification ideal: polynomials vanishing after identifying any
  ell of the variables;
* the differentiated ideal: polynomials all of whose partial derivatives
  d^j/dx_i^j, for i in [n] and 0 <= j <= n-3, lie in the identification
  ideal.

The candidate ideal generated by the products over missing triples of
(ell-1)-partite 3-graphs is homogeneous and generated in degrees at least
3*(C(n,3) - t_3(n, ell-1)), so exhibiting a member of the differentiated
ideal of strictly smaller degree certifies strict containment.

Every polynomial the verifiers test is a product of differences x_a - x_b,
held as a `DifferenceProduct`: a multiset of pairs.  Its membership in the
differentiated ideal is decided by counting, for every ell-set, the pairs
inside it; no polynomial is expanded.  The expanded path (`Polynomial`
products and `in_differentiated_ideal`) is kept as the oracle, built from
the same pair lists and capped at n <= DEFAULT_POLY_CAP.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import RGraph, partition_pairs, turan_count
from .polycore import Polynomial, product

DEFAULT_POLY_CAP = 7
# (set, pair) steps of one pair-count membership test: (20, 6) takes 1.8M
DI_WORK_CAP = 5_000_000


@dataclass(frozen=True)
class DiagonalParams:
    """Parameters (n, ell) of the identification ideals."""

    n: int
    ell: int

    def __post_init__(self):
        if self.n < 1 or self.ell < 3:
            raise InputError(f"need n >= 1 and ell >= 3, got {self}")

    @property
    def non_vacuous(self) -> bool:
        return self.n >= self.ell


def _check_work(n: int, ell: int, npairs: int) -> None:
    """Refuse a pair-count test that would take more than DI_WORK_CAP steps: it
    visits C(n, ell) ell-sets, reads each through its smaller side of
    k = min(ell, n - ell) vertices, then scans the npairs pairs.  Needs
    n >= ell."""
    k = min(ell, n - ell)
    # C(n, k) >= 2^k for k <= n/2, so a large k is refused before comb runs
    if k >= DI_WORK_CAP.bit_length() or comb(n, k) * (k + npairs) > DI_WORK_CAP:
        raise ScaleGuardError(
            f"pair-count test at (n, ell) = ({n}, {ell}) exceeds {DI_WORK_CAP} steps"
        )


@dataclass(frozen=True)
class DifferenceProduct:
    """The product of x_a - x_b over a multiset of pairs (a, b) of [n], a != b.

    Its degree is the number of pairs, it is homogeneous, and it is never
    zero.  `polynomial()` expands it; `in_differentiated_ideal` decides
    membership without expanding.
    """

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple((a, b) for a, b in self.pairs)
        for a, b in pairs:
            if a == b or not (1 <= a <= self.n and 1 <= b <= self.n):
                raise InputError(f"bad difference pair ({a}, {b}) on [{self.n}]")
        object.__setattr__(self, "pairs", pairs)

    @property
    def degree(self) -> int:
        return len(self.pairs)

    def polynomial(self) -> Polynomial:
        """The expanded product (the oracle path; its size grows fast in n)."""
        return product((Polynomial.difference(a, b, self.n) for a, b in self.pairs), self.n)

    def in_differentiated_ideal(self, params: DiagonalParams) -> bool:
        """Membership in DI(n, ell), decided by counting pairs.

        For an ell-set S let T(S) be the number of pairs, with multiplicity,
        that have both ends in S.  The product p is a member iff every S has
        T(S) >= 1, and every S whose T(S) inside pairs all share one vertex
        has T(S) > min(n - 3, number of pairs), the highest derivative order
        that can be nonzero.  The vacuous range n < ell holds everything.

        Proof.  Identifying S (x_s -> y for s in S) maps into a domain, so
        it kills p iff it kills a factor, iff some pair lies inside S: that
        is the j = 0 condition T(S) >= 1.  For i outside S, d/dx_i commutes
        with identifying S (see `in_differentiated_ideal`), so the j >= 1
        derivatives in x_i vanish once p does.  For i in S and j >= 1,
        d^j p/dx_i^j identified on S is j! times [t^j] of p with
        x_i -> x_i + t and then S identified.  A factor inside S avoiding i
        goes to 0; a factor (i, s), s in S, to +-t; a factor (i, b), b not
        in S, to +-(y - x_b + t); every other factor to a nonzero form free
        of t.  So the substituted product is zero when some pair inside S
        avoids i, and otherwise it is +-t^m * prod_{b}(y - x_b + t) * c
        with c != 0, where m = T(S) counts the factors (i, s) and the K
        factors (i, b) give the middle product.  Its [t^j] is, up to c and
        sign, the elementary symmetric polynomial e_{K-j+m} of the forms
        y - x_b, repeats allowed: nonzero for m <= j <= m + K (at y = 1,
        x_b = 0 it is a binomial coefficient) and zero otherwise.  So some
        order 1 <= j <= J survives identification iff the inside pairs all
        contain i and T(S) <= J, where J = min(n - 3, deg p) is the highest
        order checked (J <= 0 checks none).

        Each ell-set is enumerated through its smaller side (S itself or its
        complement), and the test refuses with ScaleGuardError above
        DI_WORK_CAP steps, before any enumeration.
        """
        n, ell = params.n, params.ell
        if self.n != n:
            raise InputError(f"product on [{self.n}], expected [{n}]")
        if not params.non_vacuous:
            return True
        _check_work(n, ell, len(self.pairs))
        weight: dict[tuple[int, int], int] = {}
        for a, b in self.pairs:
            key = (a, b) if a < b else (b, a)
            weight[key] = weight.get(key, 0) + 1
        pairs = [(a, b, w, (1 << a) | (1 << b)) for (a, b), w in weight.items()]
        order = min(n - 3, len(self.pairs))
        k = min(ell, n - ell)
        # a vertex is in S iff its membership in the enumerated side is `side_is_S`
        side_is_S = k == ell
        # combinations copies its pool of n vertices, even for k = 0
        sides = itertools.combinations(range(1, n + 1), k) if k else [()]
        for side in sides:
            side = set(side)
            inside, common = 0, -1
            for a, b, w, mask in pairs:
                if (a in side) == side_is_S and (b in side) == side_is_S:
                    inside += w
                    common &= mask
            # no inside pair fails j = 0; pairs sharing a vertex fail some j >= 1
            if not inside or (inside <= order and common):
                return False
        return True


def missing_triple_differences(n: int, G: RGraph) -> DifferenceProduct:
    """The pairs (i,j), (i,k), (j,k) of every non-edge {i,j,k} of G."""
    if G.r != 3 or G.n != n:
        raise InputError(f"need a 3-graph on [{n}], got r={G.r}, n={G.n}")
    pairs = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        if frozenset((i, j, k)) not in G.edges:
            pairs += ((i, j), (i, k), (j, k))
    return DifferenceProduct(n, pairs)


def _check_poly_cap(n: int) -> None:
    if n > DEFAULT_POLY_CAP:
        raise ScaleGuardError(f"n={n} exceeds polynomial scale cap {DEFAULT_POLY_CAP}")


def missing_triple_product(n: int, G: RGraph) -> Polynomial:
    """Product over non-edges {i,j,k} of G of (x_i-x_j)(x_i-x_k)(x_j-x_k),
    expanded: the oracle form of `missing_triple_differences`.

    Degree is 3*(C(n,3) - |G|).  The empty product (complete G) is 1.
    """
    _check_poly_cap(n)
    p = missing_triple_differences(n, G).polynomial()
    if p.degree() != 3 * (comb(n, 3) - len(G.edges)):
        raise ClaimCheckError("degree law violated for missing-triple product")
    return p


def in_identification_ideal(p: Polynomial, params: DiagonalParams) -> bool:
    """Whether p vanishes after identification of every ell-subset of the
    variables.  Vacuously true when n < ell (no ell-subsets exist)."""
    if p.nvars != params.n:
        raise InputError(f"polynomial has {p.nvars} variables, expected {params.n}")
    if p.is_zero:
        return True
    for S in itertools.combinations(range(1, params.n + 1), params.ell):
        if not p.identify(S).is_zero:
            return False
    return True


def in_differentiated_ideal(p: Polynomial, params: DiagonalParams) -> bool:
    """Whether every derivative d^j p / dx_i^j, i in [n], 0 <= j <= n-3,
    lies in the identification ideal.  For n <= 3 only j = 0 is checked,
    and for n < ell the identification ideal is the whole ring, so every
    polynomial is a member in the vacuous range.  This is the expanded
    oracle of `DifferenceProduct.in_differentiated_ideal`.

    Only the ell-sets S containing i are identified in d^j p / dx_i^j for
    j >= 1.  Identifying S is the ring map fixing x_k for every k outside S
    and sending x_s to x_min(S) for s in S.  For i outside S it commutes with
    d/dx_i: on a monomial both orders give a_i times the image of the
    monomial with a_i lowered by one, since the image keeps the factor
    x_i^(a_i) apart from the merged variable x_min(S).  So once p itself
    vanishes on identifying S, which the j = 0 check over every S
    establishes, so does each derivative of p in a variable outside S.
    """
    n = params.n
    if p.nvars != n:
        raise InputError(f"polynomial has {p.nvars} variables, expected {n}")
    if not params.non_vacuous:
        return True
    if not in_identification_ideal(p, params):
        return False
    deg = p.degree()
    max_order = min(n - 3, deg) if deg is not None else 0
    ell_sets = list(itertools.combinations(range(1, n + 1), params.ell))
    for i in range(1, n + 1):
        containing = [S for S in ell_sets if i in S]
        d = p
        for _ in range(max_order):
            d = d.derivative(i)
            if d.is_zero:
                break  # higher derivatives vanish, trivially members
            if any(not d.identify(S).is_zero for S in containing):
                return False
    return True


def counterexample_differences(params: DiagonalParams) -> DifferenceProduct:
    """The low-degree witness as a product of differences.

    ell >= 4: all within-part pairs of the balanced (ell-2)-partition of [n]
    (`hypergraph.partition_pairs`); ell = 3, n >= 4: all pairs of [n];
    (ell, n) = (3, 3): the single pair (1, 2).
    """
    n, ell = params.n, params.ell
    if not params.non_vacuous:
        raise InputError(f"witness defined only for n >= ell, got {params}")
    if ell == 3:
        return DifferenceProduct(n, [(1, 2)] if n == 3 else itertools.combinations(range(1, n + 1), 2))
    return DifferenceProduct(n, partition_pairs(n, ell - 2))


def counterexample_polynomial(params: DiagonalParams) -> Polynomial:
    """The witness of `counterexample_differences`, expanded (the oracle
    path): for ell = 3 and n >= 4 the full Vandermonde product."""
    if not params.non_vacuous:
        raise InputError(f"witness defined only for n >= ell, got {params}")
    _check_poly_cap(params.n)
    return counterexample_differences(params).polynomial()


def generator_degree_bound(params: DiagonalParams) -> int:
    """3*(C(n,3) - t_3(n, ell-1)): the smallest possible degree of a generator
    coming from an (ell-1)-partite 3-graph on [n]."""
    n, ell = params.n, params.ell
    if n < 3:
        raise InputError("degree bound needs n >= 3")
    return 3 * (comb(n, 3) - turan_count(n, ell - 1, 3))


def verify_counterexample(params: DiagonalParams) -> dict:
    """Check both halves of the strict-containment certificate at (n, ell).

    Report fields: witness degree (its number of pairs), generator degree
    bound, membership of the witness in the differentiated ideal (by the
    pair count), the degree gap, and the verdict.  Refused with
    ScaleGuardError above DI_WORK_CAP steps of the membership test.
    """
    n, ell = params.n, params.ell
    if not params.non_vacuous:
        raise InputError(f"non-vacuous range requires n >= ell, got {params}")
    _check_work(n, ell, 0)  # bounds n before the witness is built
    F = counterexample_differences(params)
    bound = generator_degree_bound(params)
    member = F.in_differentiated_ideal(params)
    gap_ok = F.degree < bound
    return {
        "n": n,
        "ell": ell,
        "F_degree": F.degree,
        "F_homogeneous": True,
        "D": bound,
        "in_DI": member,
        "degree_gap_ok": gap_ok,
        "verdict": "counterexample confirmed" if member and gap_ok else "NOT confirmed",
    }


def random_partite_3graph(
    n: int, parts_count: int, rng: random.Random
) -> RGraph:
    """A random `parts_count`-partite 3-graph on [n]: random part assignment,
    then a random subset of the transversal triples."""
    assignment = {v: rng.randrange(parts_count) for v in range(1, n + 1)}
    transversal = [
        t
        for t in itertools.combinations(range(1, n + 1), 3)
        if len({assignment[v] for v in t}) == 3
    ]
    chosen = [t for t in transversal if rng.random() < 0.5]
    return RGraph(n, 3, chosen)


def check_partite_generators(
    n: int,
    ell: int,
    trials: int,
    seed: int = 0,
) -> bool:
    """Sample random (ell-1)-partite 3-graphs G on [n] and confirm that the
    missing-triple product of each lies in the differentiated ideal, by the
    pair count.  Every product is a member in the vacuous range n < ell.
    Refused with ScaleGuardError when the largest missing-triple product,
    that of the empty graph, would exceed DI_WORK_CAP steps."""
    params = DiagonalParams(n, ell)
    if not params.non_vacuous:
        return True
    _check_work(n, ell, 3 * comb(n, 3))
    rng = random.Random(seed)
    checked: dict[RGraph, bool] = {}
    for _ in range(trials):
        G = random_partite_3graph(n, ell - 1, rng)
        if G not in checked:
            checked[G] = missing_triple_differences(n, G).in_differentiated_ideal(params)
        if not checked[G]:
            return False
    return True


__all__ = [
    "DiagonalParams",
    "DifferenceProduct",
    "missing_triple_differences",
    "missing_triple_product",
    "in_identification_ideal",
    "in_differentiated_ideal",
    "counterexample_differences",
    "counterexample_polynomial",
    "generator_degree_bound",
    "verify_counterexample",
    "random_partite_3graph",
    "check_partite_generators",
]
