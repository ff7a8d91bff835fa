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
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb

from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import RGraph, balanced_partition, turan_count
from .polycore import Polynomial, product, vandermonde

DEFAULT_POLY_CAP = 7


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


def missing_triple_product(n: int, G: RGraph, cap: int = DEFAULT_POLY_CAP) -> Polynomial:
    """Product over non-edges {i,j,k} of G of (x_i-x_j)(x_i-x_k)(x_j-x_k).

    Degree is 3*(C(n,3) - |G|).  The empty product (complete G) is 1.
    """
    if G.r != 3 or G.n != n:
        raise InputError(f"need a 3-graph on [{n}], got r={G.r}, n={G.n}")
    if n > cap:
        raise ScaleGuardError(f"n={n} exceeds polynomial scale cap {cap}")
    factors = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        if frozenset((i, j, k)) not in G.edges:
            factors.append(Polynomial.difference(i, j, n))
            factors.append(Polynomial.difference(i, k, n))
            factors.append(Polynomial.difference(j, k, n))
    p = product(factors, n)
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
    polynomial is a member in the vacuous range.

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


def counterexample_polynomial(params: DiagonalParams) -> Polynomial:
    """The low-degree witness polynomial.

    ell >= 4: product of within-part differences over the balanced
    (ell-2)-partition of [n]; ell = 3, n >= 4: the full product of all
    differences; (ell, n) = (3, 3): x_1 - x_2.
    """
    n, ell = params.n, params.ell
    if not params.non_vacuous:
        raise InputError(f"witness defined only for n >= ell, got {params}")
    if ell == 3:
        if n == 3:
            return Polynomial.difference(1, 2, n)
        return vandermonde(n)
    parts = balanced_partition(n, ell - 2)
    factors = [
        Polynomial.difference(a, b, n)
        for part in parts
        for a, b in itertools.combinations(part, 2)
    ]
    return product(factors, n)


def generator_degree_bound(params: DiagonalParams) -> int:
    """3*(C(n,3) - t_3(n, ell-1)): the smallest possible degree of a generator
    coming from an (ell-1)-partite 3-graph on [n]."""
    n, ell = params.n, params.ell
    if n < 3:
        raise InputError("degree bound needs n >= 3")
    return 3 * (comb(n, 3) - turan_count(n, ell - 1, 3))


def verify_counterexample(params: DiagonalParams, cap: int = DEFAULT_POLY_CAP) -> dict:
    """Check both halves of the strict-containment certificate at (n, ell).

    Report fields: witness degree, generator degree bound, membership of the
    witness in the differentiated ideal, the degree gap, and the verdict.
    """
    n, ell = params.n, params.ell
    if not params.non_vacuous:
        raise InputError(f"non-vacuous range requires n >= ell, got {params}")
    if n > cap:
        raise ScaleGuardError(f"n={n} exceeds polynomial scale cap {cap}")
    F = counterexample_polynomial(params)
    deg, homogeneous = F.degree_info()
    bound = generator_degree_bound(params)
    member = in_differentiated_ideal(F, params)
    gap_ok = deg is not None and deg < bound
    confirmed = member and gap_ok and homogeneous and not F.is_zero
    return {
        "n": n,
        "ell": ell,
        "F_degree": deg,
        "F_homogeneous": homogeneous,
        "D": bound,
        "in_DI": member,
        "degree_gap_ok": gap_ok,
        "verdict": "counterexample confirmed" if confirmed else "NOT confirmed",
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
    cap: int = DEFAULT_POLY_CAP,
) -> bool:
    """Sample random (ell-1)-partite 3-graphs G on [n] and confirm that the
    missing-triple product of each lies in the differentiated ideal."""
    if n > cap:
        raise ScaleGuardError(f"n={n} exceeds polynomial scale cap {cap}")
    params = DiagonalParams(n, ell)
    rng = random.Random(seed)
    checked: dict[RGraph, bool] = {}
    for _ in range(trials):
        G = random_partite_3graph(n, ell - 1, rng)
        if G not in checked:
            p = missing_triple_product(n, G, cap=cap)
            checked[G] = in_differentiated_ideal(p, params)
        if not checked[G]:
            return False
    return True


__all__ = [
    "DiagonalParams",
    "missing_triple_product",
    "in_identification_ideal",
    "in_differentiated_ideal",
    "counterexample_polynomial",
    "generator_degree_bound",
    "verify_counterexample",
    "random_partite_3graph",
    "check_partite_generators",
]
