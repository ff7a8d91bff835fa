"""The acceptance criteria, each written once, printable from the CLI.

`CRITERIA` has one row per headline claim.  Its columns:

* `name`: the label of the row's `[PASS]`/`[FAIL]` line;
* `check`: a function of one grid point that raises `ClaimCheckError` when
  the claim fails there (never `assert`, which `python -O` strips);
* `quick`: the grid of `turancover selftest --quick`, a subset of `full`;
* `full`: the grid of `turancover selftest` and `tests/test_acceptance.py`;
* `budget_s`: the runtime budget of the full grid, which the acceptance
  suite enforces.

Random grids are drawn once, from fixed seeds.  All checks are exact.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from math import comb
from typing import Any, Callable, NamedTuple, Sequence

from .codegree_star import (
    StarParams,
    core_family_turan_number,
    in_star_ideal,
    star_initial_degree,
    verify_collapse,
)
from .diagonal import (
    DiagonalParams,
    check_partite_generators,
    in_differentiated_ideal,
    in_identification_ideal,
    verify_counterexample,
)
from .dictionary import ex_via_cover, gen_ex_via_cover
from .errors import ClaimCheckError
from .hypergraph import brute_force_ex, brute_force_gen_ex, builtin_spec, turan_count
from .polycore import Polynomial
from .squarezero import (
    SquareZeroQuotient,
    brute_force_hilbert_turan,
    elem_sym,
    smoothing_step,
    symmetrize,
    terminal_class_sizes,
)


class Criterion(NamedTuple):
    name: str
    check: Callable[[Any], None]
    quick: Sequence
    full: Sequence
    budget_s: float


def _require(holds: bool, message: str) -> None:
    if not holds:
        raise ClaimCheckError(message)


def _check_counterexample(point) -> None:
    ell, n = point
    rep = verify_counterexample(DiagonalParams(n, ell))
    _require(rep["verdict"] == "counterexample confirmed", f"verdict {rep['verdict']!r}")
    _require(rep["in_DI"] is True, "the witness is not in the differentiated ideal")
    D = 3 * (comb(n, 3) - turan_count(n, ell - 1, 3))
    _require(rep["D"] == D, f"generator degree bound {rep['D']}, expected {D}")
    _require(rep["F_degree"] < rep["D"], f"witness degree {rep['F_degree']} >= {rep['D']}")


def _check_partite_generators(point) -> None:
    n, ell = point
    _require(
        check_partite_generators(n, ell, trials=20, seed=2024),
        "a sampled partite 3-graph's missing-triple product is not in the differentiated ideal",
    )


def _check_dictionary(point) -> None:
    name, n, expected, turan = point
    spec = builtin_spec(name)
    value, _ = ex_via_cover(n, spec)
    oracle, _ = brute_force_ex(n, spec)
    _require(value == oracle == expected, f"cover {value}, oracle {oracle}, expected {expected}")
    if turan is not None:
        q, r = turan
        _require(value == turan_count(n, q, r), f"ex {value} != t_{r}({n}, {q})")


def _check_generalized(point) -> None:
    t, f, n, expected = point
    tspec, fspec = builtin_spec(t), builtin_spec(f)
    value = gen_ex_via_cover(n, tspec, fspec)
    oracle, _ = brute_force_gen_ex(n, tspec, fspec)
    _require(value == oracle == expected, f"cover {value}, oracle {oracle}, expected {expected}")
    # Turán-count corollary: the most K_s in a K_t-free graph is the K_s count of T(n, t-1).
    q, s = fspec.n - 1, tspec.n
    _require(value == turan_count(n, q, s), f"{value} != t_{s}({n}, {q})")


def _check_hilbert_turan(point) -> None:
    n, q, r = point
    ok, best = brute_force_hilbert_turan(n, q, r)
    bound = turan_count(n, q, r)
    _require(ok, f"max h_{r} is {best}; t_{r}({n}, {q}) = {bound} must bound it and be attained")


def _check_cloning(point) -> None:
    n, kill, q, r, (U, V), r2 = point
    A = SquareZeroQuotient(n, kill)
    B = A.clone(U, V)
    ledger = len(V) * (A.lambda_dim(U[0], r - 1) - A.lambda_dim(V[0], r - 1))
    gain = B.hilbert(r) - A.hilbert(r)
    _require(gain == ledger, f"cloning {U} onto {V} changes h_{r} by {gain}, ledger {ledger}")
    _require(B.top_vanishing(q), f"cloning {U} onto {V} revives degree {q + 1}")
    term, trace = symmetrize(A, q, r2)
    _require(len(trace) < n, f"symmetrization took {len(trace)} steps")
    h = term.hilbert(r2)
    _require(h >= A.hilbert(r2), f"symmetrization lowers h_{r2} from {A.hilbert(r2)} to {h}")
    e = elem_sym(terminal_class_sizes(term), r2)
    _require(h == e, f"terminal h_{r2} = {h}, elementary symmetric value {e}")


def _check_smoothing(tup) -> None:
    a, b = max(tup), min(tup)
    rest = list(tup)
    rest.remove(a)
    rest.remove(b)
    for r in range(7):
        new, delta = smoothing_step(tup, r)
        change = elem_sym(new, r) - elem_sym(tup, r)
        _require(change == delta, f"r={r}: delta {delta}, e_r changes by {change}")
        _require(delta >= 0, f"r={r}: negative delta {delta}")
        if a >= b + 2:
            closed = (a - b - 1) * elem_sym(rest, r - 2)
            _require(delta == closed, f"r={r}: delta {delta}, closed form {closed}")
        else:
            _require(new == tup and delta == 0, f"r={r}: a balanced tuple moved to {new}")


def _check_collapse(point) -> None:
    n, ell, r = point
    holds = verify_collapse(StarParams(n, ell, r))
    _require(holds, "the star ideal is not the core-family cover ideal")


def _check_star_degree(point) -> None:
    n, ell, r = point
    params = StarParams(n, ell, r)
    expected = comb(n, r) - turan_count(n, ell - 1, r)
    alpha, witness = star_initial_degree(params)
    _require(alpha == expected, f"alpha {alpha}, expected {expected}")
    degree = witness.bit_count()
    _require(degree == alpha, f"witness degree {degree} != alpha {alpha}")
    _require(in_star_ideal(witness, params), "the witness is not in the star ideal")
    core_family_turan_number(params)


def _check_vacuous(point) -> None:
    n, ell, r, polys = point
    params = DiagonalParams(n, ell)
    for terms in polys:
        p = Polynomial(n, terms)
        _require(in_identification_ideal(p, params), f"{terms} not in the identification ideal")
        _require(in_differentiated_ideal(p, params), f"{terms} not in the differentiated ideal")
    sp = StarParams(n, ell, r)
    _require(in_star_ideal(0, sp), "1 is not in the star ideal")
    alpha, _ = star_initial_degree(sp)
    _require(alpha == 0, f"alpha {alpha}, expected 0")
    _require(turan_count(n, ell - 1, r) == comb(n, r), f"t_{r}({n}, {ell - 1}) != C({n}, {r})")


def _cloning_samples(count: int) -> list:
    """(n, kill pairs, top degree q, r, zero-product class pair, r2) for random kill graphs."""
    rng = random.Random(606)
    samples = []
    while len(samples) < count:
        n = rng.randint(3, 8)
        kill = [p for p in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
        A = SquareZeroQuotient(n, kill)
        candidates = [p for p, zero in A.parallel_classes().zero_between.items() if zero]
        if not candidates:
            continue
        q = max(d for d in range(n + 1) if A.hilbert(d) > 0)
        r = rng.randint(1, n)
        pair = candidates[rng.randrange(len(candidates))]
        samples.append((n, kill, q, r, pair, rng.randint(2, max(2, q))))
    return samples


def _smoothing_samples(count: int) -> list:
    rng = random.Random(707)
    samples = []
    for _ in range(count):
        length = rng.randint(2, 6)
        samples.append(tuple(rng.randint(0, 8) for _ in range(length)))
    return samples


def _vacuous_points() -> list:
    """(n, ell, r) with n < ell, each with ten random polynomials in n variables."""
    rng = random.Random(1010)
    points = []
    for n, ell, r in [(2, 3, 2), (3, 4, 3), (4, 5, 3)]:
        polys = [
            {tuple(rng.randint(0, 2) for _ in range(n)): rng.randint(-3, 3) for _ in range(4)}
            for _ in range(10)
        ]
        points.append((n, ell, r, polys))
    return points


# An explicit grid lists its quick points first.
_COUNTEREXAMPLE = [(3, 3), (3, 4), (4, 4), (4, 5), (3, 5), (4, 6), (5, 5), (5, 6)]  # (ell, n)
_PARTITE = [(n, ell) for n in (3, 4, 5) for ell in (3, 4)]
_DICTIONARY = [  # (forbidden family, n, ex, (q, r) with ex == t_r(n, q), or None)
    ("K3", 4, 4, (2, 2)),
    ("K3", 5, 6, (2, 2)),
    ("K4", 5, 8, (3, 2)),
    ("K_ell_r(3,3)", 4, 0, None),
    ("K3", 6, 9, (2, 2)),
    ("K3", 7, 12, (2, 2)),
    ("K4", 6, 12, (3, 2)),
    ("K_ell_r(3,3)", 5, 0, None),
    ("K_ell_r(4,3)", 4, 2, (3, 3)),
    ("K_ell_r(4,3)", 5, 4, (3, 3)),
]
_GENERALIZED = [  # (target, forbidden, n, ex)
    ("K3", "K4", 4, 2),
    ("K3", "K3", 5, 0),
    ("K3", "K4", 5, 4),
    ("K3", "K4", 6, 8),
    ("K2", "K3", 6, 9),
    ("K3", "K5", 6, 12),
]
_HILBERT = [(n, q, r) for n in (3, 4, 5) for q in range(1, n) for r in range(2, n + 1)]
_CLONING = _cloning_samples(1000)
_SMOOTHING = _smoothing_samples(500)
_COLLAPSE = [(4, 3, 2), (4, 3, 3), (4, 4, 3), (5, 3, 2), (5, 3, 3), (5, 4, 3)]  # (n, ell, r)
_STAR_DEGREE = [(n, ell, r) for r in (2, 3) for ell in (3, 4, 5) for n in range(ell, 7)]
_VACUOUS = _vacuous_points()

CRITERIA = (
    Criterion("counterexample theorem", _check_counterexample,
              quick=_COUNTEREXAMPLE[:4], full=_COUNTEREXAMPLE, budget_s=120),
    Criterion("partite-generator lemma", _check_partite_generators,
              quick=[p for p in _PARTITE if p[0] <= 4], full=_PARTITE, budget_s=120),
    Criterion("cover-ideal dictionary", _check_dictionary,
              quick=_DICTIONARY[:4], full=_DICTIONARY, budget_s=300),
    Criterion("generalized Turán", _check_generalized,
              quick=_GENERALIZED[:2], full=_GENERALIZED, budget_s=300),
    Criterion("Hilbert-Turán bound", _check_hilbert_turan,
              quick=[p for p in _HILBERT if p[0] <= 4], full=_HILBERT, budget_s=60),
    Criterion("cloning-lemma ledger and symmetrization", _check_cloning,
              quick=_CLONING[:100], full=_CLONING, budget_s=300),
    Criterion("smoothing identity and its closed form", _check_smoothing,
              quick=_SMOOTHING[:100], full=_SMOOTHING, budget_s=60),
    Criterion("star ideal collapses to the core-family cover ideal", _check_collapse,
              quick=_COLLAPSE[:3], full=_COLLAPSE, budget_s=600),
    Criterion("star initial degree + extremal number", _check_star_degree,
              quick=[p for p in _STAR_DEGREE if p[0] <= 5], full=_STAR_DEGREE, budget_s=600),
    Criterion("vacuous range", _check_vacuous,
              quick=_VACUOUS, full=_VACUOUS, budget_s=60),
)


def check_grid(row: Criterion, points: Sequence) -> None:
    """Run `row.check` on every point; the error of a failing point names it."""
    for point in points:
        try:
            row.check(point)
        except ClaimCheckError as exc:
            raise ClaimCheckError(f"at {point!r}: {exc}") from exc


def run_selftest(quick: bool = False, out=sys.stderr) -> tuple[list[dict], bool]:
    """Run every row on its quick or full grid, printing one line per row.
    Only `ClaimCheckError` is caught, and a failing row does not stop the rest."""
    results = []
    for row in CRITERIA:
        start = time.perf_counter()
        message = None
        try:
            check_grid(row, row.quick if quick else row.full)
        except ClaimCheckError as exc:
            message = str(exc)
        ms = round((time.perf_counter() - start) * 1000, 1)
        result = {"check": row.name, "pass": message is None, "ms": ms}
        line = f"[PASS] {row.name} ({ms} ms)"
        if message is not None:
            result["message"] = message
            line = f"[FAIL] {row.name} ({ms} ms): {message}"
        results.append(result)
        print(line, file=out)
    return results, all(r["pass"] for r in results)


__all__ = ["Criterion", "CRITERIA", "check_grid", "run_selftest"]
