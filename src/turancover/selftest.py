"""Built-in acceptance checks, printable from the CLI.

Each check mirrors one acceptance-level claim at desk scale; `quick`
restricts to the fastest parameter points.  All checks are exact.
"""

from __future__ import annotations

import itertools
import random
import sys
import time
from math import comb

from .codegree_star import StarParams, core_family_turan_number, verify_collapse
from .diagonal import DiagonalParams, check_partite_generators, verify_counterexample
from .dictionary import ex_via_cover, gen_ex_via_cover
from .hypergraph import (
    CoreFamily,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    turan_count,
)
from .squarezero import SquareZeroQuotient, brute_force_hilbert_turan, elem_sym, smoothing_step


def _check_counterexamples(quick: bool) -> bool:
    pts = [(3, 3), (3, 4), (4, 4), (4, 5)] if quick else [
        (3, 3), (3, 4), (3, 5), (4, 4), (4, 5), (4, 6), (5, 5), (5, 6)
    ]
    for ell, n in pts:
        rep = verify_counterexample(DiagonalParams(n, ell))
        if rep["verdict"] != "counterexample confirmed":
            return False
    return True


def _check_partite_generators(quick: bool) -> bool:
    trials = 5 if quick else 20
    for n in range(3, 6):
        for ell in (3, 4):
            if not check_partite_generators(n, ell, trials, seed=7):
                return False
    return True


def _check_dictionary(quick: bool) -> bool:
    cases = [("K3", 4, 4), ("K3", 5, 6), ("K4", 5, 8), ("K_ell_r(3,3)", 4, 0)]
    if not quick:
        cases += [("K3", 6, 9), ("K3", 7, 12), ("K4", 6, 12), ("K_ell_r(4,3)", 5, 4)]
    for name, n, expected in cases:
        spec = builtin_spec(name)
        value, _ = ex_via_cover(n, spec)
        oracle, _ = brute_force_ex(n, spec)
        if not (value == oracle == expected):
            return False
    return True


def _check_generalized(quick: bool) -> bool:
    cases = [("K3", "K4", 4, 2), ("K3", "K3", 5, 0)]
    if not quick:
        cases += [("K3", "K4", 5, 4), ("K3", "K4", 6, 8), ("K2", "K3", 6, 9)]
    for t, f, n, expected in cases:
        tspec, fspec = builtin_spec(t), builtin_spec(f)
        value = gen_ex_via_cover(n, tspec, fspec)
        oracle, _ = brute_force_gen_ex(n, tspec, fspec)
        if not (value == oracle == expected):
            return False
    return True


def _check_hilbert_turan(quick: bool) -> bool:
    ns = (3, 4) if quick else (3, 4, 5)
    for n in ns:
        for q in range(1, n):
            for r in range(2, n + 1):
                ok, _ = brute_force_hilbert_turan(n, q, r)
                if not ok:
                    return False
    return True


def _check_smoothing(quick: bool) -> bool:
    rng = random.Random(11)
    rounds = 100 if quick else 500
    for _ in range(rounds):
        length = rng.randint(2, 6)
        tup = tuple(rng.randint(0, 8) for _ in range(length))
        for r in range(0, 7):
            new, delta = smoothing_step(tup, r)
            if elem_sym(new, r) - elem_sym(tup, r) != delta or delta < 0:
                return False
    return True


def _check_collapse(quick: bool) -> bool:
    pts = [(2, 3, 4), (3, 3, 4), (3, 4, 4)] if quick else [
        (2, 3, 4), (2, 3, 5), (3, 3, 4), (3, 3, 5), (3, 4, 4), (3, 4, 5)
    ]
    return all(verify_collapse(StarParams(n, ell, r)) for r, ell, n in pts)


def _check_star_degree(quick: bool) -> bool:
    pts = []
    n_hi = 5 if quick else 6
    for r in (2, 3):
        for ell in (3, 4, 5):
            for n in range(ell, n_hi + 1):
                pts.append((n, ell, r))
    for n, ell, r in pts:
        rep = core_family_turan_number(StarParams(n, ell, r))
        if rep["oracle_ex"] != rep["value"]:
            return False
    return True


CHECKS = [
    ("counterexample theorem", _check_counterexamples),
    ("partite-generator lemma", _check_partite_generators),
    ("cover-ideal dictionary", _check_dictionary),
    ("generalized Turán", _check_generalized),
    ("Hilbert-Turán bound", _check_hilbert_turan),
    ("smoothing identity", _check_smoothing),
    ("cover-ideal collapse", _check_collapse),
    ("star initial degree + extremal number", _check_star_degree),
]


def run_selftest(quick: bool = False, out=sys.stderr) -> tuple[list[dict], bool]:
    results = []
    all_ok = True
    for name, fn in CHECKS:
        start = time.perf_counter()
        ok = fn(quick)
        ms = round((time.perf_counter() - start) * 1000, 1)
        all_ok &= ok
        results.append({"check": name, "pass": ok, "ms": ms})
        print(f"[{'PASS' if ok else 'FAIL'}] {name} ({ms} ms)", file=out)
    return results, all_ok


__all__ = ["run_selftest", "CHECKS"]
