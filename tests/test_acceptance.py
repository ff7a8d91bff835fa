"""Acceptance suite: every row of `turancover.selftest.CRITERIA` on its full grid.

One test and one printed [PASS]/[FAIL] line per criterion.  A test fails with
the check's message, or when the criterion overruns its runtime budget.
"""

import sys
import time

from turancover.selftest import CRITERIA, check_grid

# The tests keep the ids they had before the criteria moved into one table.
TEST_IDS = {
    "counterexample theorem": "test_criterion_01_counterexample_theorem",
    "partite-generator lemma": "test_criterion_02_partite_generators",
    "cover-ideal dictionary": "test_criterion_03_dictionary",
    "generalized Turán": "test_criterion_04_generalized_turan",
    "Hilbert-Turán bound": "test_criterion_05_hilbert_turan_exhaustive",
    "cloning-lemma ledger and symmetrization": "test_criterion_06_cloning_lemma",
    "smoothing identity and its closed form": "test_criterion_07_smoothing_identity",
    "star ideal collapses to the core-family cover ideal": "test_criterion_08_collapse",
    "star initial degree + extremal number": "test_criterion_09_initial_degree_and_extremal",
    "vacuous range": "test_criterion_10_vacuous_range",
}


def _criterion_test(row):
    def test():
        start = time.monotonic()
        try:
            check_grid(row, row.full)
            elapsed = time.monotonic() - start
            assert elapsed < row.budget_s, (
                f"{row.name} exceeded the {row.budget_s}s runtime budget ({elapsed:.1f}s)"
            )
        except BaseException:
            print(f"[FAIL] {row.name}", file=sys.stderr, flush=True)
            raise
        print(f"[PASS] {row.name} ({elapsed:.1f}s)", file=sys.stderr, flush=True)

    return test


for _row in CRITERIA:
    globals()[TEST_IDS[_row.name]] = _criterion_test(_row)
