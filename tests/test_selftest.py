"""The table of acceptance criteria, and how `selftest` reports a failing row."""

import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from turancover import selftest
from turancover.cli import EXIT_BAD_INPUT, EXIT_CLAIM_FAILED, EXIT_SCALE_GUARD, main
from turancover.errors import ClaimCheckError, InputError, ScaleGuardError
from turancover.hypergraph import RGraph
from turancover.selftest import CRITERIA, check_grid, run_selftest


def test_row_names_are_unique():
    names = [row.name for row in CRITERIA]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("row", CRITERIA, ids=lambda row: row.name)
def test_quick_grid_is_part_of_the_full_grid(row):
    assert row.quick
    assert all(point in row.full for point in row.quick)


def _plant_first_row(monkeypatch, exc_type):
    def check(point):
        raise exc_type(f"planted failure at {point!r}")

    first = CRITERIA[0]._replace(check=check)
    monkeypatch.setattr(selftest, "CRITERIA", (first,) + CRITERIA[1:])
    return first


def test_failing_row_is_reported_and_the_rest_still_run(monkeypatch):
    first = _plant_first_row(monkeypatch, ClaimCheckError)
    out = io.StringIO()
    results, ok = run_selftest(quick=True, out=out)
    assert ok is False
    lines = out.getvalue().splitlines()
    assert len(lines) == len(results) == len(CRITERIA)
    message = f"at {first.quick[0]!r}: planted failure at {first.quick[0]!r}"
    ms = results[0]["ms"]
    assert results[0] == {"check": first.name, "pass": False, "ms": ms, "message": message}
    assert lines[0] == f"[FAIL] {first.name} ({ms} ms): {message}"
    assert all(line.startswith("[PASS]") for line in lines[1:])
    assert all(r["pass"] for r in results[1:])


def test_cli_selftest_exits_2_when_a_check_fails(monkeypatch, capsys):
    _plant_first_row(monkeypatch, ClaimCheckError)
    code = main(["selftest", "--quick"])
    captured = capsys.readouterr()
    assert code == EXIT_CLAIM_FAILED
    report = json.loads(captured.out)
    assert report["result"]["ok"] is False
    assert [c["pass"] for c in report["result"]["checks"]].count(False) == 1


@pytest.mark.parametrize(
    "exc_type, code", [(ScaleGuardError, EXIT_SCALE_GUARD), (InputError, EXIT_BAD_INPUT)]
)
def test_only_claim_failures_are_caught(monkeypatch, capsys, exc_type, code):
    _plant_first_row(monkeypatch, exc_type)
    with pytest.raises(exc_type):
        run_selftest(quick=True, out=io.StringIO())
    assert main(["selftest", "--quick"]) == code
    assert capsys.readouterr().out == ""


def test_quick_table_passes_under_optimize_flag():
    # `python -O` strips `assert`: every claim check must still run and pass
    root = str(Path(selftest.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-m", "turancover.cli", "selftest", "--quick"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = done.stderr.splitlines()
    assert len(rows) == len(CRITERIA)
    assert all(row.startswith("[PASS]") for row in rows), rows
    assert json.loads(done.stdout)["result"]["ok"] is True


def _with_extra_edge(gen_ex):
    """`gen_ex` whose witness gains one edge completing a copy of the forbidden clique."""

    def mutated(n, target, forbid):
        best, G = gen_ex(n, target, forbid)
        for clique in itertools.combinations(range(1, n + 1), forbid.n):
            missing = [p for p in itertools.combinations(clique, 2) if frozenset(p) not in G.edges]
            if len(missing) == 1:
                return best, RGraph(n, 2, G.edge_list() + missing)
        raise AssertionError("no clique lacks exactly one edge")

    return mutated


@pytest.mark.parametrize(
    "name, mutate",
    [
        ("turan_count", lambda f: lambda *a: f(*a) + 1),
        ("brute_force_gen_ex", lambda f: lambda *a: (f(*a)[0] - 1, f(*a)[1])),
        ("brute_force_gen_ex", _with_extra_edge),
    ],
    ids=["turan_count+1", "oracle_value-1", "witness_edge+1"],
)
def test_hilbert_turan_row_catches_a_mutation(monkeypatch, name, mutate):
    (row,) = [row for row in CRITERIA if row.name == "Hilbert-Turán bound"]
    monkeypatch.setattr(selftest, name, mutate(getattr(selftest, name)))
    with pytest.raises(ClaimCheckError):
        check_grid(row, row.full)
