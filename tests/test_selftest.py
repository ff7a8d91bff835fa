"""The table of acceptance criteria, and how `selftest` reports a failing row."""

import io
import json

import pytest

from turancover import selftest
from turancover.cli import EXIT_BAD_INPUT, EXIT_CLAIM_FAILED, EXIT_SCALE_GUARD, main
from turancover.errors import ClaimCheckError, InputError, ScaleGuardError
from turancover.selftest import CRITERIA, run_selftest


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
