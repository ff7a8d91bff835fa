"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these tests out of the default test collection, since
the menu test runs every op of every workload (about half a minute).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def library():
    return run.fresh_import()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_list_is_deterministic_and_distinct(name):
    ops = workloads.build_ops(name, 11, 10)
    assert ops == workloads.build_ops(name, 11, 10)
    assert ops != workloads.build_ops(name, 12, 10)
    assert len(set(ops)) == len(ops)


def test_partite_ops_check_distinct_graphs():
    from turancover.diagonal import random_partite_3graph

    seen = set()
    for op in workloads.build_ops("diagonal", 3, 10):
        if op.call is None:
            continue
        n, ell, trials, seed = op.call[2]
        rng = random.Random(seed)
        graphs = {(n, ell, random_partite_3graph(n, ell - 1, rng)) for _ in range(trials)}
        assert not graphs & seen
        seen |= graphs


def test_tracer_is_fully_removed():
    originals = {
        (mod, name): value
        for mod, module in sys.modules.items()
        if mod.startswith("turancover.")
        for name, value in vars(module).items()
    }
    from turancover.polycore import Polynomial
    from turancover.squarezero import SquareZeroQuotient

    methods = dict(vars(Polynomial)), dict(vars(SquareZeroQuotient))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert getattr(sys.modules["turancover.cli"].ex_via_cover, "__wrapped_by_perfbench__", False)
        assert getattr(sys.modules["turancover.diagonal"].product, "__wrapped_by_perfbench__", False)
        run.execute(Op("t", 0, argv=("ex", "--forbid", "K3", "--n", "5")))
        assert tracer.spans
    finally:
        tracer.remove()
    after = {
        (mod, name): value
        for mod, module in sys.modules.items()
        if mod.startswith("turancover.")
        for name, value in vars(module).items()
    }
    assert after == originals
    assert (dict(vars(Polynomial)), dict(vars(SquareZeroQuotient))) == methods


def test_traced_spans_nest_and_self_times_add_up():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, elapsed = run.execute(Op("t", 0, argv=("gen-ex", "--target", "K3", "--forbid", "K4", "--n", "6")))
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics([], 1.0)
    layer_self = sum(metrics[f"{layer}.self_s"][0] for layer in tracing.LAYERS if layer != "cli")
    layer_self += metrics["cli.self_ms"][0] / 1000
    outermost = sum(end - start for _, _, start, end, parent, *_ in tracer.spans if parent < 0)
    assert layer_self == pytest.approx(outermost, rel=1e-6)
    assert metrics["dictionary.alpha_target_calls"][0] == 1
    assert metrics["polycore.mul_calls"][0] == 0


@pytest.mark.parametrize(
    "op",
    [
        # scale-guard refusal (exit 3)
        Op("star", 0, argv=("codegree-star", "--n", "7", "--ell", "4", "--r", "3", "--alpha")),
        # bad input (exit 4)
        Op("t", 0, argv=("ex", "--forbid", "Q17", "--n", "5")),
        # argparse rejection (SystemExit)
        Op("t", 0, argv=("ex", "--n", "5")),
        # uncaught RecursionError
        Op("own count", 0, argv=("hilbert", "--n", "2000", "--d", "1")),
        # library refusal raised as ScaleGuardError
        Op("partite", 0, call=("diagonal", "check_partite_generators", (8, 4, 1, 0))),
    ],
)
def test_refusals_and_exceptions_are_failures(op):
    outcome, _ = run.execute(op)
    assert not run.correct(op, outcome)


def test_wrong_answer_is_a_failure():
    op = Op("t", 0, argv=("ex", "--forbid", "K3", "--n", "5"))
    outcome, _ = run.execute(op)
    assert run.correct(op, outcome)
    outcome.out = outcome.out.replace('"value": 6', '"value": 7')
    assert not run.correct(op, outcome)


def test_quantiles():
    values = [float(i) for i in range(1, 102)]
    assert 50.0 < stats.hd_quantile(values, 0.5) < 51.0
    assert stats.hd_quantile([1.0] * 30 + [1000.0], 0.5) == pytest.approx(1.0)
    value, pct, beyond = stats.tail(values)
    assert (pct, beyond) == (100.0 * 91 / 101, 10)
    assert 90.0 < value < 93.0
    assert stats.betainc(2.0, 3.0, 0.4) == pytest.approx(0.5248)


def test_reference_arithmetic():
    assert workloads.turan_number(6, 2, 2) == 9
    assert workloads.turan_number(7, 3, 3) == 12
    assert workloads.count_independent(4, [(1, 2), (3, 4)], 2) == 4


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_menu_op_is_correct(name):
    workload = workloads.WORKLOADS[name]()
    rng = random.Random(0)
    ops = workload.fixed(rng)
    fill = workload.fill(rng)
    round_size = {"diagonal": 3, "hilbert": len(workloads.HILBERT_STRATA) + len(workloads.SYMMETRIZE_STRATA)}
    ops += [next(fill) for _ in range(round_size.get(name, 0))]
    failed = [op.label for op in ops if not run.correct(op, run.execute(op)[0])]
    assert not failed


def test_result_line_matches_benchmark_json():
    result, record = run.run("star", 1, 0.05, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert record["ladder"]
    traced, _ = run.run("star", 1, 0.05, trace=True)
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in traced["metrics"].items())
