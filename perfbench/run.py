"""Benchmark of the turancover verifier, driven the way users drive it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diagonal --seed 1 --seconds 10 --trace 0

Each op is an in-process ``turancover.cli.main(argv)`` call with stdout and
stderr captured, or one public library call where no subcommand exists.  A
run imports the library from ``src/`` of the checkout, builds the workload's
op list from the seed, runs it once (one pass), checks every answer against
its named reference outside the timed region, and climbs the workload's reach
ladder.  With ``--trace 1`` it instead runs the pass untraced and then traced,
and reports per-layer metrics and the tracing overhead.

The last line of stdout is the result object; the line before it is the run
record (commit, Python, nproc, seed, hash seed, tail percentile, ladder rungs).
Everything runs in this one process, one op at a time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import stats
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = (ROOT / "src" / "turancover").resolve()
HASH_SEED = "0"
SETUPS = 7
SAMPLE_S = 0.05  # speed-probe period inside an op


class RungTimeout(BaseException):
    """A ladder rung ran over its budget (raised from SIGALRM)."""


def fresh_import():
    """Import turancover from this checkout, dropping any earlier import so
    no module-level cache carries over between passes."""
    for name in [m for m in sys.modules if m == "turancover" or m.startswith("turancover.")]:
        del sys.modules[name]
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    cli = importlib.import_module("turancover.cli")
    if Path(cli.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"turancover imported from {cli.__file__}, not from {PACKAGE}")
    return cli


def setup(workload: str, seed: int, seconds: float) -> tuple[float, list]:
    """Import the library, build the parser and the op list; nothing runs."""
    start = time.perf_counter()
    cli = fresh_import()
    cli.build_parser()
    ops = workloads.build_ops(workload, seed, seconds)
    return time.perf_counter() - start, ops


def execute(op: workloads.Op) -> tuple[workloads.Outcome, float]:
    """Run one op and time it.  Exceptions are recorded, not raised, except
    a ladder's RungTimeout."""
    outcome = workloads.Outcome()
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if op.argv is not None:
                outcome.code = sys.modules["turancover.cli"].main(list(op.argv))
            else:
                module, function, args = op.call
                outcome.value = getattr(sys.modules[f"turancover.{module}"], function)(*args)
    except SystemExit as exc:  # argparse rejects the argv
        outcome.code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - any escape (RecursionError too) is a failed op
        outcome.error = type(exc).__name__
    elapsed = time.perf_counter() - start
    outcome.out = out.getvalue()
    return outcome, elapsed


def correct(op: workloads.Op, outcome: workloads.Outcome) -> bool:
    try:
        return workloads.check(op, outcome)
    except (KeyError, TypeError, ValueError, AttributeError):  # a malformed report
        return False


def run_pass(ops) -> tuple[list[tuple[workloads.Outcome, float]], list[float]]:
    """Run every op once.  Returns each (outcome, raw seconds) and each op's
    seconds at reference speed (see stats).

    The speed probe runs between ops and, from SIGALRM every SAMPLE_S, during
    long ones; its time inside an op is taken out of the op's time.  Each op
    starts from a collected heap, as a fresh CLI process does, so the
    collector's pauses depend on the op and not on the ops before it.  What
    set-up left is frozen, so these collections only look at newer objects.
    """
    samples: list[float] = []
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(stats.probe()))
    gc.collect()
    gc.freeze()
    results, scaled = [], []
    try:
        before = stats.probe()
        for op in ops:
            gc.collect()
            samples.clear()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
            try:
                outcome, elapsed = execute(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            after = stats.probe()
            elapsed -= sum(samples)
            results.append((outcome, elapsed))
            scaled.append(stats.at_reference(elapsed, [before, after, *samples]))
            before = after
    finally:
        gc.unfreeze()
        signal.signal(signal.SIGALRM, previous)
    return results, scaled


def _alarm(signum, frame):
    raise RungTimeout


def climb(ladder) -> tuple[int, list[dict]]:
    """Largest rung n answered correctly within the budget; every rung's time.
    The rungs run on a fresh import, in this process, under SIGALRM."""
    fresh_import()
    previous = signal.signal(signal.SIGALRM, _alarm)
    reach, rungs = 0, []
    try:
        for n, op in ladder:
            try:
                signal.setitimer(signal.ITIMER_REAL, workloads.RUNG_BUDGET_S)
                try:
                    outcome, elapsed = execute(op)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except RungTimeout:
                outcome, elapsed = None, workloads.RUNG_BUDGET_S
            if outcome is None or elapsed > workloads.RUNG_BUDGET_S:
                status = "over budget"
            elif correct(op, outcome):
                status = "ok"
            elif outcome.error:
                status = outcome.error
            else:
                status = f"exit {outcome.code}" if outcome.code else "wrong answer"
            rungs.append({"n": n, "seconds": elapsed, "status": status})
            if status != "ok":
                break
            reach = n
    finally:
        signal.signal(signal.SIGALRM, previous)
    return reach, rungs


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, run record)."""
    setup_times, ops = [], None
    for _ in range(SETUPS):
        before = stats.probe()
        elapsed, built = setup(workload, seed, seconds)
        setup_times.append(stats.at_reference(elapsed, [before, stats.probe()]))
        if ops is not None and built != ops:
            raise RuntimeError("op list is not deterministic for one seed")
        ops = built
    if len(set(ops)) != len(ops):
        raise RuntimeError("op list repeats an op")
    results, scaled = run_pass(ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = [correct(op, outcome) for op, (outcome, _) in zip(ops, results)]
    raw = [elapsed for _, elapsed in results]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "ops": len(ops),
        "references": dict(Counter(op.ref for op in ops)),
        "setup_runs_s": setup_times,
        "pass_s": sum(scaled),
        "raw_pass_s": sum(raw),
        "speed": sum(scaled) / sum(raw),
    }
    if trace:
        fresh_import()
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_scaled = run_pass(ops)
        finally:
            tracer.remove()
        verdicts += [correct(op, outcome) for op, (outcome, _) in zip(ops, traced)]
        traced_raw = sum(elapsed for _, elapsed in traced)
        metrics = tracer.layer_metrics(ops, sum(traced_scaled) / traced_raw)
        metrics["trace.untraced_pass_s"] = (sum(scaled), "s")
        metrics["trace.traced_pass_s"] = (sum(traced_scaled), "s")
        metrics["trace.overhead_ratio"] = (sum(traced_scaled) / sum(scaled) - 1.0, "ratio")
        metrics["trace.spans"] = (len(tracer.spans), "count")
        record.update(traced_pass_s=sum(traced_scaled), traced_raw_pass_s=traced_raw)
    else:
        tail_s, tail_pct, beyond = stats.tail(scaled)
        reach, rungs = climb(workloads.WORKLOADS[workload]().ladder())
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (sum(verdicts) / sum(scaled), "1/s"),
            "op_p50_ms": (stats.hd_quantile(scaled, 0.5) * 1000.0, "ms"),
            "op_tail_ms": (tail_s * 1000.0, "ms"),
            "ok_ratio": (sum(verdicts) / len(verdicts), "ratio"),
            "reach_n": (reach, "n"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        record.update(
            raw_p50_ms=stats.hd_quantile(raw, 0.5) * 1000.0,
            raw_tail_ms=stats.tail(raw)[0] * 1000.0,
            tail_percentile=tail_pct,
            tail_beyond=beyond,
            rung_budget_s=workloads.RUNG_BUDGET_S,
            ladder=rungs,
        )
    failures = [op.label for op, ok in zip(ops * (2 if trace else 1), verdicts) if not ok]
    record["failures"] = failures[:20]
    result = {
        "correct": not failures,
        "attempted": len(verdicts),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no turancover package at {PACKAGE}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # pin string hashing (set and dict order) before anything is imported
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
