import argparse
import contextlib
import io
import itertools
import json
import re
import time
from dataclasses import asdict
from datetime import timedelta
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turancover import cli, dictionary, squarezero
from turancover.cli import (
    EXIT_BAD_INPUT,
    EXIT_CLAIM_FAILED,
    EXIT_OK,
    EXIT_SCALE_GUARD,
    build_parser,
    main,
)
from turancover.hypergraph import RGraph, core_family_free
from turancover.selftest import CRITERIA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_verify_counterexample_json(capsys):
    code, report, _ = run(capsys, "verify-counterexample", "--ell", "3", "--n", "4")
    assert code == EXIT_OK
    assert report["command"] == "verify-counterexample"
    assert report["params"] == {"n": 4, "ell": 3}
    assert report["result"]["verdict"] == "counterexample confirmed"
    assert report["result"]["F_degree"] == 6
    assert report["result"]["D"] == 12
    assert "version" in report and "elapsed_ms" in report


def test_verify_counterexample_oracle_match(capsys):
    code, report, _ = run(capsys, "verify-counterexample", "--ell", "4", "--n", "6", "--oracle")
    assert code == EXIT_OK
    assert report["oracle"] == {"in_DI": True, "match": True}


def test_verify_counterexample_oracle_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cli, "in_differentiated_ideal", lambda p, params: False)
    code, report, _ = run(capsys, "verify-counterexample", "--ell", "3", "--n", "4", "--oracle")
    assert code == EXIT_CLAIM_FAILED
    assert report["result"]["in_DI"] is True
    assert report["oracle"] == {"in_DI": False, "match": False}


def test_verify_counterexample_oracle_refused_above_polynomial_cap(capsys):
    code, payload, err = run(capsys, "verify-counterexample", "--ell", "3", "--n", "8", "--oracle")
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert json.loads(err)["error"] == "scale guard"
    # without the oracle, n = 8 is decided by the pair count
    code, report, _ = run(capsys, "verify-counterexample", "--ell", "3", "--n", "8")
    assert code == EXIT_OK and report["result"]["F_degree"] == 28


def test_verify_counterexample_huge_input_refused_fast(capsys):
    start = time.monotonic()
    code, _, err = run(capsys, "verify-counterexample", "--ell", "500000", "--n", "1000000")
    assert time.monotonic() - start < 1.0
    assert code == EXIT_SCALE_GUARD
    assert json.loads(err)["error"] == "scale guard"


def test_ex_with_oracle(capsys):
    code, report, _ = run(capsys, "ex", "--n", "5", "--forbid", "K3", "--oracle")
    assert code == EXIT_OK
    assert report["result"]["value"] == 6
    assert report["oracle"]["match"] is True
    assert len(report["witnesses"]["witness_edges"]) == 6


def test_ex_core_family_past_the_edge_enumerator(capsys):
    code, report, _ = run(capsys, "ex", "--n", "9", "--forbid", "K_ell_r(4,3)")
    assert code == EXIT_OK
    assert report["result"] == {"value": 27, "alpha": comb(9, 3) - 27}
    witness = RGraph(9, 3, report["witnesses"]["witness_edges"])
    assert len(witness) == 27 and core_family_free(witness, 4)


def test_ex_from_hypergraph_file(capsys, tmp_path):
    path = tmp_path / "triples.txt"
    path.write_text("# two triples sharing a pair\n4 3\n1 2 3\n1 2 4\n")
    code, report, _ = run(capsys, "ex", "--n", "4", "--forbid", str(path))
    # any two triples of [4] share a pair, so at most one edge survives
    assert code == EXIT_OK
    assert report["result"]["value"] == 1


def test_gen_ex(capsys):
    code, report, _ = run(
        capsys, "gen-ex", "--n", "6", "--target", "K3", "--forbid", "K4", "--oracle"
    )
    assert code == EXIT_OK
    assert report["result"]["value"] == 8
    assert report["oracle"]["match"] is True


def test_hilbert(capsys):
    code, report, _ = run(
        capsys, "hilbert", "--n", "4", "--d", "2", "--kill", "1,2", "3,4"
    )
    assert code == EXIT_OK
    assert report["result"]["value"] == 4


def test_symmetrize(capsys):
    code, report, _ = run(
        capsys,
        "symmetrize",
        "--n", "4", "--q", "2", "--r", "2",
        "--kill", "1,2", "3,4", "1,3",
    )
    assert code == EXIT_OK
    res = report["result"]
    assert res["hilbert_terminal"] >= res["hilbert_initial"] == 3
    assert res["terminal_class_sizes"] == [2, 2]
    assert res["hilbert_terminal"] == 4


def test_alpha(capsys):
    code, report, _ = run(capsys, "ex", "--n", "5", "--forbid", "K3")
    assert code == EXIT_OK
    assert report["result"] == {"value": 6, "alpha": 4}


def test_codegree_star(capsys):
    code, report, _ = run(
        capsys,
        "codegree-star",
        "--n", "5", "--ell", "4", "--r", "3",
        "--verify-collapse", "--alpha", "--oracle",
    )
    assert code == EXIT_OK
    res = report["result"]
    assert res["alpha"] == res["expected"] == 6
    assert res["collapse_ok"] is True
    assert res["oracle_ex"] == res["mubayi_value"] == 4


def test_selftest_quick(capsys):
    code = main(["selftest", "--quick"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    report = json.loads(captured.out)
    assert report["result"]["ok"] is True
    assert all(c["ms"] >= 0 for c in report["result"]["checks"])
    names = [row.name for row in CRITERIA]
    assert [c["check"] for c in report["result"]["checks"]] == names
    lines = [l for l in captured.err.splitlines() if l.startswith("[")]
    assert len(lines) == len(names)
    assert all(l.startswith(f"[PASS] {name} (") for l, name in zip(lines, names))


def test_bad_input_exit_code(capsys):
    code, payload, err = run(capsys, "ex", "--n", "5", "--forbid", "Q17")
    assert code == EXIT_BAD_INPUT
    assert payload is None
    assert json.loads(err)["error"] == "bad input"


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize(
    "argv", [("ex", "--forbid", "K3"), ("gen-ex", "--target", "K3", "--forbid", "K4")]
)
def test_ex_and_gen_ex_refuse_fewer_than_one_vertex(capsys, argv, n):
    code, payload, err = run(capsys, *argv, "--n", n)
    assert code == EXIT_BAD_INPUT
    assert payload is None
    assert json.loads(err) == {"error": "bad input", "message": f"need n >= 1, got n={n}"}


def test_bad_kill_pair_exit_code(capsys):
    code, _, err = run(capsys, "hilbert", "--n", "4", "--d", "1", "--kill", "1")
    assert code == EXIT_BAD_INPUT
    assert json.loads(err)["error"] == "bad input"


def test_hilbert_past_the_old_recursion_limit(capsys):
    for n, d in [(2000, 1), (60, 30)]:
        start = time.monotonic()
        code, report, _ = run(capsys, "hilbert", "--n", str(n), "--d", str(d))
        assert time.monotonic() - start < 1.0
        assert code == EXIT_OK
        assert report["result"]["value"] == comb(n, d)


def test_hilbert_step_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(squarezero, "HILBERT_CAP_STEPS", 10)
    cycle = [f"{v},{v % 12 + 1}" for v in range(1, 13)]
    code, payload, err = run(capsys, "hilbert", "--n", "12", "--d", "4", "--kill", *cycle)
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert json.loads(err)["error"] == "scale guard"


def test_scale_guard_exit_code(capsys):
    code, payload, err = run(
        capsys, "codegree-star", "--n", "7", "--ell", "3", "--r", "3",
        "--verify-collapse",
    )
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert json.loads(err)["error"] == "scale guard"


def test_codegree_star_witness_support_in_rank_order(capsys):
    code, report, _ = run(capsys, "codegree-star", "--n", "5", "--ell", "4", "--r", "3", "--alpha")
    assert code == EXIT_OK
    # the non-transversal 3-sets of the partition {1,2} {3,4} {5}, colex order
    assert report["result"]["witness_support"] == [
        [1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4], [1, 2, 5], [3, 4, 5],
    ]


@pytest.mark.parametrize(
    "argv",
    [
        # 19,900 edge variables times 19,900 single-edge copies
        ("ex", "--n", "200", "--forbid", "K2"),
        # 1,770 edge targets times 34,220 triangle copies
        ("codegree-star", "--n", "60", "--ell", "3", "--r", "2", "--alpha"),
    ],
)
def test_hitting_set_setup_refused_fast(capsys, argv):
    start = time.monotonic()
    code, payload, err = run(capsys, *argv)
    assert time.monotonic() - start < 2.0
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert json.loads(err)["error"] == "scale guard"


def refuse_enumeration(*args, **kwargs):
    raise AssertionError("copies enumerated before the setup guard ran")


@pytest.mark.parametrize(
    "argv",
    [
        # 979,300 edge variables times as many single-edge copies
        ("ex", "--n", "1400", "--forbid", "K2"),
        # 34,220 triangle targets times 487,635 K4 copies
        ("gen-ex", "--n", "60", "--target", "K3", "--forbid", "K4"),
    ],
)
def test_explicit_pattern_setup_refused_before_enumeration(capsys, monkeypatch, argv):
    monkeypatch.setattr(dictionary, "enumerate_forbidden_copies", refuse_enumeration)
    start = time.monotonic()
    code, payload, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert json.loads(err)["error"] == "scale guard"


def test_vacuous_counterexample_range_is_bad_input(capsys):
    code, _, err = run(capsys, "verify-counterexample", "--ell", "4", "--n", "3")
    assert code == EXIT_BAD_INPUT


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# one valid call per subcommand, with no trailing --kill list, so that a
# token appended to it is a leftover argument
VALID_ARGVS = {
    "verify-counterexample": ["verify-counterexample", "--ell", "3", "--n", "4"],
    "ex": ["ex", "--n", "4", "--forbid", "K3"],
    "gen-ex": ["gen-ex", "--n", "4", "--target", "K3", "--forbid", "K4"],
    "hilbert": ["hilbert", "--n", "4", "--d", "2"],
    "symmetrize": ["symmetrize", "--kill", "1,2", "3,4", "1,3", "--n", "4", "--q", "2", "--r", "2"],
    "codegree-star": ["codegree-star", "--n", "5", "--ell", "4", "--r", "3", "--alpha"],
    "selftest": ["selftest", "--quick"],
}


def cli_argvs():
    """Usage errors, help and valid calls of every subcommand, and the
    top-level cases the full parser answers."""
    yield from ([], ["-h"], ["--help"], ["frobnicate"], ["--n", "4"], ["hilbert", "--n", "4", "--d", "2", "extra"])
    for name, valid in VALID_ARGVS.items():
        yield [name, "-h"]
        yield [*valid, "--bogus"]
        yield [*valid, "extra"]
        if name != "selftest":  # a bare selftest runs the full suite
            yield [name]
            yield [name, "--n", "x", *valid[1:]]
            yield valid
    yield ["hilbert", "--n", "4", "--d", "2", "--ki", "1,2"]  # an abbreviated flag


def cli_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out.getvalue()), err.getvalue()


def test_cli_text_and_exit_codes_match_the_full_parser(monkeypatch):
    seen = [cli_outcome(argv) for argv in cli_argvs()]
    monkeypatch.setattr(cli, "parse_args", lambda argv: build_parser().parse_args(argv))
    for argv, got in zip(cli_argvs(), seen):
        assert got == cli_outcome(argv), argv
    # 0 for help and valid calls, 2 for argparse's usage errors
    assert {code for code, _, _ in seen} == {EXIT_OK, EXIT_CLAIM_FAILED}


def test_valid_call_builds_one_subparser(monkeypatch):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert cli_outcome(VALID_ARGVS["hilbert"])[0] == EXIT_OK
    assert built == ["hilbert"]
    built.clear()
    assert cli_outcome(["hilbert", "--n", "4", "--d", "2", "extra"])[0] == 2
    assert built == ["hilbert", *cli.SUBCOMMANDS]


REPORT_ARGVS = [
    ["verify-counterexample", "--ell", "3", "--n", "5", "--oracle"],
    ["ex", "--n", "5", "--forbid", "K3", "--oracle"],
    ["gen-ex", "--n", "5", "--target", "K3", "--forbid", "K4"],
    ["hilbert", "--n", "5", "--d", "2", "--kill", "1,2", "2,3"],
    ["symmetrize", "--n", "4", "--q", "2", "--r", "2", "--kill", "1,2", "3,4", "1,3"],
    ["codegree-star", "--n", "5", "--ell", "4", "--r", "3", "--verify-collapse", "--alpha"],
    ["selftest", "--quick"],
]


def test_report_json_is_the_deep_copy_json():
    # one report of each subcommand
    for argv in REPORT_ARGVS:
        args = build_parser().parse_args(argv)
        with contextlib.redirect_stderr(io.StringIO()):
            report, _ = args.func(args)
        assert report.to_json() == json.dumps(asdict(report), indent=2), argv[0]


# ---------------------------------------------------------------------------
# random CLI calls, in process: every one ends with a documented exit code


def kill_tokens(n):
    vertex = st.integers(min_value=0, max_value=n + 2)
    good = st.tuples(vertex, vertex).map(lambda p: f"{p[0]},{p[1]}")
    bad = st.sampled_from(["1", "1,2,3", "x,1", ",", "", "2-", "1,1"])
    return st.lists(st.one_of(good, good, good, bad), max_size=12)


def call_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def brute_force_hilbert(n, pairs, d):
    killed = {frozenset(p) for p in pairs}
    return sum(
        1
        for S in itertools.combinations(range(1, n + 1), d)
        if not any(frozenset(p) in killed for p in itertools.combinations(S, 2))
    )


@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(st.data())
def test_random_hilbert_and_symmetrize_calls_end_with_a_documented_code(data):
    n = data.draw(st.integers(min_value=-1, max_value=9), label="n")
    kill = data.draw(kill_tokens(max(n, 1)), label="kill")
    if data.draw(st.booleans(), label="hilbert"):
        d = data.draw(st.integers(min_value=-1, max_value=11), label="d")
        argv = ["hilbert", "--n", str(n), "--d", str(d)]
    else:
        q = data.draw(st.integers(min_value=-1, max_value=10), label="q")
        r = data.draw(st.integers(min_value=-1, max_value=10), label="r")
        argv = ["symmetrize", "--n", str(n), "--q", str(q), "--r", str(r)]
    if kill:
        argv += ["--kill", *kill]
    code, out = call_main(argv)
    assert code in (EXIT_OK, EXIT_CLAIM_FAILED, EXIT_SCALE_GUARD, EXIT_BAD_INPUT)
    if code == EXIT_OK and argv[0] == "hilbert":
        pairs = [tok.replace("-", ",").split(",") for tok in kill]
        pairs = [(int(a), int(b)) for a, b in pairs]
        assert json.loads(out)["result"]["value"] == brute_force_hilbert(n, pairs, d)
