import argparse
import contextlib
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict
from datetime import timedelta
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turancover import cli, dictionary, hypergraph, squarezero
from turancover.cli import (
    EXIT_BAD_INPUT,
    EXIT_CLAIM_FAILED,
    EXIT_OK,
    EXIT_SCALE_GUARD,
    build_parser,
    main,
)
from turancover.errors import InputError, ScaleGuardError
from turancover.hypergraph import (
    RGraph,
    builtin_spec,
    core_family_free,
    count_copies,
    enumerate_forbidden_copies,
    turan_count,
)
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


def test_ex_complete_pattern_is_not_relabelled(capsys):
    # 9! relabellings of K9 would exceed the labelling cap; a complete
    # pattern has one shape, so the answer is t_2(10, 8)
    code, report, _ = run(capsys, "ex", "--n", "10", "--forbid", "K9")
    assert code == EXIT_OK
    assert report["result"] == {"value": 43, "alpha": 2} and turan_count(10, 8, 2) == 43


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
    # the certified witness: T(6, 3), whose 12 edges hold the 8 triangles
    edges = report["witnesses"]["witness_edges"]
    G = RGraph(6, 2, edges)
    assert len(edges) == 12
    assert count_copies(G, enumerate_forbidden_copies(builtin_spec("K3"), 6)) == 8
    assert count_copies(G, enumerate_forbidden_copies(builtin_spec("K4"), 6)) == 0


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


@pytest.mark.parametrize("n", ["5", "9"])
def test_gen_ex_mixed_uniformity_is_bad_input_before_listing(capsys, n):
    # refused on the two specs alone, before either family is listed
    code, payload, err = run(capsys, "gen-ex", "--target", "K3", "--forbid", "K_ell_r(4,3)", "--n", n)
    assert code == EXIT_BAD_INPUT
    assert payload is None
    assert json.loads(err) == {
        "error": "bad input",
        "message": "target and forbidden families must share uniformity",
    }


def test_gen_ex_core_pair_target_is_bad_input(capsys):
    argv = ("gen-ex", "--target", "K_ell_r(3,3)", "--forbid", "K_ell_r(4,3)", "--n", "5", "--oracle")
    code, payload, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert payload is None
    assert json.loads(err) == {
        "error": "bad input",
        "message": "target must be an explicit pattern: a core-pair family would count only its minimal copies",
    }


def test_gen_ex_core_pair_family_on_shadow_targets(capsys, tmp_path):
    # with one 3-edge as target this is ex(8, K_ell_r(4,3)) = t_3(8, 3); the
    # edge-level listing of minimal copies refused it
    path = tmp_path / "edge.txt"
    path.write_text("3 3\n1 2 3\n")
    code, report, _ = run(capsys, "gen-ex", "--target", str(path), "--forbid", "K_ell_r(4,3)", "--n", "8")
    assert code == EXIT_OK
    assert report["result"]["value"] == turan_count(8, 3, 3) == 18
    witness = RGraph(8, 3, report["witnesses"]["witness_edges"])
    assert len(witness) == 18 and core_family_free(witness, 4)


@pytest.mark.parametrize(
    "text,forbid,n",
    [("5 2\n1 2\n2 3\n1 3\n", "K4", "4"), ("4 2\n1 2\n", "K_ell_r(3,2)", "3")],
    ids=["K3-on-5/K4", "edge-on-4/K32"],
)
def test_gen_ex_target_larger_than_n_matches_the_oracle(capsys, tmp_path, text, forbid, n):
    # isolated vertices put T past [n]: no copy fits, and both sides say 0
    path = tmp_path / "target.txt"
    path.write_text(text)
    code, report, _ = run(capsys, "gen-ex", "--target", str(path), "--forbid", forbid, "--n", n, "--oracle")
    assert code == EXIT_OK
    assert report["result"]["value"] == 0
    assert report["oracle"] == {"oracle_value": 0, "match": True}


def test_gen_ex_edgeless_target_is_bad_input(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("3 2\n")
    code, payload, err = run(capsys, "gen-ex", "--target", str(path), "--forbid", "K3", "--n", "4")
    assert code == EXIT_BAD_INPUT
    assert payload is None
    assert json.loads(err) == {"error": "bad input", "message": "target has no edges"}


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


def test_hilbert_with_no_kill_pairs_is_not_quadratic_in_n(capsys):
    # a million vertices, none with a kill partner: the kill-pair scans
    # visit none of them and none is ordered, so at d = 3 the closed form
    # and at d = 4 the free block answer at once
    for d in (3, 4):
        start = time.monotonic()
        code, report, _ = run(capsys, "hilbert", "--n", "1000000", "--d", str(d))
        assert time.monotonic() - start < 2.0, d
        assert code == EXIT_OK
        assert report["result"]["value"] == comb(10**6, d)


def test_hilbert_step_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(squarezero, "HILBERT_CAP_STEPS", 10)
    cycle = [f"{v},{v % 12 + 1}" for v in range(1, 13)]
    code, payload, err = run(capsys, "hilbert", "--n", "12", "--d", "4", "--kill", *cycle)
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert json.loads(err)["error"] == "scale guard"


def test_hilbert_quotient_cap_refuses_before_any_mask_is_built(capsys, monkeypatch):
    monkeypatch.setattr(squarezero, "QUOTIENT_CAP_VERTICES", 10)
    code, report, _ = run(capsys, "hilbert", "--n", "10", "--d", "2", "--kill", "1,2")
    assert code == EXIT_OK and report["result"]["value"] == comb(10, 2) - 1
    # a regular kill list, and one that takes the fallback parser
    for kill in (["1,2"], ["1-2"]):
        code, payload, err = run(capsys, "hilbert", "--n", "11", "--d", "2", "--kill", *kill)
        assert code == EXIT_SCALE_GUARD and payload is None, kill
        assert json.loads(err) == {"error": "scale guard", "message": "n=11 exceeds quotient cap 10 variables"}
    # the library constructor checks the same cap before its own list
    with pytest.raises(ScaleGuardError, match="exceeds quotient cap 10"):
        squarezero.SquareZeroQuotient(11, [(1, 2)])


def test_far_kill_partners_are_priced_before_any_mask_is_built(capsys, monkeypatch):
    # at a cap of 100 bits a quotient on 10 variables (110 bits when every
    # pair is killed) is priced: 1,10 and 2,10 give masks of 11, 11 and 3 bits
    monkeypatch.setattr(squarezero, "MASK_CAP_BITS", 25)
    code, report, _ = run(capsys, "hilbert", "--n", "10", "--d", "2", "--kill", "1,10", "2,10")
    assert code == EXIT_OK and report["result"]["value"] == comb(10, 2) - 2
    monkeypatch.setattr(squarezero, "MASK_CAP_BITS", 24)
    # a regular kill list, and one that takes the fallback parser
    for kill in (["1,10", "2,10"], ["1-10", "2,10"]):
        code, payload, err = run(capsys, "hilbert", "--n", "10", "--d", "2", "--kill", *kill)
        assert code == EXIT_SCALE_GUARD and payload is None, kill
        assert json.loads(err) == {"error": "scale guard", "message": "kill masks need 25 bits, cap 24"}


def test_far_kill_partners_are_refused_at_the_vertex_cap():
    # 20,000 pairs with partner 4,000,000 would build 10 GB of masks
    n = squarezero.QUOTIENT_CAP_VERTICES
    argv = ["hilbert", "--n", str(n), "--d", "2", "--kill", *(f"{a},{n}" for a in range(1, 20001))]
    tracemalloc.start()
    start = time.monotonic()
    try:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == EXIT_SCALE_GUARD
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.monotonic() - start < 2.0
    assert peak < 64 * 2**20
    assert json.loads(err.getvalue())["message"] == "kill masks need 80000040001 bits, cap 2147483648"


def test_a_quotient_at_the_vertex_cap_with_no_kill_pairs_still_answers(capsys):
    n = squarezero.QUOTIENT_CAP_VERTICES
    code, report, _ = run(capsys, "hilbert", "--n", str(n), "--d", "1")
    assert code == EXIT_OK and report["result"]["value"] == n


@pytest.mark.parametrize("kill", [["1,2", "3,4", "1,3"], ["1,2", "3,4"]], ids=["steps", "no-step"])
def test_symmetrize_groups_classes_once_per_call(capsys, monkeypatch, kill):
    group, grouped = squarezero._group_classes, []

    def recorded(adj):
        grouped.append(adj)
        return group(adj)

    monkeypatch.setattr(squarezero, "_group_classes", recorded)
    code, report, _ = run(capsys, "symmetrize", "--n", "4", "--q", "2", "--r", "2", "--kill", *kill)
    assert code == EXIT_OK and len(grouped) == 1
    res = report["result"]
    assert bool(res["steps"]) == (len(kill) == 3)
    terminal = squarezero.SquareZeroQuotient(4, res["terminal_kill"])
    assert res["terminal_class_sizes"] == squarezero.terminal_class_sizes(terminal)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["symmetrize", "--n", "4000000", "--q", "4000000", "--r", "2"], "key bits, cap 268435456"),
        (["hilbert", "--n", "20000", "--d", "10000"], "C(20000, 10000) exceeds 4300 digits"),
        (["hilbert", "--n", "4000000", "--d", "2000"], "C(4000000, 2000) exceeds 4300 digits"),
        (["symmetrize", "--n", "20000", "--q", "20000", "--r", "10000"], "C(20000, 10000) exceeds 4300 digits"),
    ],
)
def test_square_zero_work_past_its_caps_is_refused_at_once(capsys, argv, message):
    # quadratic class keys, and answers too long for the report writer,
    # are refused before the work that would build them
    start = time.monotonic()
    code, payload, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == EXIT_SCALE_GUARD and payload is None
    assert message in json.loads(err)["message"]


def test_a_3258_digit_hilbert_value_is_reported(capsys):
    code, report, _ = run(capsys, "hilbert", "--n", "15000", "--d", "3000")
    assert code == EXIT_OK and report["result"]["value"] == comb(15000, 3000)


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


def count_rankers(monkeypatch) -> list[str]:
    """A list that gets the qualified name of the function building each
    `EdgeRanker` from now on."""
    built = []
    init = hypergraph.EdgeRanker.__init__

    def counted(self, n, r):
        built.append(sys._getframe(1).f_code.co_qualname)
        init(self, n, r)

    monkeypatch.setattr(hypergraph.EdgeRanker, "__init__", counted)
    return built


def test_placing_and_counting_copies_build_no_ranker(monkeypatch):
    # colex ranks are a formula, so only listing r-sets or unmasking needs a ranker
    built = count_rankers(monkeypatch)
    dictionary.make_instance(7, builtin_spec("K3"))
    dictionary.make_instance(6, builtin_spec("C4"), builtin_spec("P3"))
    dictionary.make_instance(8, builtin_spec("K_ell_r(4,3)"))
    triangles = enumerate_forbidden_copies(builtin_spec("K3"), 6)
    assert count_copies(hypergraph.turan_construct(6, 3, 2), triangles) == 8
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["ex", "--n", "7", "--forbid", "K3"],
        ["ex", "--n", "9", "--forbid", "K_ell_r(4,3)"],
        ["gen-ex", "--n", "6", "--target", "K3", "--forbid", "K4"],
        ["gen-ex", "--n", "7", "--target", "K3", "--forbid", "K_ell_r(4,2)"],
    ],
)
def test_ex_and_gen_ex_build_at_most_one_ranker(capsys, monkeypatch, argv):
    built = count_rankers(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert len(built) <= 1


def test_codegree_star_alpha_builds_only_its_parameters_ranker(capsys, monkeypatch):
    built = count_rankers(monkeypatch)
    code, _, _ = run(capsys, "codegree-star", "--n", "7", "--ell", "4", "--r", "3", "--alpha")
    assert code == EXIT_OK
    assert built == ["StarParams.ranker"]


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


@pytest.mark.parametrize("n,ell", [(18, 8), (16, 6)])
def test_pair_instance_setup_is_priced_on_its_targets_times_copies(capsys, n, ell):
    # the search holds no list of these C(n, 3) targets, but the setup
    # guard still prices them times the C(n, ell) cliques and refuses at
    # once; unpriced, the search runs for minutes before its node cap
    start = time.monotonic()
    code, _, err = run(capsys, "codegree-star", "--n", str(n), "--ell", str(ell), "--r", "3", "--alpha")
    assert time.monotonic() - start < 1.0
    assert code == EXIT_SCALE_GUARD
    assert json.loads(err)["message"] == (
        f"{comb(n, 3)} targets x {comb(n, ell)} copies = {comb(n, 3) * comb(n, ell)} setup steps"
        " exceed 2000000"
    )


@pytest.mark.parametrize(
    "argv",
    [
        # 250 K249 copies of 30,876 pairs each, with only one target
        ("codegree-star", "--n", "250", "--ell", "249", "--r", "250", "--alpha"),
        # 700 K699 copies of 243,951 pairs each, with only one target
        ("ex", "--forbid", "K_ell_r(699,700)", "--n", "700"),
    ],
)
def test_copy_listing_refused_by_the_edges_placed(capsys, argv):
    start = time.monotonic()
    code, payload, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert "edges exceeds cap" in json.loads(err)["message"]


def test_long_single_edge_chain_answers_in_bounded_time(capsys):
    # one K200 copy and 19,900 single-pair targets, certified in 199 chain
    # links; it took about 6.5 s when each link hashed its whole prefix
    start = time.monotonic()
    code, report, _ = run(
        capsys, "codegree-star", "--n", "200", "--ell", "200", "--r", "2", "--alpha"
    )
    assert time.monotonic() - start < 3.0
    assert code == EXIT_OK
    assert report["result"]["alpha"] == 1


@pytest.mark.parametrize(
    "mode,result",
    [
        ("--alpha", {"expected": 0, "alpha": 0, "witness_support": []}),
        ("--verify-collapse", {"expected": 0, "collapse_ok": True}),
    ],
)
def test_huge_ell_answers_in_bounded_time(capsys, mode, result):
    # only the first min(ell - 1, n) parts of the balanced partition are
    # nonempty, and [5] has no ell-set: nothing of size ell is built
    start = time.monotonic()
    code, report, _ = run(capsys, "codegree-star", "--n", "5", "--ell", str(10**9), "--r", "3", mode)
    assert time.monotonic() - start < 1.0
    assert code == EXIT_OK
    assert report["result"] == result


@pytest.mark.parametrize(
    "argv",
    [
        ("ex", "--forbid", "K_ell_r(3,{r})", "--n", "5"),
        ("codegree-star", "--n", "5", "--ell", "3", "--r", "{r}", "--alpha"),
    ],
)
def test_huge_r_gives_the_answer_at_r_6(capsys, argv):
    # [5] has no r-set for r >= 6: the answer is found before anything
    # with r vertices is built
    small_code, small, _ = run(capsys, *(a.format(r=6) for a in argv))
    start = time.monotonic()
    code, report, _ = run(capsys, *(a.format(r=10**9) for a in argv))
    assert time.monotonic() - start < 1.0
    assert code == small_code == EXIT_OK
    assert (report["result"], report["witnesses"]) == (small["result"], small["witnesses"])


@pytest.mark.parametrize(
    "argv",
    [
        ("codegree-star", "--n", "900", "--ell", "900", "--r", "2", "--alpha"),
        ("ex", "--forbid", "K_ell_r(900,2)", "--n", "900"),
    ],
)
def test_single_edge_chain_memory_refused_at_once(capsys, argv):
    # one K900 copy and 404,550 single-pair targets: the masks and index
    # tables over 404,550 pair variables would take about 40M KiB
    start = time.monotonic()
    code, payload, err = run(capsys, *argv)
    assert time.monotonic() - start < 5.0
    assert code == EXIT_SCALE_GUARD
    assert payload is None
    assert "KiB" in json.loads(err)["message"]


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


def readme_command_lines() -> list[str]:
    """The lines of the `sh` block under README's "Command line" heading."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_command_lines_exit_ok(capsys):
    lines = readme_command_lines()
    assert lines and all(line.startswith("turancover ") for line in lines)
    failed = [line for line in lines if main(shlex.split(line, comments=True)[1:]) != EXIT_OK]
    capsys.readouterr()
    assert failed == []


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
    # --kill lists the reader scans, and the argvs it leaves to the full
    # parser whole
    hilbert = VALID_ARGVS["hilbert"]
    yield from (
        [*hilbert, "--kill", "1,2", "--kill", "3,4"],
        ["hilbert", "--kill", "1,2", "3,4", "--n", "4", "--d", "2"],
        [*hilbert, "--kill", "-1,2"],
        [*hilbert, "--kill", "-h"],
        [*hilbert, "--kill=1,2"],
        [*hilbert, "--kill"],
        ["hilbert", "--kill", "--n", "4", "--d", "2"],
        ["hilbert", "--n", "4", "--d", "2", "--ki", "1,2", "--kill", "3,4"],
        # argparse reads -5 as a kill token, so --n has no value
        ["hilbert", "--d", "2", "--n", "--kill", "1,2", "-5"],
        [*hilbert, "--", "--kill", "1,2"],
    )
    # values the reader converts with the flag's own type, and forms it
    # leaves to the full parser: "=", "--", repeated flags, values starting
    # with "-" or that int() rejects
    yield from (
        ["hilbert", "--n", " 4", "--d", "1_0"],
        ["verify-counterexample", "--n", "4", "--ell", "3"],
        ["hilbert", "--n=4", "--d", "2"],
        [*hilbert, "--d", "3"],
        [*hilbert, "--kill", "1,2", "--n=5"],
        [*hilbert, "--kill", "1,2", "--d", "3"],
        [*hilbert, "--kill", "1,2", "3,4", "--"],
        [*hilbert, "--"],
        [*hilbert, "-h"],
        ["hilbert", "--", "--n", "4", "--d", "2"],
        ["hilbert", "--n", "4", "--d", ""],
        ["hilbert", "--n", "4", "--d", "-"],
        ["hilbert", "--n", "4", "--d", "9" * 5000],
        ["hilbert", "--n", "4", "--kill", "1,2\0-"],
        ["ex", "--n", "4", "--forbid", "--n"],
        ["ex", "--n", "4", "--forbid", "K3", "--oracle=1"],
        ["ex", "--n", "4", "--for", "K3"],
        [*VALID_ARGVS["codegree-star"], "--alpha"],
    )


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


def test_valid_call_builds_no_subparser(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    # a valid call of each subcommand builds no parser at all
    for argv in VALID_ARGVS.values():
        args = cli.parse_args(argv)
        assert built == [], argv
        assert vars(args) == vars(build_parser().parse_args(argv)), argv
        built.clear()
    assert cli_outcome(VALID_ARGVS["hilbert"])[0] == EXIT_OK
    assert built == []
    # a leftover token goes to the full parser and its seven subparsers
    assert cli_outcome(["hilbert", "--n", "4", "--d", "2", "extra"])[0] == 2
    assert built == ["turancover", *(f"turancover {name}" for name in cli.SUBCOMMANDS)]


# tokens the edits of the reader's test draw from, besides the subcommand's
# own flags and their abbreviations: values the reader converts or
# declines, and forms it leaves to the full parser
READER_TOKENS = ["4", "-3", "x", " 5", "1_0", "", "--", "-h", "-", "--n=4", "1,2"]


@st.composite
def reader_argvs(draw):
    """A regular argv: a subcommand, then its flags in any order, each
    store_true flag or not, one value after each value flag and --kill
    absent or with zero, one or three tokens.  Then up to three edits, each
    inserting, replacing or deleting one token, so flags come repeated,
    abbreviated or missing and values come unconvertible or starting with
    "-"."""
    name = draw(st.sampled_from(list(cli.SUBCOMMANDS)))
    arguments = cli.SUBCOMMANDS[name][2]
    argv = [name]
    for flag, keywords in draw(st.permutations(arguments)):
        if keywords.get("action") == "store_true":
            argv += [flag] * draw(st.integers(0, 1))
        elif "nargs" in keywords:
            argv += draw(st.sampled_from([[], [flag], [flag, "1,2"], [flag, "1,2", "3,4", "1,3"]]))
        else:
            argv += [flag, draw(st.sampled_from(["4", " 5", "1_0"]))]
    flags = [flag for flag, _ in arguments]
    tokens = st.sampled_from(READER_TOKENS + flags + [flag[:4] for flag in flags])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            argv.insert(at, draw(tokens))
        elif at < len(argv) and edit == "replace":
            argv[at] = draw(tokens)
        elif at < len(argv):
            del argv[at]
    return argv


@settings(max_examples=1000, deadline=None)
@given(reader_argvs())
def test_reader_declines_or_gives_the_full_parsers_namespace(argv):
    got = cli._read_regular(argv)
    if got is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                full = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"the full parser rejects {argv}")
        assert vars(got) == vars(full)


REPORT_ARGVS = [
    ["verify-counterexample", "--ell", "3", "--n", "5", "--oracle"],
    ["ex", "--n", "5", "--forbid", "K3", "--oracle"],
    ["gen-ex", "--n", "5", "--target", "K3", "--forbid", "K4"],
    ["hilbert", "--n", "5", "--d", "2", "--kill", "1,2", "2,3"],
    ["symmetrize", "--n", "4", "--q", "2", "--r", "2", "--kill", "1,2", "3,4", "1,3"],
    ["codegree-star", "--n", "5", "--ell", "4", "--r", "3", "--verify-collapse", "--alpha"],
    ["selftest", "--quick"],
]


def test_report_json_is_the_deep_copy_json(capsys):
    # one report of each subcommand, printed by main as one line
    for argv in REPORT_ARGVS:
        args = build_parser().parse_args(argv)
        with contextlib.redirect_stderr(io.StringIO()):
            report, _ = args.func(args)
        assert report.to_json() == json.dumps(asdict(report)), argv[0]
        main(argv)
        printed = capsys.readouterr().out
        assert printed.count("\n") == 1 and printed.endswith("\n"), argv[0]


def test_long_report_json_is_the_deep_copy_json(capsys):
    # 3,000 echoed kill tokens, and a 761-pair terminal_kill
    tokens = [f"{a},{b}" for a, b in itertools.combinations(range(1, 80), 2)][:3000]
    colour = {v: v % 4 for v in range(1, 81)}
    within = [f"{a},{b}" for a, b in itertools.combinations(range(1, 81), 2) if colour[a] == colour[b]]
    for argv in [
        ["hilbert", "--n", "80", "--d", "2", "--kill", *tokens],
        ["symmetrize", "--n", "80", "--q", "4", "--r", "2", "--kill", *within, "1,2", "1,3"],
    ]:
        args = build_parser().parse_args(argv)
        report, _ = args.func(args)
        assert report.to_json() == json.dumps(asdict(report)), argv[0]
        main(argv)
        printed = capsys.readouterr().out
        assert printed.count("\n") == 1 and printed.endswith("\n"), argv[0]


@pytest.mark.parametrize("odd", ['1"2', "1\\2", "1\x7f2", "1\t2", "1\n2", "\x00", "1\u00e92", "\u0663,1", "\U0001f600"])
def test_report_writer_escapes_a_str_list_with_one_odd_token(odd):
    # a str that json escapes, beside plain ones, still gives one line of
    # ASCII that reads back as the report
    for tokens in (["1,2", odd, "3-4"], [odd], ["", odd]):
        report = cli.RunReport("hilbert", {"kill": tokens}, {"spec": odd, "items": [tokens, True, None]})
        text = report.to_json()
        assert "\n" not in text and text.isascii()
        assert json.loads(text) == asdict(report)


def per_token_pairs(tokens):
    """The kill pairs read one token at a time, or the text of the first
    token's error."""
    pairs = []
    for tok in tokens:
        parts = tok.replace("-", ",").split(",")
        if len(parts) != 2:
            return f"kill pair {tok!r} is not of the form a,b"
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            return str(exc)
    return pairs


# a kill pair's text: numbers 0..9, now and then with a leading zero
KILL_NUMBER = st.builds(str.__add__, st.sampled_from([""] * 9 + ["0"]), st.integers(0, 9).map(str))
KILL_PAIR = st.builds("{}{}{}".format, KILL_NUMBER, st.sampled_from(",-"), KILL_NUMBER)


def kill_outcome(build, tokens, n):
    """The quotient `build` makes on [n] from the kill tokens, or the text
    of its error."""
    try:
        return build(tokens, n)
    except (InputError, ValueError) as exc:
        return str(exc)


def per_token_quotient(tokens, n):
    pairs = per_token_pairs(tokens)
    if isinstance(pairs, str):
        raise InputError(pairs)
    return squarezero.SquareZeroQuotient(n, pairs)


@settings(max_examples=300)
@given(st.lists(KILL_PAIR, max_size=8), st.integers(min_value=-2, max_value=16))
def test_kill_pairs_convert_through_the_table_of_0_to_n(tokens, n):
    # the table of the texts of 0..n: hits, leading zeros, and numbers past it
    assert kill_outcome(cli._kill_quotient, tokens, n) == kill_outcome(per_token_quotient, tokens, n)


# tokens the bulk conversion rejects: the error is the first bad token's
REJECTED_KILLS = [["1"], ["1,2,3"], ["x,1"], ["1-"], ["1,2\n3,4"], ["1", "2,3,4"], ["1,2;3,4"], ["1\0-2"]]


def test_rejected_kill_tokens_match_the_full_parser(monkeypatch):
    argvs = [[*VALID_ARGVS["hilbert"], "--kill", "3,4", *kill] for kill in REJECTED_KILLS]
    seen = [cli_outcome(argv) for argv in argvs]
    monkeypatch.setattr(cli, "parse_args", lambda argv: build_parser().parse_args(argv))
    for argv, got in zip(argvs, seen):
        assert got == cli_outcome(argv), argv
    assert {code for code, _, _ in seen} == {EXIT_BAD_INPUT}


# kill tokens for the mask build: numbers 0..12, now and then with a leading
# zero, joined by "," or "-"; self pairs and numbers past n come up often,
# and now and then a token that is not a pair of ASCII numbers
MASK_NUMBER = st.builds(str.__add__, st.sampled_from([""] * 5 + ["0"]), st.integers(0, 12).map(str))
MASK_PAIR = st.builds("{}{}{}".format, MASK_NUMBER, st.sampled_from([","] * 4 + ["-"]), MASK_NUMBER)
ODD_TOKEN = st.sampled_from([",2", "1,", "", "1", "1,2,3", "x,1", "1;2,3", "\uff11,2", " 1,2"])
# half the lists are plain a,b tokens, which the masks are built from
KILL_LISTS = st.one_of(
    st.lists(st.builds("{},{}".format, st.integers(0, 12), st.integers(0, 12)), max_size=10),
    st.lists(st.one_of(*[MASK_PAIR] * 9, ODD_TOKEN), max_size=10),
)


@settings(max_examples=200, deadline=None)
@given(KILL_LISTS, st.integers(min_value=-2, max_value=16))
@example([], 5)
@example(["1,2", "3,4"], 4)
@example(["1,2", "2,2"], 4)
@example(["0,1"], 3)
@example(["1,2", "2,0"], 4)
@example(["1,2", "2,07"], 7)
@example(["1,16"], 16)
@example([",2"], 3)
@example(["3,4", "1,"], 4)
def test_kill_tokens_give_the_per_token_quotient(tokens, n):
    # main counts on the quotient that the checked constructor builds from
    # the pairs read one token at a time, or refuses with its message
    seen = []
    hilbert = squarezero.SquareZeroQuotient.hilbert

    def recorded(self, d):
        seen.append(self)
        return hilbert(self, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(squarezero.SquareZeroQuotient, "hilbert", recorded)
        code, out, err = cli_outcome(["hilbert", "--n", str(n), "--d", "1", "--kill", *tokens])
    try:
        want = per_token_quotient(tokens, n)
    except InputError as exc:
        assert (code, out, err) == (EXIT_BAD_INPUT, "", json.dumps({"error": "bad input", "message": str(exc)}) + "\n")
        assert seen == []
    else:
        assert code == EXIT_OK and err == ""
        assert seen == [want]


def test_far_kill_vertex_is_refused_by_main_before_its_bit_is_built():
    # 1 << 2**30 would take 128 MiB; the refusal allocates next to nothing
    argv = ["hilbert", "--n", "5", "--d", "2", "--kill", "1,1073741824"]
    tracemalloc.start()
    try:
        code, out, err = cli_outcome(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert json.loads(err) == {"error": "bad input", "message": "bad kill pair [1, 1073741824]"}
    assert peak < 2**20


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


def _cli_env() -> dict:
    """The environment of a `python -m turancover.cli` subprocess that
    imports this checkout's package."""
    root = str(Path(cli.__file__).parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_keeps_the_reports_exit_code():
    # about 200 KB of report, past any pipe buffer, so the writer is still
    # blocked when the reader takes one byte and closes the pipe
    kill = [f"{a},{a + k}" for a in range(1, 2990) for k in (1, 2, 3, 4)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "turancover.cli", "hilbert", "--n", "3000", "--d", "2", "--kill", *kill],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_OK
    assert err == ""


def test_closed_stderr_keeps_the_selftests_exit_code():
    # the reader takes the first row and closes the pipe: the rows stop, and
    # every check still runs and reports
    proc = subprocess.Popen(
        [sys.executable, "-m", "turancover.cli", "selftest", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stderr.readline().startswith(b"[PASS] ")
    proc.stderr.close()
    report = json.loads(proc.stdout.read())
    proc.stdout.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert report["result"]["ok"] is True
    assert len(report["result"]["checks"]) == len(CRITERIA)
