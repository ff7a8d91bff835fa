"""Command-line surface: JSON reports over the library's verifiers.

Each call prints its report to stdout as one JSON line (pipe it through
`python -m json.tool` to indent it), or its error to stderr as one.  Exit
codes: 0 = verified/consistent, 2 = claim check failed, 3 = scale guard
refused the computation, 4 = bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from . import __version__
from .codegree_star import (
    StarParams,
    core_family_turan_number,
    star_initial_degree,
    verify_collapse,
)
from .diagonal import (
    DiagonalParams,
    counterexample_polynomial,
    in_differentiated_ideal,
    verify_counterexample,
)
from .dictionary import ex_via_cover, gen_ex_via_cover
from .errors import ClaimCheckError, InputError, ScaleGuardError, to_devnull
from .hypergraph import (
    FamilySpec,
    _bits,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    parse_hypergraph,
    turan_count,
)
from .squarezero import SquareZeroQuotient, symmetrize

EXIT_OK = 0
EXIT_CLAIM_FAILED = 2
EXIT_SCALE_GUARD = 3
EXIT_BAD_INPUT = 4


@dataclass
class RunReport:
    command: str
    params: dict
    result: dict
    witnesses: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    elapsed_ms: int = 0
    version: str = __version__

    def to_json(self) -> str:
        # no indent: with one, json.dumps runs its pure-Python encoder
        return json.dumps(vars(self))


def _resolve_spec(token: str) -> FamilySpec:
    path = Path(token)
    if path.is_file():
        return parse_hypergraph(path.read_text())
    return builtin_spec(token)


def _parse_pairs(tokens: list[str]) -> list[tuple[int, int]]:
    """Kill pairs from tokens like 1,2 or 1-2, one token at a time; raises
    on the first token that is not a pair."""
    pairs = []
    for tok in tokens:
        parts = tok.replace("-", ",").split(",")
        if len(parts) != 2:
            raise InputError(f"kill pair {tok!r} is not of the form a,b")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


class _VertexTable(dict):
    """The texts of 0..k mapped to their numbers; a text not in the table
    is read by `int`.  A table over the numbers given alone would cost one
    `str` per number, as much as the `int` calls it saves."""

    def __missing__(self, text: str) -> int:
        return int(text)


def _kill_quotient(tokens: list[str], n: int) -> SquareZeroQuotient:
    """The quotient on [n] killing the pairs of `tokens`, built by the
    checked constructor, so every refusal is the library's own.  A regular
    list (ASCII a,b tokens: with the digits taken out, the joined text reads
    ",;,;...,", which one C-level `translate` tests) has its numbers read
    from a `_VertexTable` of 0..min(n, number of parts); any other goes
    through `_parse_pairs`.  Both read every number before the first pair
    is checked, as the per-token reading does."""
    text = ";".join(tokens)
    if not text.isascii() or text.encode().translate(None, b"0123456789") != b",;" * (len(tokens) - 1) + b",":
        return SquareZeroQuotient(n, _parse_pairs(tokens))
    parts = text.replace(";", ",").split(",")
    table = _VertexTable({str(i): i for i in range(min(n, len(parts)) + 1)})
    values = iter(list(map(table.__getitem__, parts)))
    return SquareZeroQuotient(n, zip(values, values))


# ---------------------------------------------------------------------------
# subcommand implementations (each returns (report, exit_code))


def cmd_verify_counterexample(args) -> tuple[RunReport, int]:
    params = DiagonalParams(args.n, args.ell)
    result = verify_counterexample(params)
    code = EXIT_OK if result["verdict"] == "counterexample confirmed" else EXIT_CLAIM_FAILED
    oracle = {}
    if args.oracle:
        member = in_differentiated_ideal(counterexample_polynomial(params), params)
        oracle = {"in_DI": member, "match": member == result["in_DI"]}
        if not oracle["match"]:
            code = EXIT_CLAIM_FAILED
    p = {"n": args.n, "ell": args.ell}
    return RunReport("verify-counterexample", p, result, {}, oracle), code


def _oracle_entry(value: int, oracle_value: int) -> tuple[dict, int]:
    """The oracle entry of an `ex` or `gen-ex` report, and its exit code."""
    match = oracle_value == value
    return {"oracle_value": oracle_value, "match": match}, EXIT_OK if match else EXIT_CLAIM_FAILED


def cmd_ex(args) -> tuple[RunReport, int]:
    spec = _resolve_spec(args.forbid)
    value, witness = ex_via_cover(args.n, spec)
    result = {"value": value, "alpha": comb(args.n, witness.r) - value}
    witnesses = {"witness_edges": witness.edge_list()}
    oracle, code = {}, EXIT_OK
    if args.oracle:
        oracle, code = _oracle_entry(value, brute_force_ex(args.n, spec)[0])
    return RunReport("ex", {"n": args.n, "forbid": args.forbid}, result, witnesses, oracle), code


def cmd_gen_ex(args) -> tuple[RunReport, int]:
    target = _resolve_spec(args.target)
    forbid = _resolve_spec(args.forbid)
    value, witness = gen_ex_via_cover(args.n, target, forbid)
    witnesses = {"witness_edges": witness.edge_list()}
    oracle, code = {}, EXIT_OK
    if args.oracle:
        oracle, code = _oracle_entry(value, brute_force_gen_ex(args.n, target, forbid)[0])
    params = {"n": args.n, "target": args.target, "forbid": args.forbid}
    return RunReport("gen-ex", params, {"value": value}, witnesses, oracle), code


def cmd_hilbert(args) -> tuple[RunReport, int]:
    A = _kill_quotient(args.kill, args.n)
    result = {"value": A.hilbert(args.d)}
    params = {"n": args.n, "d": args.d, "kill": args.kill}
    return RunReport("hilbert", params, result), EXIT_OK


def cmd_symmetrize(args) -> tuple[RunReport, int]:
    A = _kill_quotient(args.kill, args.n)
    terminal, trace, sizes = symmetrize(A, args.q, args.r)
    if trace:
        initial, final = trace[0]["hilbert_before"], trace[-1]["hilbert_after"]
    else:
        initial = final = A.hilbert(args.r)
    result = {
        "steps": trace,
        "terminal_kill": terminal._pairs(),
        "terminal_class_sizes": sizes,
        "hilbert_initial": initial,
        "hilbert_terminal": final,
    }
    params = {"n": args.n, "q": args.q, "r": args.r, "kill": args.kill}
    code = EXIT_OK if result["hilbert_terminal"] >= result["hilbert_initial"] else EXIT_CLAIM_FAILED
    return RunReport("symmetrize", params, result), code


def cmd_codegree_star(args) -> tuple[RunReport, int]:
    params = StarParams(args.n, args.ell, args.r)
    result: dict = {"expected": comb(args.n, args.r) - turan_count(args.n, args.ell - 1, args.r)}
    code = EXIT_OK
    if args.alpha or not args.verify_collapse:
        alpha, witness = star_initial_degree(params)
        result["alpha"] = alpha
        result["witness_support"] = [params.ranker.sets[i] for i in _bits(witness)]
    if args.verify_collapse:
        result["collapse_ok"] = verify_collapse(params)
        code = EXIT_OK if result["collapse_ok"] else EXIT_CLAIM_FAILED
    if args.oracle:
        result["oracle_ex"] = result["mubayi_value"] = core_family_turan_number(params)
    p = {"n": args.n, "ell": args.ell, "r": args.r}
    return RunReport("codegree-star", p, result), code


def cmd_selftest(args) -> tuple[RunReport, int]:
    from .selftest import run_selftest

    results, ok = run_selftest(quick=args.quick, out=sys.stderr)
    report = RunReport("selftest", {"quick": args.quick}, {"checks": results, "ok": ok})
    return report, EXIT_OK if ok else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------


# name -> (handler, help, arguments as (flag, add_argument keywords)), in the
# order the full parser lists them
REQUIRED_INT = {"type": int, "required": True}
FLAG = {"action": "store_true", "default": False}  # argparse's default, spelled out for _read_regular
SUBCOMMANDS = {
    "verify-counterexample": (
        cmd_verify_counterexample,
        "verify the strict-containment certificate",
        [
            ("--ell", REQUIRED_INT),
            ("--n", REQUIRED_INT),
            ("--oracle", {**FLAG, "help": "re-decide membership on the expanded polynomial (n <= 7)"}),
        ],
    ),
    "ex": (
        cmd_ex,
        "Turán number and cover-ideal initial degree",
        [
            ("--n", REQUIRED_INT),
            ("--forbid", {"required": True, "help": "builtin name (K3, K_ell_r(4,3), ...) or hypergraph file"}),
            ("--oracle", {**FLAG, "help": "cross-check against brute force"}),
        ],
    ),
    "gen-ex": (
        cmd_gen_ex,
        "generalized Turán number via the cover ideal",
        [
            ("--n", REQUIRED_INT),
            ("--target", {"required": True}),
            ("--forbid", {"required": True}),
            ("--oracle", FLAG),
        ],
    ),
    "hilbert": (
        cmd_hilbert,
        "Hilbert value of a square-zero quotient",
        [
            ("--n", REQUIRED_INT),
            ("--d", REQUIRED_INT),
            ("--kill", {"nargs": "*", "default": [], "help": "pairs like 1,2 3,4"}),
        ],
    ),
    "symmetrize": (
        cmd_symmetrize,
        "run the cloning symmetrization with a trace",
        [
            ("--n", REQUIRED_INT),
            ("--q", REQUIRED_INT),
            ("--r", REQUIRED_INT),
            ("--kill", {"nargs": "*", "default": []}),
        ],
    ),
    "codegree-star": (
        cmd_codegree_star,
        "star-ideal computations",
        [
            ("--n", REQUIRED_INT),
            ("--ell", REQUIRED_INT),
            ("--r", REQUIRED_INT),
            ("--verify-collapse", FLAG),
            ("--alpha", FLAG),
            ("--oracle", FLAG),
        ],
    ),
    "selftest": (
        cmd_selftest,
        "run the built-in acceptance checks",
        [("--quick", {**FLAG, "help": "run every check on its quick grid"})],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, with a subparser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="turancover",
        description="Exact desk-scale verifiers for Turán-type theorems via monomial cover ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(func=func, command=name)
    return parser


def _read_regular(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace the full parser gives `argv` when `argv` is regular (see
    `parse_args`), read straight off its subcommand's `SUBCOMMANDS` entry
    with no parser built; None otherwise.  A --kill list is found with one
    C-level scan, not a Python loop over its tokens."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, arguments = SUBCOMMANDS[argv[0]]
    specs = dict(arguments)
    values = {}
    i, stop = 1, len(argv)
    while i < stop:
        flag = argv[i]
        spec = specs.get(flag)
        if spec is None or flag in values:
            return None
        if spec.get("action") == "store_true":
            values[flag] = True
            i += 1
        elif "nargs" in spec:
            joined = "\0".join(argv[i:])  # "--kill\0tok\0tok..."
            if joined.count("\0") != stop - i - 1:  # a token holds the separator
                return None
            found = joined.find("\0-")
            end = i + 1 + joined.count("\0", 0, found) if found >= 0 else stop
            values[flag] = argv[i + 1 : end]
            i = end
        elif i + 1 < stop and argv[i + 1][:1] != "-":
            try:
                values[flag] = spec.get("type", str)(argv[i + 1])
            except ValueError:
                return None
            i += 2
        else:
            return None
    args = argparse.Namespace(func=func, command=argv[0])
    for flag, spec in arguments:
        if spec.get("required") and flag not in values:
            return None
        setattr(args, flag[2:].replace("-", "_"), values.get(flag, spec.get("default")))
    return args


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The Namespace of `argv` (default: the command line).

    A regular argv is read straight off the `SUBCOMMANDS` table
    (`_read_regular`): a known subcommand, then flags of its own, each
    spelled in full and given once, every required flag among them, each
    one of
      - a store_true flag, alone;
      - `--flag VALUE`, with a VALUE not starting with "-" that the flag's
        `type` converts;
      - `--kill`, whose list ends at the next token starting with "-".
    Every other argv goes unchanged to the full parser (`build_parser`):
    help, "--", "=" forms, abbreviations, repeated flags, values starting
    with "-" or that the flag's type rejects, missing or leftover tokens,
    and an empty or unknown subcommand.  So every usage text, error text
    and exit code is argparse's own."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_regular(argv)
    return args if args is not None else build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    try:
        report, code = args.func(args)
    except ScaleGuardError as exc:
        print(json.dumps({"error": "scale guard", "message": str(exc)}), file=sys.stderr)
        return EXIT_SCALE_GUARD
    except (InputError, ValueError) as exc:
        print(json.dumps({"error": "bad input", "message": str(exc)}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except ClaimCheckError as exc:
        print(json.dumps({"error": "claim check failed", "message": str(exc)}), file=sys.stderr)
        return EXIT_CLAIM_FAILED
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    try:
        print(report.to_json(), flush=True)
    except BrokenPipeError:  # keep the verdict
        to_devnull(sys.stdout)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
