"""Command-line surface: JSON reports over the library's verifiers.

Exit codes: 0 = verified/consistent, 2 = claim check failed, 3 = scale
guard refused the computation, 4 = bad input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field, fields
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii
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
from .errors import ClaimCheckError, InputError, ScaleGuardError
from .hypergraph import (
    FamilySpec,
    brute_force_ex,
    brute_force_gen_ex,
    builtin_spec,
    parse_hypergraph,
    turan_count,
)
from .squarezero import SquareZeroQuotient, symmetrize, terminal_class_sizes

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
        # a shallow field dict: the writer walks the nested values itself,
        # so the deep copy `dataclasses.asdict` makes is not needed
        return _indented_json({f.name: getattr(self, f.name) for f in fields(self)}, "\n")


def _indented_json(obj, newline: str) -> str:
    """`json.dumps(obj, indent=2)` for obj written after `newline`, a line
    break and obj's indentation.  A flat list of str, of int or of int
    pairs is one join (json's own pure-Python encoder writes an indented
    dump item by item); a scalar other than str or int, and a dict with a
    key that is not a str, is json.dumps's.  Dumped text holds a line
    break only between items, so re-indenting it is a plain replace."""
    inner = newline + "  "
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        items = (
            f"{encode_basestring_ascii(key)}: {_indented_json(value, inner)}"
            for key, value in obj.items()
        )
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        if kinds == {str}:
            items = map(encode_basestring_ascii, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        elif (
            kinds <= {list, tuple}
            and set(map(len, obj)) == {2}
            and set(map(type, chain.from_iterable(obj))) == {int}
        ):
            pair = inner + "  "
            items = starmap(f"[{pair}{{}},{pair}{{}}{inner}]".format, obj)
        else:
            items = (_indented_json(item, inner) for item in obj)
    elif isinstance(obj, str):
        return encode_basestring_ascii(obj)
    elif isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    else:
        return json.dumps(obj, indent=2).replace("\n", newline)
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return opening + inner + ("," + inner).join(items) + newline + closing


def _resolve_spec(token: str) -> FamilySpec:
    path = Path(token)
    if path.is_file():
        return parse_hypergraph(path.read_text())
    return builtin_spec(token)


# one or more a,b pairs of ASCII integers joined by ";", which no token
# that parses as a pair can hold
_PAIR_TEXT = re.compile(r"[0-9]+,[0-9]+(?:;[0-9]+,[0-9]+)*")


def _parse_pairs(tokens: list[str]) -> list[tuple[int, int]]:
    """Kill pairs from tokens like 1,2 or 1-2.  Plain ASCII pairs are
    converted in bulk; anything else takes the per-token loop, which
    raises on the first token that is not a pair."""
    text = ";".join(tokens).replace("-", ",")
    if text.count(";") == len(tokens) - 1 and _PAIR_TEXT.fullmatch(text):
        values = map(int, text.replace(";", ",").split(","))
        return list(zip(values, values))
    pairs = []
    for tok in tokens:
        parts = tok.replace("-", ",").split(",")
        if len(parts) != 2:
            raise InputError(f"kill pair {tok!r} is not of the form a,b")
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


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


def cmd_ex(args) -> tuple[RunReport, int]:
    spec = _resolve_spec(args.forbid)
    value, witness = ex_via_cover(args.n, spec)
    result = {"value": value, "alpha": comb(args.n, witness.r) - value}
    witnesses = {"witness_edges": witness.edge_list()}
    oracle = {}
    code = EXIT_OK
    if args.oracle:
        oracle_value, _ = brute_force_ex(args.n, spec)
        oracle = {"oracle_value": oracle_value, "match": oracle_value == value}
        if not oracle["match"]:
            code = EXIT_CLAIM_FAILED
    return (
        RunReport("ex", {"n": args.n, "forbid": args.forbid}, result, witnesses, oracle),
        code,
    )


def cmd_gen_ex(args) -> tuple[RunReport, int]:
    target = _resolve_spec(args.target)
    forbid = _resolve_spec(args.forbid)
    value = gen_ex_via_cover(args.n, target, forbid)
    result = {"value": value}
    oracle = {}
    code = EXIT_OK
    if args.oracle:
        oracle_value, _ = brute_force_gen_ex(args.n, target, forbid)
        oracle = {"oracle_value": oracle_value, "match": oracle_value == value}
        if not oracle["match"]:
            code = EXIT_CLAIM_FAILED
    params = {"n": args.n, "target": args.target, "forbid": args.forbid}
    return RunReport("gen-ex", params, result, {}, oracle), code


def cmd_hilbert(args) -> tuple[RunReport, int]:
    A = SquareZeroQuotient(args.n, _parse_pairs(args.kill))
    result = {"value": A.hilbert(args.d)}
    params = {"n": args.n, "d": args.d, "kill": args.kill}
    return RunReport("hilbert", params, result), EXIT_OK


def cmd_symmetrize(args) -> tuple[RunReport, int]:
    A = SquareZeroQuotient(args.n, _parse_pairs(args.kill))
    terminal, trace = symmetrize(A, args.q, args.r)
    sizes = terminal_class_sizes(terminal)
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
    result: dict = {
        "expected": comb(args.n, args.r) - turan_count(args.n, args.ell - 1, args.r)
    }
    code = EXIT_OK
    if args.alpha or not args.verify_collapse:
        alpha, witness = star_initial_degree(params)
        result["alpha"] = alpha
        result["witness_support"] = [tuple(sorted(e)) for e in params.ranker().unmask(witness)]
    if args.verify_collapse:
        ok = verify_collapse(params)
        result["collapse_ok"] = ok
        if not ok:
            code = EXIT_CLAIM_FAILED
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
FLAG = {"action": "store_true"}
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


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only the one named `only`.

    A one-subcommand parser parses that subcommand's arguments exactly as
    the full parser does; only its top-level usage text differs, so `main`
    leaves every top-level message to the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="turancover",
        description="Exact desk-scale verifiers for Turán-type theorems via monomial cover ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, arguments) in SUBCOMMANDS.items():
        if only is None or name == only:
            p = sub.add_parser(name, help=help_text)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
            p.set_defaults(func=func)
    return parser


def _split_kill(argv: list[str]) -> tuple[list[str], list[str] | None]:
    """(argv without its --kill list, that list) for a hilbert or symmetrize
    call with one --kill whose list ends where argparse ends it: at the end
    or at a flag of the subcommand.  Otherwise (argv, None): a repeated
    --kill, an abbreviation, help, "--", a value starting with "-" or any
    other unusual token is left to argparse.  The list is found with one
    C-level scan, not a Python loop over its tokens."""
    flags = {flag for flag, _ in SUBCOMMANDS[argv[0]][2]}
    if "--kill" not in flags or argv.count("--kill") != 1:
        return argv, None
    start = argv.index("--kill") + 1
    joined = "\0".join(argv[start - 1 :])  # "--kill\0tok\0tok..."
    if joined.count("\0") != len(argv) - start:  # a token holds the separator
        return argv, None
    found = joined.find("\0-")
    end = start + joined.count("\0", 0, found) if found >= 0 else len(argv)
    rest = argv[: start - 1] + argv[end:]
    if any(tok[:1] == "-" and tok not in flags for tok in rest):
        return argv, None
    return rest, argv[start:end]


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse with the parser of the named subcommand alone, a hilbert or
    symmetrize --kill list split off first (`_split_kill`).  Help, an empty
    or unknown subcommand and leftover arguments go to the full parser, so
    every usage and error text is the full parser's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        rest, kill = _split_kill(argv)
        args, extras = build_parser(argv[0]).parse_known_args(rest)
        if not extras:
            if kill is not None:
                args.kill = kill
            return args
    return build_parser().parse_args(argv)


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
    print(report.to_json())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
