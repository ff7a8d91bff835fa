"""Command-line surface: JSON reports over the library's verifiers.

Exit codes: 0 = verified/consistent, 2 = claim check failed, 3 = scale
guard refused the computation, 4 = bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields
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
    CoreFamily,
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
        # a shallow field dict: json.dumps walks the nested values itself,
        # so the deep copy `dataclasses.asdict` makes is not needed
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)}, indent=2)


def _resolve_spec(token: str) -> FamilySpec:
    path = Path(token)
    if path.is_file():
        return parse_hypergraph(path.read_text())
    return builtin_spec(token)


def _parse_pairs(tokens: list[str]) -> list[tuple[int, int]]:
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
        "terminal_kill": sorted(tuple(sorted(p)) for p in terminal.kill),
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
        result["witness_support"] = [tuple(sorted(e)) for e in witness.variables()]
    if args.verify_collapse:
        ok = verify_collapse(params)
        result["collapse_ok"] = ok
        if not ok:
            code = EXIT_CLAIM_FAILED
    if args.oracle:
        report = core_family_turan_number(params, alpha=result.get("alpha"))
        result["oracle_ex"] = report["oracle_ex"]
        result["mubayi_value"] = report["value"]
    p = {"n": args.n, "ell": args.ell, "r": args.r}
    return RunReport("codegree-star", p, result), code


def cmd_selftest(args) -> tuple[RunReport, int]:
    from .selftest import run_selftest

    results, ok = run_selftest(quick=args.quick, out=sys.stderr)
    report = RunReport("selftest", {"quick": args.quick}, {"checks": results, "ok": ok})
    return report, EXIT_OK if ok else EXIT_CLAIM_FAILED


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turancover",
        description="Exact desk-scale verifiers for Turán-type theorems via monomial cover ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-counterexample", help="verify the strict-containment certificate")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--oracle", action="store_true", help="re-decide membership on the expanded polynomial (n <= 7)"
    )
    p.set_defaults(func=cmd_verify_counterexample)

    p = sub.add_parser("ex", help="Turán number and cover-ideal initial degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--forbid", required=True, help="builtin name (K3, K_ell_r(4,3), ...) or hypergraph file")
    p.add_argument("--oracle", action="store_true", help="cross-check against brute force")
    p.set_defaults(func=cmd_ex)

    p = sub.add_parser("gen-ex", help="generalized Turán number via the cover ideal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--forbid", required=True)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_gen_ex)

    p = sub.add_parser("hilbert", help="Hilbert value of a square-zero quotient")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--kill", nargs="*", default=[], help="pairs like 1,2 3,4")
    p.set_defaults(func=cmd_hilbert)

    p = sub.add_parser("symmetrize", help="run the cloning symmetrization with a trace")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kill", nargs="*", default=[])
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("codegree-star", help="star-ideal computations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--verify-collapse", action="store_true")
    p.add_argument("--alpha", action="store_true")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_codegree_star)

    p = sub.add_parser("selftest", help="run the built-in acceptance checks")
    p.add_argument("--quick", action="store_true", help="run every check on its quick grid")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
