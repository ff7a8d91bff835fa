"""Rules on the library's source that no single behaviour test can see."""

import ast
import dataclasses
import importlib.util
import inspect
import sys
import textwrap
from pathlib import Path

import turancover
from turancover.hypergraph import RGraph
from turancover.monomial import setup_search
from turancover.polycore import Polynomial
from turancover.squarezero import SquareZeroQuotient

SOURCE = Path(turancover.__file__).parent


def test_no_assert_statements_in_the_library():
    """`python -O` strips `assert`, so a claim check must raise instead."""
    modules = sorted(SOURCE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


CERTIFIED_PATH = {"monomial", "dictionary", "codegree_star", "squarezero", "diagonal"}


def _imported_modules(tree):
    """Last dotted component of every module an import in `tree` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module.rsplit(".", 1)[-1]
            if node.module is None or node.module == "turancover":
                yield from (alias.name for alias in node.names)


def test_arithmetic_is_integer_only():
    """Exact means integer: no library module imports a rational or decimal type."""
    found = [
        f"{path.relative_to(SOURCE)}: {name}"
        for path in sorted(SOURCE.rglob("*.py"))
        for name in _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if name in {"fractions", "decimal"}
    ]
    assert found == []


def test_oracles_import_nothing_from_the_certified_path():
    """The brute-force oracles check the cover-ideal search and the
    polynomial core, so they must not call into them: every `brute_force_*`
    function is defined in `hypergraph`, which imports nothing from them."""
    path = SOURCE / "hypergraph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_imported_modules(tree)) & CERTIFIED_PATH == set()
    oracles = {
        (node.name, path.name)
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("brute_force_")
    }
    assert oracles and {file for _, file in oracles} == {"hypergraph.py"}, sorted(oracles)


def _builds_colex_rank(node) -> bool:
    """A name `rsets_colex`, or a sort key reversing its argument (t[::-1]),
    the way colex order of r-sets is built."""
    if isinstance(node, ast.Name):
        return node.id == "rsets_colex"
    if isinstance(node, ast.Attribute):
        return node.attr == "rsets_colex"
    if isinstance(node, ast.alias):
        return node.name == "rsets_colex"
    if isinstance(node, ast.keyword) and node.arg == "key":
        return any(
            isinstance(sub, ast.Slice)
            and isinstance(sub.step, ast.UnaryOp)
            and isinstance(sub.step.op, ast.USub)
            for sub in ast.walk(node.value)
        )
    return False


def test_only_hypergraph_ranks_edges():
    """The colex rank formula of `hypergraph` (`colex_rank`, with
    `edge_mask` over it and `rsets_colex` listing its order) is the one map
    between r-sets and bit positions; no other module may build its own
    colex order."""
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "hypergraph.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _builds_colex_rank(node)
    ]
    assert found == []


def _class_members(cls):
    """Names that the body of class `cls` defines or assigns."""
    for part in cls.body:
        if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield part.name
        for target in getattr(part, "targets", [getattr(part, "target", None)]):
            if isinstance(target, ast.Name):
                yield target.id


def test_value_types_are_frozen_dataclasses():
    """Immutability, equality and hashing come from
    `@dataclass(frozen=True)` alone: no library class writes its own
    `__slots__`, `__setattr__`, `__delattr__`, `__eq__` or `__hash__`, and
    the paper's three objects are slotted frozen dataclasses."""
    by_hand = {"__slots__", "__setattr__", "__delattr__", "__eq__", "__hash__"}
    found = [
        f"{path.relative_to(SOURCE)}:{cls.name}.{name}"
        for path in sorted(SOURCE.rglob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
        for name in _class_members(cls)
        if name in by_hand
    ]
    assert found == []
    for value_type in (RGraph, Polynomial, SquareZeroQuotient):
        assert value_type.__dataclass_params__.frozen and "__slots__" in vars(value_type)


def _definitions(names) -> list[tuple[str, str]]:
    """(name, file) of every library function definition of one of `names`."""
    return sorted(
        (node.name, path.name)
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    )


def test_antichain_and_star_helpers_live_only_in_hypergraph():
    """`minimal_supports`, `pair_stars`, the bitset clique search
    `_has_clique`, the within-part pairs of the balanced partition
    `partition_pairs`, the one shape of a complete pattern
    `complete_shape`, and the colex rank of an r-set `colex_rank` with the
    mask of an edge set `edge_mask` are each defined once, in `hypergraph`;
    other modules import them."""
    shared = {
        "minimal_supports", "pair_stars", "_has_clique", "partition_pairs", "complete_shape",
        "colex_rank", "edge_mask",
    }
    assert _definitions(shared) == sorted((name, "hypergraph.py") for name in shared)


def test_vertex_quotient_lives_only_in_dictionary():
    """`vertex_quotient`, the square-zero quotient on [n] of a support, is
    defined once, in `dictionary`, for every uniformity; the star ideal's
    membership test imports it."""
    assert _definitions({"vertex_quotient"}) == [("vertex_quotient", "dictionary.py")]


def _callee(call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(names) -> set[tuple[str, str, str]]:
    """(file, top-level definition, callee) of every library call of one of
    `names`."""
    return {
        (path.name, getattr(top, "name", "<module>"), _callee(node))
        for path in sorted(SOURCE.rglob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _callee(node) in names
    }


def _top_parts(path):
    """(name, node) of each top-level definition of the module at `path`,
    a class standing for each part of its body as "Class.part"."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for part in top.body if isinstance(top, ast.ClassDef) else [top]:
            where = getattr(top, "name", "<module>")
            if part is not top:
                where += f".{getattr(part, 'name', '<body>')}"
            yield where, part


def test_only_alpha_target_enters_the_search():
    """`dictionary.alpha_target` is the one search entry of the library, and
    it sets the search up once with `setup_search`: `ex` is the generalized
    search with a one-edge target.  No library function calls
    `min_hitting_set`, a monomial-level entry kept for callers outside the
    library; it is the only other caller of `setup_search`."""
    assert _calls({"setup_search", "min_hitting_set"}) == {
        ("dictionary.py", "alpha_target", "setup_search"),
        ("monomial.py", "min_hitting_set", "setup_search"),
    }


def test_only_the_instance_counts_its_targets():
    """The number of targets on [m] is worked out once, by
    `CoverInstance.count`, the library's one caller of `bisect_left`.  The
    search takes one targets argument, with no ranker beside it, and each
    search takes its count of targets below the cut from the caller, with
    no default to fall back on."""
    found = {
        (path.name, where)
        for path in sorted(SOURCE.rglob("*.py"))
        for where, part in _top_parts(path)
        if any(isinstance(node, ast.Call) and _callee(node) == "bisect_left" for node in ast.walk(part))
    }
    assert found == {("dictionary.py", "CoverInstance.count")}
    assert list(inspect.signature(setup_search).parameters) == ["copies", "targets", "nvars", "r"]
    for copies in ([], [1]):  # no copies: the search that answers at once
        ntargets = inspect.signature(setup_search(copies, None, 1)).parameters["ntargets"]
        assert ntargets.default is inspect.Parameter.empty


def test_only_build_parser_builds_an_argument_parser():
    """The CLI reads a regular argv with no parser (`cli._read_regular`) and
    hands every other argv to the one full parser, which `cli.build_parser`
    builds afresh on each call: no per-subcommand parser, and none kept
    across calls, stands beside the reader."""
    assert _calls({"ArgumentParser"}) == {("cli.py", "build_parser", "ArgumentParser")}
    assert _calls({"build_parser"}) == {("cli.py", "parse_args", "build_parser")}
    path = SOURCE / "cli.py"
    (build_parser,) = (
        node for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
    )
    assert build_parser.decorator_list == []  # no cache


COPY_LISTINGS = {"place_copies", "enumerate_forbidden_copies"}


def _unguarded_listings(stmts, guarded=False):
    """Line of every copy-listing call in the statements that no earlier
    statement calling `guard_search_setup`, in its own block or an
    enclosing one, precedes."""
    for stmt in stmts:
        blocks = [b for b in (getattr(stmt, f, None) for f in ("body", "orelse")) if isinstance(b, list)]
        inner = {id(node) for block in blocks for s in block for node in ast.walk(s)}
        for node in ast.walk(stmt):
            if id(node) not in inner and isinstance(node, ast.Call) and _callee(node) in COPY_LISTINGS:
                if not guarded:
                    yield node.lineno
        for block in blocks:
            yield from _unguarded_listings(block, guarded)
        call = getattr(stmt, "value", None)
        guarded |= isinstance(call, ast.Call) and _callee(call) == "guard_search_setup"


def test_one_setup_guard_per_search_entry():
    """`guard_search_setup` prices a search's setup once per entry: in
    `setup_search`, which every search goes through, and in
    `dictionary.make_instance`, before any copy is listed, since there the
    copy counts are exact beforehand.  No other function calls it, so no
    entry guards the same setup twice."""
    assert _calls({"guard_search_setup"}) == {
        ("dictionary.py", "make_instance", "guard_search_setup"),
        ("monomial.py", "setup_search", "guard_search_setup"),
    }
    path = SOURCE / "dictionary.py"
    (make_instance,) = (
        node for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.FunctionDef) and node.name == "make_instance"
    )
    listings = [
        node for node in ast.walk(make_instance)
        if isinstance(node, ast.Call) and _callee(node) in COPY_LISTINGS
    ]
    assert listings and list(_unguarded_listings(make_instance.body)) == []


def test_pair_reduction_lives_only_in_dictionary():
    """`make_instance`, the one reduction of a Turán problem to a cover
    instance, the core-pair family's pair instance included, is defined
    once, in `dictionary`, and is the library's one builder of a
    `CoverInstance`.  No module but `hypergraph` and `dictionary` places
    copies, so no second pair instance is listed elsewhere; `ex_via_cover`
    and the star ideal reach the pair instance through `make_instance`."""
    assert _definitions({"make_instance"}) == [("make_instance", "dictionary.py")]
    assert _calls({"place_copies", "CoverInstance"}) == {
        ("dictionary.py", "make_instance", "place_copies"),
        ("dictionary.py", "make_instance", "CoverInstance"),
        ("hypergraph.py", "enumerate_forbidden_copies", "place_copies"),
    }


TESTS = Path(__file__).parent


def _unused_imports(tree) -> list[str]:
    """Names an import binds that the module never reads.  A dotted
    `import a.b` binds `a`; `__future__` imports bind nothing; a string
    listed in `__all__` counts as a read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    """No library or test module imports a name it never uses."""
    found = [
        f"{path.name}: {name}"
        for path in sorted(SOURCE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_no_interpreter_hooks_measure_work():
    """Work is read from the counters the kernels return (the search's
    nodes, the Hilbert count's steps), not by hooking the interpreter: no
    library or test module calls `sys.setprofile` or `sys.settrace`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py")) + sorted(TESTS.rglob("*.py"))
        # only a file that names a hook is parsed
        if "setprofile" in (text := path.read_text()) or "settrace" in text
        for node in ast.walk(ast.parse(text, filename=str(path)))
        if isinstance(node, ast.Call) and _callee(node) in {"setprofile", "settrace"}
    ]
    assert found == []


PERFBENCH = TESTS.parent / "perfbench"


def test_every_traced_name_is_defined_on_its_owner(monkeypatch):
    """The benchmark's tracer (`perfbench/tracing.py`) wraps each `(owner,
    attr)` of its `TRACED` table by name, on the module or class that holds
    it, so each must stay in its owner's namespace: `minimal_supports`,
    `min_hitting_set` and `vandermonde` are kept for it alone.  The table
    is read from the tracer's own file, with `perfbench/` on the path for
    this test only."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    fresh = "workloads" not in sys.modules
    spec = importlib.util.spec_from_file_location("traced_table", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(tracing)
    finally:
        if fresh:
            sys.modules.pop("workloads", None)
    missing = []
    for pairs in tracing.TRACED.values():
        for owner, attr in pairs:
            module, _, cls = owner.partition(".")
            obj = importlib.import_module(f"turancover.{module}")
            if attr not in vars(getattr(obj, cls) if cls else obj):
                missing.append(f"{owner}.{attr}")
    assert tracing.TRACED and missing == []


def test_the_hilbert_step_cap_is_read_only_by_the_count():
    """Every step of a Hilbert count is charged inside the one budgeted
    loop: `HILBERT_CAP_STEPS` is read only in `_count`,
    and no function of `squarezero` calls itself, so no leaf is counted by
    a recursion that the loop does not see."""
    path = SOURCE / "squarezero.py"
    readers = {
        where
        for where, part in _top_parts(path)
        if any(
            isinstance(node, ast.Name) and node.id == "HILBERT_CAP_STEPS" and isinstance(node.ctx, ast.Load)
            for node in ast.walk(part)
        )
    }
    assert readers == {"_count"}
    recursive = [
        func.name
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.Call) and _callee(node) == func.name for node in ast.walk(func))
    ]
    assert recursive == []


def test_kill_pairs_are_checked_only_by_the_quotient_constructor():
    """`SquareZeroQuotient.__init__` is the one check of kill pairs and of
    the quotient cap: the unchecked `_from_adj` is called only by `clone`
    and `symmetrize`, whose masks come from a checked quotient's class
    keys, so every quotient built from kill pairs, the CLI's included,
    goes through the constructor.  A quotient declares the fields `n` and
    `_adj` alone, so it keeps no cache beside its masks."""
    found = {
        (path.name, where, callee)
        for path in sorted(SOURCE.rglob("*.py"))
        for where, part in _top_parts(path)
        for node in ast.walk(part)
        if isinstance(node, ast.Call) and (callee := _callee(node)) in {"_from_adj", "check_quotient_size"}
    }
    assert found == {
        ("squarezero.py", "SquareZeroQuotient.__init__", "check_quotient_size"),
        ("squarezero.py", "SquareZeroQuotient.clone", "_from_adj"),
        ("squarezero.py", "symmetrize", "_from_adj"),
    }
    assert [field.name for field in dataclasses.fields(SquareZeroQuotient)] == ["n", "_adj"]
    assert SquareZeroQuotient.__slots__ == ("n", "_adj")


MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault", "add", "discard",
    "sort", "reverse", "__setitem__", "__delitem__",
}


def _root_name(node) -> str | None:
    """The name an item or attribute expression such as `a[i].b` starts from."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _closure_writes(source: str) -> list[str]:
    """What the steps nested in the one function of `source` write outside
    themselves: each `nonlocal` or `global` statement, and each item or
    attribute store or delete, or mutating method call, on a name the step
    does not bind itself."""
    (outer,) = ast.parse(textwrap.dedent(source)).body
    found = []
    for step in ast.walk(outer):
        if step is outer or not isinstance(step, (ast.FunctionDef, ast.Lambda)):
            continue
        args = step.args
        own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        own |= {node.id for node in ast.walk(step) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        for node in ast.walk(step):
            if isinstance(node, (ast.Nonlocal, ast.Global)):
                found.append(f"{type(node).__name__.lower()} {', '.join(node.names)}")
            targets = (
                node.targets if isinstance(node, (ast.Assign, ast.Delete))
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)) and _root_name(target) not in own:
                    found.append(f"writes into {_root_name(target)}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and _root_name(node.func.value) not in own
            ):
                found.append(f"{_root_name(node.func.value)}.{node.func.attr}")
    return found


UNDO_STEP = """
    def step(ranker, ell):
        codeg, log, depth = [0] * 9, [], 0

        def add(idx):
            nonlocal depth
            codeg[idx] += 1
            log.append(idx)
            local = []
            local.append(idx)
            return True

        return add
"""


def test_the_core_pair_step_keeps_no_undo_state():
    """The core-pair freeness step that `_shadow_step` returns is pure: it
    holds no `nonlocal` and mutates no list of its closure, so leaving an
    r-set out of the oracles' walks undoes nothing and no undo bookkeeping
    comes back unnoticed.  The rule itself flags a step with such state."""
    from turancover import hypergraph

    assert _closure_writes(UNDO_STEP) == ["nonlocal depth", "writes into codeg", "log.append"]
    assert _closure_writes(inspect.getsource(hypergraph._shadow_step)) == []
