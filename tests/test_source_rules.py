"""Rules on the library's source that no single behaviour test can see."""

import ast
from pathlib import Path

import turancover

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
    """The brute-force oracles in `hypergraph` check the cover-ideal search
    and the polynomial core, so they must not call into them."""
    path = SOURCE / "hypergraph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_imported_modules(tree)) & CERTIFIED_PATH == set()


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
    """`hypergraph.EdgeRanker` is the one map between r-sets and bit
    positions; no other module may build its own colex order."""
    found = [
        f"{path.relative_to(SOURCE)}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        if path.name != "hypergraph.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _builds_colex_rank(node)
    ]
    assert found == []


def _definitions(names) -> list[tuple[str, str]]:
    """(name, file) of every library function definition of one of `names`."""
    return sorted(
        (node.name, path.name)
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in names
    )


def test_antichain_and_star_helpers_live_only_in_hypergraph():
    """`minimal_supports`, `alexander_dual`, `pair_stars` and the bitset
    clique search `_has_clique` are each defined once, in `hypergraph`;
    other modules import them."""
    shared = {"minimal_supports", "alexander_dual", "pair_stars", "_has_clique"}
    assert _definitions(shared) == sorted((name, "hypergraph.py") for name in shared)


def test_pair_reduction_lives_only_in_dictionary():
    """`core_pair_alpha`, the one pair reduction of the core-pair family, is
    defined once, in `dictionary`; `ex` and the star ideal both call it."""
    assert _definitions({"core_pair_alpha"}) == [("core_pair_alpha", "dictionary.py")]


def _callee(call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_only_alpha_target_enters_the_search():
    """`dictionary.alpha_target` is the one search entry of the library:
    besides it, only `monomial`'s own wrappers call `min_targets_met` or
    `min_hitting_set`."""
    search = {"min_targets_met", "min_hitting_set"}
    callers = {
        (path.name, getattr(top, "name", "<module>"))
        for path in sorted(SOURCE.rglob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _callee(node) in search
    }
    assert callers == {
        ("dictionary.py", "alpha_target"),
        ("monomial.py", "min_hitting_set"),
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
