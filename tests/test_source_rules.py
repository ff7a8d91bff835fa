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


def test_oracles_import_nothing_from_the_certified_path():
    """The brute-force oracles in `hypergraph` check the cover-ideal search
    and the polynomial core, so they must not call into them."""
    path = SOURCE / "hypergraph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_imported_modules(tree)) & CERTIFIED_PATH == set()
