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
