"""Checks on the package source itself."""

import ast
from pathlib import Path

import diffkern

PACKAGE = Path(diffkern.__file__).parent


def test_package_source_has_no_assert_statements():
    # python -O strips assert statements, so an invariant checked by one
    # silently stops being checked; raise a real exception instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
