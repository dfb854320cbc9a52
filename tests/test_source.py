"""Rules that hold for every module of the package source."""

import ast
import pathlib

import exactmatch

PACKAGE = pathlib.Path(exactmatch.__file__).parent


def test_no_assert_statement_in_the_package():
    # python -O strips assert statements, so a check the library relies on
    # raises one of its own errors instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
