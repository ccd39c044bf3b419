"""Checks on the package's own source."""

import ast
from pathlib import Path

import bidlab

SOURCES = sorted(Path(bidlab.__file__).resolve().parent.glob("*.py"))


def test_no_invariant_is_checked_by_an_assert_statement():
    # python -O strips assert statements, so an invariant checked by one
    # goes unchecked there; the package raises instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and found == []
