"""The library validates with exceptions, never `assert`: python -O strips
assert statements, so a check written as one would vanish."""

import ast
import pathlib

import ptml

SOURCES = sorted(pathlib.Path(ptml.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statement():
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
