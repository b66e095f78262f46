"""The library reads no environment variable: every setting is an
argument or a CLI option, so a run depends only on its command line."""

import ast
import pathlib

import ptml

SOURCES = sorted(pathlib.Path(ptml.__file__).parent.glob("*.py"))


def _environment_reads(tree) -> list:
    """Lines that reach os.environ or os.getenv, by attribute or import."""
    names = {"environ", "getenv", "environb", "getenvb"}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        or isinstance(node, ast.ImportFrom) and node.module == "os"
        and any(alias.name in names for alias in node.names))


def test_library_reads_no_environment_variable():
    assert SOURCES
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _environment_reads(ast.parse(path.read_text(),
                                                      str(path)))]
    assert found == []


def test_the_scan_sees_both_spellings():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('X')\n")
    assert _environment_reads(tree) == [2, 3]
