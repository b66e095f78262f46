"""The library imports only the standard library, its own modules and the
dependencies that pyproject.toml declares, so a package that merely
happens to be installed (scipy, sympy) never becomes a silent requirement."""

import ast
import pathlib
import re
import sys

import pytest

import ptml

tomllib = pytest.importorskip("tomllib")  # the standard library from 3.11

SOURCES = sorted(pathlib.Path(ptml.__file__).parent.glob("*.py"))
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def _declared() -> set:
    """Import names of the [project] dependencies, e.g. numpy of
    'numpy>=2.0'."""
    deps = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def _imported(tree) -> set:
    """Top-level modules of the absolute imports in tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_library_imports_only_declared_dependencies():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | _declared() | {"ptml"}
    found = sorted(f"{path.name}: {name}" for path in SOURCES
                   for name in _imported(ast.parse(path.read_text(),
                                                   str(path)))
                   if name not in allowed)
    assert found == []


def test_the_scan_reads_pyproject_and_every_import_form():
    assert {"numpy", "mpmath"} <= _declared()
    tree = ast.parse("import os.path, scipy.linalg as la\n"
                     "from sympy import Matrix\nfrom . import dense\n"
                     "from .pauli import weight\nfrom mpmath.libmp import fone\n")
    assert _imported(tree) == {"os", "scipy", "sympy", "mpmath"}
