"""Outward rounding lives in mpmath's interval arithmetic (libmpi): no
library module but criteria, whose _outward puts bounds on integers, names
a rounding direction, and no spectra function takes one."""

import ast
import pathlib

import ptml

SOURCES = sorted(pathlib.Path(ptml.__file__).parent.glob("*.py"))
DIRECTIONS = {"round_floor", "round_ceiling"}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant):
            yield node.value


def test_only_criteria_names_a_rounding_direction():
    naming = {path.name for path in SOURCES
              if DIRECTIONS & set(_names(ast.parse(path.read_text())))}
    assert naming == {"criteria.py"}


def test_no_spectra_function_takes_a_rounding_direction():
    path = pathlib.Path(ptml.__file__).parent / "spectra.py"
    found = [f"{getattr(node, 'name', 'lambda')}({arg.arg})"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.Lambda))
             for arg in (node.args.posonlyargs + node.args.args
                         + node.args.kwonlyargs)
             if arg.arg == "rnd"]
    assert found == []
