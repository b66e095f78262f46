"""Every name a test or library module imports is used there: a dead
import hides which helpers a test really exercises, and keeps deleted
names looking alive.  The benchmark's own files (bench/) are not
scanned."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).parent
SOURCES = sorted([*TESTS.glob("*.py"),
                  *(TESTS.parent / "src" / "ptml").glob("*.py")])


def _unused_imports(path: pathlib.Path) -> list:
    """name:line for each imported name the module never loads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_tests_import_only_names_they_use():
    assert SOURCES
    assert [dead for path in SOURCES for dead in _unused_imports(path)] == []
