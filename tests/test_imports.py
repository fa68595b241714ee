"""Every module-level import and private name of the relgen package is used.

No linter ships with the test dependencies, so this is a small stdlib
stand-in for the unused-import check of pyflakes: a name bound by a
top-level ``import`` must be read somewhere else in its module. The same
holds for a top-level ``_name`` function, class or constant, which no other
module is meant to use. ``__init__.py`` is skipped, since its imports are
the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import relgen

MODULES = sorted(p for p in Path(relgen.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def unused_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, stmt.lineno)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = "import json\nfrom os import path, sep\n\nprint(path)\n"
    assert unused_imports(source) == ["line 1: json", "line 2: sep"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_private_names_are_used(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_private_name():
    source = (
        "_LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "__version__ = '1'\n"
        "def _format_cell(value):\n    return str(value)\n"
        "def _used():\n    return _LIMIT\n"
        "class _Hidden:\n    pass\n"
        "def public():\n    return _used()\n"
    )
    assert unused_private_names(source) == ["line 2: _SPARE", "line 4: _format_cell", "line 8: _Hidden"]
