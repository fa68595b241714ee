"""Every function the benchmark traces still exists under the name it patches.

The per-layer tracer in ``perfbench/layers.py`` wraps relgen functions by
module and attribute name and skips a name the program no longer defines,
so a rename would only show in a traced benchmark run. This reads its
``PATCHES`` table with ``ast``, without importing the benchmark, and checks
each name against the package.
"""

import ast
import importlib
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def patched_names(source: str) -> list[tuple[str, str]]:
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "PATCHES" for t in stmt.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in stmt.value.elts]
    raise AssertionError("no PATCHES table found")


def missing_callables(names: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{attr}"
        for module, attr in names
        if not callable(getattr(importlib.import_module(f"relgen.{module}"), attr, None))
    ]


def test_every_patched_name_is_a_relgen_callable():
    names = patched_names(LAYERS.read_text(encoding="utf-8"))
    assert ("evaluate", "knn_predict") in names
    assert missing_callables(names) == []


def test_check_reports_a_dropped_name():
    source = 'PATCHES = [("evaluate", "knn_predict", "a", None, None), ("evaluate", "gone", "b", None, None)]'
    assert missing_callables(patched_names(source)) == ["evaluate.gone"]
