"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

It proves that tracing changes no output (traced and untraced runs write
byte-identical files), that every metric BENCHMARK.json names is printed with
its unit, that routing around a traced layer shows as lost coverage, and that
the benchmark fails cleanly where the sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
from layers import GROUPING, PATCHES, Span, Tracer, layer_metrics, uncovered_seconds

SCALE = 0.05
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path):
    plain = run.run_once(workload, 3, tmp_path / "plain", False, SCALE)
    traced = run.run_once(workload, 3, tmp_path / "traced", True, SCALE)
    assert plain["ok"] and traced["ok"], (plain.get("error"), traced.get("error"))
    assert plain["outputs"] and plain["outputs"] == traced["outputs"]
    assert traced["unwrapped"] == []
    assert traced["leaf_parents"] == []


def _span(name, start, end, parent=None):
    return Span(name, parent, start, end)


def test_coverage_counts_leaf_spans_only():
    table = _span("tables.generate_table", 0.0, 8.0)
    spans = [table, _span("engine.propagate_rows", 1.0, 5.0, table), _span("tables.pool_batch", 5.0, 7.0, table)]
    assert "tables.generate_table" in GROUPING
    assert layer_metrics(spans, 10.0)["trace.coverage"] == pytest.approx(0.6)
    uncovered = uncovered_seconds(spans, 10.0)
    assert uncovered["tables.generate_table"] == pytest.approx(2.0)
    assert uncovered["outside spans"] == pytest.approx(2.0)
    # The same run with pool_batch inlined into its caller: no span for it.
    assert layer_metrics(spans[:2], 10.0)["trace.coverage"] == pytest.approx(0.4)


def test_bypassed_leaf_shows_as_lost_coverage(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SOURCE))
    import workloads

    def traced(patches, name):
        job = workloads.WORKLOADS["gen_100k"](3, tmp_path / name, SCALE)
        with Tracer(patches) as tracer:
            start = perf_counter()
            job.run()
            seconds = perf_counter() - start
        return layer_metrics(tracer.spans, seconds)

    full = traced(PATCHES, "full")
    # As if generate_table stopped calling propagate_rows by that name.
    bypassed = traced([p for p in PATCHES if p[:2] != ("tables", "propagate_rows")], "bypassed")
    assert bypassed["engine.propagate_s"] < full["engine.propagate_s"] / 2
    assert full["trace.coverage"] > 0.9
    assert bypassed["trace.coverage"] < full["trace.coverage"] - 0.2


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--trace", trace, "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "gen_100k", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
