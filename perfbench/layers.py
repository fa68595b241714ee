"""Per-layer tracing from outside the program.

Each traced function is replaced, for the duration of one run, by a wrapper
installed under the name its caller looks it up by: a module-level function
called from another relgen module is patched in the caller's namespace
(``relational.prerun``, ``tables.propagate_rows``), one called from the same
module or by the benchmark itself is patched in its own module. The wrapper
records a span (name, start, end, parent) and the layer's work counts, and
passes the call through unchanged, so traced and untraced runs write
identical outputs. A name the program no longer defines is skipped and listed
in ``Tracer.missing``; the work it did then falls out of ``trace.coverage``
instead of showing as a saving.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

MB = 1e6


@dataclass(eq=False)
class Span:
    name: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _num_rows(args, result) -> dict:
    return {"node_rows": args["num_rows"] * len(args["dag"].nodes)}


def _prerun_stats(args, result) -> dict:
    # A categorical node that got no codebook was demoted; counting it from
    # the result holds whether the DagSpec is edited in place or not.
    return {"demotions": args["categorical_before"] - len(result.codebooks)}


def _kmeans(args, result) -> dict:
    return {"kmeans_iters": len(args["objective_trace"])}


def _bytes(key):
    return lambda args, result: {key: Path(args["path"]).stat().st_size}


def _knn(args, result) -> dict:
    return {"distance_pairs": len(args["train_X"]) * len(args["test_X"])}


def _conditions(args, result) -> dict:
    return {"conditions": len(result.feature_widths)}


def _count_categorical(args: dict) -> None:
    args["categorical_before"] = sum(1 for node in args["dag"].nodes if node.pooling == "categorical")


def _fresh_objective_trace(args: dict) -> None:
    if args.get("objective_trace") is None:
        args["objective_trace"] = []


# (module, attribute, span name, count function, argument hook)
# The argument hook may add a key the count function reads; keys that are
# not parameters of the wrapped function are dropped before the call.
PATCHES = [
    ("relational", "generate_relational", "relational.generate_relational", None, None),
    ("relational", "prerun", "prerun.prerun", None, None),
    ("relational", "build_prerun_stats", "prerun.build_prerun_stats", _prerun_stats, _count_categorical),
    ("relational", "generate_table", "tables.generate_table", None, None),
    ("prerun", "propagate_rows", "engine.propagate_rows", _num_rows, None),
    ("tables", "propagate_rows", "engine.propagate_rows", _num_rows, None),
    ("prerun", "fit_codebook", "prerun.fit_codebook", _kmeans, _fresh_objective_trace),
    ("tables", "pool_batch", "tables.pool_batch", None, None),
    ("serialize", "write_dataset", "serialize.write_dataset", None, None),
    ("serialize", "write_csv", "serialize.write_csv", _bytes("bytes_written"), None),
    ("serialize", "file_sha256", "serialize.file_sha256", None, None),
    ("serialize", "load_dataset", "serialize.load_dataset", None, None),
    ("serialize", "read_csv_table", "serialize.read_csv_table", _bytes("bytes_read"), None),
    ("serialize", "write_eval_report", "serialize.write_eval_report", None, None),
    ("evaluate", "run_comparison", "evaluate.run_comparison", _conditions, None),
    ("evaluate", "knn_predict", "evaluate.knn_predict", _knn, None),
    ("evaluate", "fit_feature_stats", "evaluate.fit_feature_stats", None, None),
    ("evaluate", "featurize_main_only", "evaluate.featurize_main_only", None, None),
    ("evaluate", "featurize_joined", "evaluate.featurize_joined", None, None),
    ("evaluate", "build_key_aggregates", "evaluate.build_key_aggregates", None, None),
    ("evaluate", "map_aggregates", "evaluate.map_aggregates", None, None),
    ("evaluate", "fit_agg_norms", "evaluate.fit_agg_norms", None, None),
    ("evaluate", "fit_agg_weight", "evaluate.fit_agg_weight", None, None),
    ("evaluate", "score", "evaluate.score", None, None),
]

# Spans whose peak Python-tracked allocation is recorded (tracemalloc sees
# numpy buffers). Tracing allocations costs time, so only the neighbour
# search, whose temporaries set the eval workloads' peak memory, pays it.
ALLOC_TRACED = {"evaluate.knn_predict"}

FEATURIZE = ("evaluate.fit_feature_stats", "evaluate.featurize_main_only", "evaluate.featurize_joined")
AGGREGATES = (
    "evaluate.build_key_aggregates",
    "evaluate.map_aggregates",
    "evaluate.fit_agg_norms",
    "evaluate.fit_agg_weight",
)
# Spans that enclose other layer spans. Coverage counts only the other,
# leaf, spans: if a later change routes around a leaf (``pool_batch``,
# ``propagate_rows``), its work falls out of coverage instead of hiding
# inside the span of its caller. The self time of these spans is the stated
# uncovered remainder (``uncovered_seconds``).
GROUPING = {
    "relational.generate_relational",
    "prerun.prerun",
    "prerun.build_prerun_stats",
    "tables.generate_table",
    "serialize.write_dataset",
    "serialize.load_dataset",
    "evaluate.run_comparison",
    "evaluate.featurize_joined",
    "evaluate.fit_agg_norms",
    "evaluate.fit_agg_weight",
}


class Tracer:
    """Installs the wrappers, keeps the spans in memory, and removes them."""

    def __init__(self, patches=PATCHES) -> None:
        self.patches = patches
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count, hook):
        signature = inspect.signature(fn)
        alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            extra = dict(bound.arguments)
            if hook is not None:
                hook(extra)
                for key in signature.parameters:
                    bound.arguments[key] = extra[key]
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            if alloc:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*bound.args, **bound.kwargs)
            finally:
                span.end = perf_counter()
                if alloc:
                    span.counts["alloc_peak"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(extra, result))
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, count, hook in self.patches:
            module = importlib.import_module(f"relgen.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _has_ancestor(span: Span, names) -> bool:
    node = span.parent
    while node is not None:
        if node.name in names:
            return True
        node = node.parent
    return False


def _union_seconds(spans: list[Span]) -> float:
    total, reach = 0.0, float("-inf")
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > reach:
            total += span.end - max(span.start, reach)
            reach = span.end
    return total


def layer_metrics(spans: list[Span], run_seconds: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, by the names BENCHMARK.json lists.

    A layer's time is the summed duration of its outermost spans, so it
    includes the layers it calls; ``relational.self_s`` is the exception and
    subtracts the direct child spans of ``generate_relational``.
    """

    def outer(*names):
        return [s for s in spans if s.name in names and not _has_ancestor(s, names)]

    def seconds(*names):
        return sum((s.seconds for s in outer(*names)), 0.0)

    def count(key, *names):
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    def rate(amount, secs):
        return amount / secs if secs > 0 else 0.0

    generate_s = seconds("relational.generate_relational")
    propagate_s = seconds("engine.propagate_rows")
    node_rows = count("node_rows", "engine.propagate_rows")
    write_s = seconds("serialize.write_csv")
    written = count("bytes_written", "serialize.write_csv")
    read_s = seconds("serialize.read_csv_table")
    read = count("bytes_read", "serialize.read_csv_table")
    knn_s = seconds("evaluate.knn_predict")
    knn_calls = len(outer("evaluate.knn_predict"))
    pairs = count("distance_pairs", "evaluate.knn_predict")
    conditions = count("conditions", "evaluate.run_comparison")
    alloc = max((s.counts.get("alloc_peak", 0) for s in spans), default=0)
    return {
        "engine.propagate_s": propagate_s,
        "engine.node_rows": node_rows,
        "engine.node_rows_per_s": rate(node_rows, propagate_s),
        "prerun.prerun_s": seconds("prerun.prerun", "prerun.build_prerun_stats"),
        "prerun.kmeans_s": seconds("prerun.fit_codebook"),
        "prerun.kmeans_iters": count("kmeans_iters", "prerun.fit_codebook"),
        "prerun.demotions": count("demotions", "prerun.build_prerun_stats"),
        "tables.pool_s": seconds("tables.pool_batch"),
        "relational.generate_s": generate_s,
        "relational.self_s": _self_seconds(spans, "relational.generate_relational"),
        "serialize.csv_write_s": write_s,
        "serialize.hash_s": seconds("serialize.file_sha256"),
        "serialize.bytes_written": written,
        "serialize.write_MB_per_s": rate(written / MB, write_s),
        "serialize.csv_read_s": read_s,
        "serialize.bytes_read": read,
        "serialize.read_MB_per_s": rate(read / MB, read_s),
        "evaluate.knn_s": knn_s,
        "evaluate.knn_calls": knn_calls,
        "evaluate.distance_pairs": pairs,
        "evaluate.pairs_per_s": rate(pairs, knn_s),
        "evaluate.neighbor_reuse": rate(conditions, knn_calls),
        "evaluate.knn_alloc_peak_MB": alloc / MB,
        "evaluate.featurize_s": seconds(*FEATURIZE),
        "evaluate.aggregates_s": seconds(*AGGREGATES),
        "evaluate.score_s": seconds("evaluate.score"),
        "trace.coverage": rate(_union_seconds([s for s in spans if s.name not in GROUPING]), run_seconds),
    }


def _self_seconds(spans: list[Span], name: str) -> float:
    """Duration of the spans called ``name`` minus that of their direct children."""
    own = [s for s in spans if s.name == name]
    return sum((s.seconds for s in own), 0.0) - sum((s.seconds for s in spans if s.parent in own), 0.0)


def uncovered_seconds(spans: list[Span], run_seconds: float) -> dict[str, float]:
    """Where the run time that ``trace.coverage`` leaves out went.

    The self time of each grouping span, plus the time outside every span;
    together they are ``(1 - trace.coverage) * run_seconds``.
    """
    uncovered = {name: _self_seconds(spans, name) for name in sorted(GROUPING)}
    uncovered["outside spans"] = run_seconds - _union_seconds(spans)
    return uncovered


def leaf_parents(spans: list[Span]) -> list[str]:
    """Spans outside ``GROUPING`` that enclosed another span.

    Kept empty by listing every enclosing span in ``GROUPING``: a leaf that
    encloses another would go on covering its child's time after a change
    routes around the child.
    """
    return sorted({s.parent.name for s in spans if s.parent is not None and s.parent.name not in GROUPING})
