"""The three benchmark workloads: set-up, the timed operation, and checks.

Every workload pins its graph structure to a fixed structure seed and takes
the benchmark's ``--seed`` as the data seed. The structure decides how much
work a run does (node count, K_C, number of targets and so of neighbour
searches: 3 to 6 targets across structure seeds), so pinning it keeps the
cost of a run the same across seeds while the data still changes with them.
The structure each run saw is recorded with its result.

The timed operation reaches every relgen function through its module
(``relational.generate_relational``, not an imported name), so that the
per-layer wrappers in ``layers.py`` see the calls when tracing is on.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import checks

STRUCTURE_SEED = 0
# Default profile with the graph sizes pinned: 12 + 6 nodes plus C gives 19
# merged nodes, and K_C is exactly 100 (the default draws it from N(100, 50)).
PINNED_PROFILE = {
    "master_seed": STRUCTURE_SEED,
    "main_graph": {"num_nodes": 12},
    "add_graph": {"num_nodes": 6},
    "coupling_categories": [100, 0],
    "threads": 1,
}
# Acceptance criterion 6: structure seed 23, data seeds 1..5 at --seed 0.
SWEEP_PROFILE = {
    "master_seed": 23,
    "main_graph": {"num_nodes": 8},
    "add_graph": {"num_nodes": 5},
    "threads": 1,
}
SWEEP_DATASETS = 5


def _rows(count: int, scale: float) -> int:
    return max(200, int(count * scale))


def _structure(dataset, reports=()) -> dict:
    merged = dataset.schema.merged
    targets = len(dataset.schema.main_targets())
    widths = [dict(r.feature_widths) for r in reports]
    return {
        "merged_nodes": len(merged.nodes),
        "categorical_nodes": sum(1 for n in merged.nodes if n.pooling == "categorical"),
        "targets": targets,
        "K_C": merged.node(dataset.schema.coupling_index).category_count,
        "feature_widths": widths[0] if widths else None,
        # (target, condition) pairs scored; the traced run counts knn calls.
        "predictions": targets * len(widths[0]) * len(widths) if widths else 0,
    }


def _file_digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def _memory_digest(datasets, reports) -> str:
    from relgen import serialize

    digest = hashlib.sha256()
    for dataset in datasets:
        for table in (dataset.main_table, dataset.add_table):
            for col in table.columns:
                digest.update(col.name.encode())
                digest.update(col.values.tobytes())
    for report in reports:
        digest.update(json.dumps(serialize.report_to_dict(report), sort_keys=True).encode())
    return digest.hexdigest()


class GenerateWorkload:
    """``relgen generate`` at 100k main rows into a fresh directory."""

    name = "gen_100k"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        from relgen import config, relational

        self.seed = seed
        self.out = workdir / "dataset"
        self.cfg = config.config_from_dict(
            {**PINNED_PROFILE, "rows_main": _rows(100_000, scale), "rows_add": 500}
        )
        self.rows = self.cfg.rows_main
        self.schema = relational.build_schema(self.cfg)

    def run(self) -> None:
        from relgen import relational, serialize

        cfg = self.cfg
        self.dataset = relational.generate_relational(
            self.schema, cfg.rows_main, cfg.rows_add, cfg.noise, cfg.num_presamples, self.seed, threads=1
        )
        serialize.write_dataset(self.dataset, cfg, self.out)

    def check(self) -> None:
        from relgen import serialize

        checks.manifest_hashes(self.out)
        checks.tables_equal(self.dataset, serialize.load_dataset(self.out))
        checks.value_ranges(self.dataset)

    def structure(self) -> dict:
        return _structure(self.dataset)

    def outputs(self) -> dict:
        return _file_digests(self.out)


class EvalWorkload:
    """``relgen eval`` of a 20k-row dataset generated during set-up."""

    name = "eval_20k"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        from relgen import config, relational, serialize

        self.data = workdir / "dataset"
        self.out = workdir / "report"
        cfg = config.config_from_dict(
            {**PINNED_PROFILE, "rows_main": _rows(20_000, scale), "rows_add": 500}
        )
        self.rows = cfg.rows_main
        schema = relational.build_schema(cfg)
        self.generated = relational.generate_relational(
            schema, cfg.rows_main, cfg.rows_add, cfg.noise, cfg.num_presamples, seed, threads=1
        )
        # The manifest records the pinned structure config; the data seed is
        # in the tables' provenance. Eval reads the files, not the config.
        serialize.write_dataset(self.generated, cfg, self.data)

    def run(self) -> None:
        from relgen import evaluate, serialize

        self.dataset = serialize.load_dataset(self.data)
        self.report = evaluate.run_comparison(self.dataset)
        serialize.write_eval_report(self.report, self.out)

    def check(self) -> None:
        from relgen import evaluate

        checks.manifest_hashes(self.data)
        checks.tables_equal(self.generated, self.dataset)
        checks.value_ranges(self.dataset)
        checks.report_finite(self.report, self.dataset)
        written = json.loads((self.out / "eval_report.json").read_text(encoding="utf-8"))
        if len(written["targets"]) != len(self.report.targets):
            raise checks.CheckFailed("eval_report.json does not list every target")
        checks.knn_spot_check(self.dataset, evaluate.knn_predict)

    def structure(self) -> dict:
        return _structure(self.dataset, [self.report])

    def outputs(self) -> dict:
        return _file_digests(self.out)


class SweepWorkload:
    """The latent-effect fixture in memory: one schema, five datasets, five evals."""

    name = "latent_sweep"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0) -> None:
        from relgen import config, relational

        self.seeds = [seed + i for i in range(1, SWEEP_DATASETS + 1)]
        self.cfg = config.config_from_dict(
            {**SWEEP_PROFILE, "rows_main": _rows(10_000, scale), "rows_add": 500}
        )
        self.rows = self.cfg.rows_main * SWEEP_DATASETS
        self.schema = relational.build_schema(self.cfg)

    def run(self) -> None:
        from relgen import evaluate, relational

        cfg = self.cfg
        self.datasets, self.reports = [], []
        for seed in self.seeds:
            dataset = relational.generate_relational(
                self.schema, cfg.rows_main, cfg.rows_add, cfg.noise, cfg.num_presamples, seed, threads=1
            )
            self.datasets.append(dataset)
            self.reports.append(evaluate.run_comparison(dataset))

    def check(self) -> None:
        from relgen import evaluate

        for dataset, report in zip(self.datasets, self.reports):
            checks.value_ranges(dataset)
            checks.report_finite(report, dataset)
        checks.knn_spot_check(self.datasets[-1], evaluate.knn_predict)

    def structure(self) -> dict:
        return _structure(self.datasets[-1], self.reports)

    def outputs(self) -> dict:
        return {"memory": _memory_digest(self.datasets, self.reports)}


WORKLOADS = {w.name: w for w in (GenerateWorkload, EvalWorkload, SweepWorkload)}
