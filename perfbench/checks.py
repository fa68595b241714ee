"""Output checks run after every timed operation, outside the timed region.

They test properties any correct build must keep, never golden hashes, so a
change that deliberately alters the random-stream layout passes them
unchanged. Each check raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

KNN_TOLERANCE = 1e-9
KNN_SAMPLE_ROWS = 32
KNN_K = 10
TEST_FRACTION = 0.1


class CheckFailed(Exception):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def manifest_hashes(out_dir: Path) -> None:
    """Every file the manifest lists exists and has the listed SHA-256."""
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    if not manifest["files"]:
        raise CheckFailed("manifest lists no files")
    for name, digest in manifest["files"].items():
        if _sha256(out_dir / name) != digest:
            raise CheckFailed(f"{name}: hash on disk differs from the manifest")


def tables_equal(expected, loaded) -> None:
    """``load_dataset`` gave back the in-memory tables exactly."""
    for label in ("main_table", "add_table"):
        want, got = getattr(expected, label), getattr(loaded, label)
        if want.names != got.names:
            raise CheckFailed(f"{label}: columns {got.names} != {want.names}")
        for a, b in zip(want.columns, got.columns):
            if (a.kind, a.role) != (b.kind, b.role) or not np.array_equal(a.values, b.values):
                raise CheckFailed(f"{label}.{a.name}: values differ after the round trip")


def value_ranges(dataset) -> None:
    """Categorical cells lie in [0, category_count); numeric cells are finite."""
    nodes = {node.name: node for node in dataset.schema.merged.nodes}
    for label in ("main_table", "add_table"):
        for col in getattr(dataset, label).columns:
            if col.kind == "categorical":
                count = nodes[col.name].category_count
                if len(col.values) and (col.values.min() < 0 or col.values.max() >= count):
                    raise CheckFailed(f"{label}.{col.name}: category outside [0, {count})")
            elif not np.isfinite(col.values).all():
                raise CheckFailed(f"{label}.{col.name}: non-finite value")


def report_finite(report, dataset) -> None:
    """One result per target column, every metric finite."""
    targets = [c.name for c in dataset.main_table.columns if c.role == "target"]
    if sorted(t.column for t in report.targets) != sorted(targets):
        raise CheckFailed("eval report does not cover exactly the target columns")
    for t in report.targets:
        if not (np.isfinite(t.main_only) and np.isfinite(t.joined)):
            raise CheckFailed(f"{t.column}: non-finite {t.metric}")


def _features(table, train_rows: int) -> np.ndarray:
    """Standardised numerics and one-hot categoricals of the feature columns."""
    blocks = []
    for col in table.columns:
        if col.role == "target":
            continue
        train = col.values[:train_rows]
        if col.kind == "categorical":
            blocks.append((col.values[:, None] == np.unique(train)[None, :]).astype(float))
        else:
            blocks.append(((col.values - train.mean()) / max(train.std(), 1e-12))[:, None])
    return np.concatenate(blocks, axis=1)


def _oracle_neighbors(train_X, row, k):
    """Sorted explicit distances, ties by training index, and the IDW weights."""
    d = np.sqrt(((train_X - row) ** 2).sum(axis=1))
    nearest = np.lexsort((np.arange(len(d)), d))[:k]
    dist = d[nearest]
    weights = (dist == 0.0).astype(float) if (dist == 0.0).any() else 1.0 / (dist + 1e-12)
    return nearest, weights / weights.sum()


def knn_spot_check(dataset, knn_predict) -> None:
    """``knn_predict`` on a subsample of test rows matches the oracle to 1e-9.

    Features are built here from the main table, so the check depends only on
    the public ``knn_predict`` signature, not on how ``evaluate`` featurizes.
    """
    table = dataset.main_table
    rows = table.row_count
    train_rows = rows - int(rows * TEST_FRACTION)
    X = _features(table, train_rows)
    train_X = X[:train_rows]
    picks = np.linspace(train_rows, rows - 1, min(KNN_SAMPLE_ROWS, rows - train_rows)).astype(int)
    test_X = X[picks]
    neighbors = [_oracle_neighbors(train_X, row, KNN_K) for row in test_X]
    for col in table.columns:
        if col.role != "target":
            continue
        train_y = col.values[:train_rows]
        if col.kind == "categorical":
            got, classes = knn_predict(train_X, train_y, test_X, k=KNN_K, task="classification")
            if not np.array_equal(classes, np.unique(train_y)):
                raise CheckFailed(f"{col.name}: kNN classes differ from the training labels")
            want = np.array([[(w * (train_y[i] == c)).sum() for c in classes] for i, w in neighbors])
        else:
            got = knn_predict(train_X, train_y, test_X, k=KNN_K, task="regression")
            want = np.array([(w * train_y[i]).sum() for i, w in neighbors])
        if not np.allclose(got, want, rtol=KNN_TOLERANCE, atol=KNN_TOLERANCE):
            worst = float(np.max(np.abs(np.asarray(got) - want)))
            raise CheckFailed(f"{col.name}: kNN differs from the oracle by {worst:.3g}")
