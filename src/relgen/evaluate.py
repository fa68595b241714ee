"""Evaluation harness: does the additional table carry usable information?

For every target column of the main table we run the same prediction task
twice: once on features built from the main table alone, and once with
key-matched aggregates of the additional table appended. The predictor is
kNN-10 with inverse-distance weighting; regression targets score RMSE,
categorical targets score (macro one-vs-rest) AUC.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidParameterError,
    UndefinedMetricError,
)
from .relational import RelationalDataset, latently_affected_targets
from .tables import KIND_CATEGORICAL, KIND_NUMERIC, Table

STD_FLOOR = 1e-12
DISTANCE_EPS = 1e-12


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (rows, d)
    descriptors: list[str]  # one per feature column, e.g. "main:M1:num"


@dataclass(frozen=True)
class EvalConfig:
    test_fraction: float = 0.1
    k: int = 10
    eval_seed: int = 0
    key_column: str = "C"
    # Share of the main block's total feature variance granted to the
    # aggregate block. Keeps the joined metric a bounded perturbation of the
    # main-only metric regardless of how many aggregate columns exist.
    agg_share: float = 0.02


@dataclass
class TargetResult:
    column: str
    task: str  # regression | classification
    metric: str  # RMSE | AUC
    main_only: float
    joined: float
    latently_affected: bool


@dataclass
class EvalReport:
    targets: list[TargetResult]
    k: int
    test_fraction: float
    rows_main: int
    rows_add: int
    generation_seed: int
    eval_seed: int
    schema_fingerprint: str | None = None
    feature_widths: dict = field(default_factory=dict)


def split(table: Table, test_fraction: float) -> tuple[Table, Table]:
    """Contiguous head/tail split; rows are i.i.d. so no shuffle is needed."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidParameterError(f"test_fraction must lie in (0,1), got {test_fraction}")
    rows = table.row_count
    n_test = int(rows * test_fraction)
    if n_test < 1 or n_test >= rows:
        raise InvalidParameterError(
            f"split of {rows} rows at {test_fraction} leaves an empty side"
        )
    return table.slice(0, rows - n_test), table.slice(rows - n_test, rows)


@dataclass
class FeatureStats:
    """Encoding state fitted on training rows only."""

    numeric: dict[str, tuple[float, float]]  # name -> (mean, std)
    categories: dict[str, np.ndarray]  # name -> sorted training-observed values
    feature_names: list[str]  # non-target columns in table order


def fit_feature_stats(train: Table) -> FeatureStats:
    numeric: dict[str, tuple[float, float]] = {}
    categories: dict[str, np.ndarray] = {}
    names = []
    for col in train.columns:
        if col.role == "target":
            continue
        names.append(col.name)
        if col.kind == KIND_NUMERIC:
            numeric[col.name] = (float(col.values.mean()), float(col.values.std()))
        else:
            categories[col.name] = np.unique(col.values)
    return FeatureStats(numeric=numeric, categories=categories, feature_names=names)


def featurize_main_only(rows: Table, stats: FeatureStats) -> FeatureMatrix:
    """Standardized numerics plus one-hot categoricals; targets excluded.

    Categories unseen during training encode as an all-zero block, keeping
    test matrices finite without touching the training geometry.
    """
    blocks: list[np.ndarray] = []
    descriptors: list[str] = []
    m = rows.row_count
    for name in stats.feature_names:
        col = rows.column(name)
        if col.kind == KIND_NUMERIC:
            mean, std = stats.numeric[name]
            blocks.append(((col.values - mean) / max(std, STD_FLOOR)).reshape(m, 1))
            descriptors.append(f"main:{name}:num")
        else:
            cats = stats.categories[name]
            onehot = (col.values[:, None] == cats[None, :]).astype(float)
            blocks.append(onehot)
            descriptors.extend(f"main:{name}:onehot:{c}" for c in cats)
    values = np.concatenate(blocks, axis=1) if blocks else np.zeros((m, 0))
    return FeatureMatrix(values=values, descriptors=descriptors)


@dataclass
class KeyAggregates:
    """Per-key aggregation of the additional table.

    Numeric columns aggregate by mean, categorical columns by normalized
    one-hot frequency; keys absent from the additional table fall back to the
    table-global means and frequencies.
    """

    by_key: dict[int, np.ndarray]
    fallback: np.ndarray
    descriptors: list[str]
    numeric_mask: np.ndarray  # True where the aggregate column is a mean


def build_key_aggregates(add_table: Table, key_column: str) -> KeyAggregates:
    key = add_table.column(key_column)
    if key.kind != KIND_CATEGORICAL:
        raise ContractViolationError(f"key column {key_column!r} must be categorical")
    agg_cols = [c for c in add_table.columns if c.name != key_column]
    descriptors: list[str] = []
    numeric_flags: list[bool] = []
    encoded: list[np.ndarray] = []
    for col in agg_cols:
        if col.kind == KIND_NUMERIC:
            encoded.append(col.values.reshape(-1, 1).astype(float))
            descriptors.append(f"add:{col.name}:aggmean")
            numeric_flags.append(True)
        else:
            cats = np.unique(col.values) if len(col.values) else np.zeros(0, dtype=np.int64)
            encoded.append((col.values[:, None] == cats[None, :]).astype(float))
            descriptors.extend(f"add:{col.name}:aggfreq:{c}" for c in cats)
            numeric_flags.extend([False] * len(cats))
    width = sum(e.shape[1] for e in encoded)
    rows = np.concatenate(encoded, axis=1) if encoded else np.zeros((add_table.row_count, 0))
    fallback = rows.mean(axis=0) if len(rows) else np.zeros(width)
    by_key: dict[int, np.ndarray] = {}
    for value in np.unique(key.values) if len(key.values) else []:
        by_key[int(value)] = rows[key.values == value].mean(axis=0)
    return KeyAggregates(
        by_key=by_key,
        fallback=fallback,
        descriptors=descriptors,
        numeric_mask=np.array(numeric_flags, dtype=bool),
    )


def map_aggregates(keys: np.ndarray, agg: KeyAggregates) -> np.ndarray:
    """Aggregate row of each key; keys the additional table lacks get the fallback."""
    known = sorted(agg.by_key)
    table = np.vstack([agg.by_key[key] for key in known] + [agg.fallback])
    keys = np.asarray(keys, dtype=np.int64)
    known = np.array(known, dtype=np.int64)
    row = np.searchsorted(known, keys)
    row[~np.isin(keys, known)] = len(known)
    return table[row]


def featurize_joined(
    rows: Table,
    stats: FeatureStats,
    agg: KeyAggregates,
    key_column: str,
    agg_norms: tuple[np.ndarray, np.ndarray],
    agg_weight: float = 1.0,
) -> FeatureMatrix:
    """Main-table features plus standardized key-matched aggregates.

    ``agg_norms`` are (mean, std) of the mapped aggregate columns over the
    training rows; only mean-aggregated (numeric) columns are standardized,
    frequency columns stay raw like every other one-hot block. ``agg_weight``
    multiplies the whole aggregate block before concatenation.
    """
    base = featurize_main_only(rows, stats)
    mapped = map_aggregates(rows.column(key_column).values, agg)
    mean, std = agg_norms
    scaled = mapped.copy()
    if agg.numeric_mask.any():
        mask = agg.numeric_mask
        scaled[:, mask] = (mapped[:, mask] - mean[mask]) / np.maximum(std[mask], STD_FLOOR)
    return FeatureMatrix(
        values=np.concatenate([base.values, agg_weight * scaled], axis=1),
        descriptors=base.descriptors + agg.descriptors,
    )


def fit_agg_norms(train_rows: Table, agg: KeyAggregates, key_column: str) -> tuple[np.ndarray, np.ndarray]:
    mapped = map_aggregates(train_rows.column(key_column).values, agg)
    return mapped.mean(axis=0), mapped.std(axis=0)


def fit_agg_weight(
    train_main: FeatureMatrix,
    train_rows: Table,
    agg: KeyAggregates,
    key_column: str,
    agg_norms: tuple[np.ndarray, np.ndarray],
    agg_share: float,
) -> float:
    """Block weight granting the aggregates a fixed share of the metric.

    The weight w solves w^2 * var(agg block) = agg_share * var(main block),
    with per-column variances measured over the training rows; it is capped
    at 1 so sparse aggregate blocks are never inflated.
    """
    mapped = map_aggregates(train_rows.column(key_column).values, agg)
    mean, std = agg_norms
    if agg.numeric_mask.any():
        mask = agg.numeric_mask
        mapped = mapped.copy()
        mapped[:, mask] = (mapped[:, mask] - mean[mask]) / np.maximum(std[mask], STD_FLOOR)
    v_main = float(train_main.values.var(axis=0).sum())
    v_agg = float(mapped.var(axis=0).sum())
    if v_agg <= 0.0 or v_main <= 0.0:
        return 1.0
    return min(1.0, float(np.sqrt(agg_share * v_main / v_agg)))


_TEST_BLOCK = 128


def _closest(rows_X: np.ndarray, train_X: np.ndarray, cand: np.ndarray, k: int):
    """The k candidates nearest each row by exact distance, ties by index.

    ``cand`` holds training indices, one row of candidates per row of
    ``rows_X``. Distances come from explicit differences, so exact matches
    are exact zeros.
    """
    diff = train_X[cand]
    diff -= rows_X[:, None, :]
    diff *= diff
    dist = np.sqrt(diff.sum(axis=2))
    order = np.lexsort((cand, dist), axis=1)[:, :k]
    return np.take_along_axis(cand, order, axis=1), np.take_along_axis(dist, order, axis=1)


def _select_neighbors(
    train_X: np.ndarray, test_X: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and exact distances of the k nearest training rows per test row.

    Candidates are ranked by the expanded square of the rows centred on the
    training mean (centring keeps a large common offset from cancelling),
    blocked over test rows into one preallocated buffer. Every training row
    whose expanded square lies within the rounding bound of the k-th
    smallest is a candidate; candidates are then ordered by exact distance,
    ties by training index, which is the order of a brute-force search.
    """
    n, width = train_X.shape
    center = train_X.mean(axis=0)
    train_c = train_X - center
    train_sq = (train_c * train_c).sum(axis=1)
    # Centring and the expanded square err by under about
    # (width + 6) * eps * (|test row|^2 + |train row|^2), explicit distances
    # by about (width + 3) * eps / 2 relative. ``scale`` is twice what a row
    # that ties the k-th nearest on exact distance needs to stay a candidate.
    scale = 4.0 * (width + 8) * np.finfo(float).eps
    max_train_sq = train_sq.max(initial=0.0)
    idx = np.empty((len(test_X), k), dtype=np.intp)
    dist = np.empty((len(test_X), k))
    buf = np.empty((min(_TEST_BLOCK, len(test_X)), n))
    for start in range(0, len(test_X), _TEST_BLOCK):
        block = test_X[start : start + _TEST_BLOCK]
        block_c = block - center
        block_sq = (block_c * block_c).sum(axis=1)
        sq = buf[: len(block)]
        np.matmul(block_c, train_c.T, out=sq)
        sq *= -2.0
        sq += block_sq[:, None]
        sq += train_sq
        if k < n:
            part = np.argpartition(sq, k - 1, axis=1)[:, :k]
            kth = np.take_along_axis(sq, part[:, k - 1 :], axis=1)[:, 0]
            limit = kth + scale * (block_sq + max_train_sq + np.abs(kth))
            tied = np.flatnonzero(np.count_nonzero(sq <= limit[:, None], axis=1) > k)
        else:
            part = np.broadcast_to(np.arange(n), (len(block), n))
            tied = ()
        block_idx, block_dist = _closest(block, train_X, part, k)
        for r in tied:
            cand = np.flatnonzero(sq[r] <= limit[r])[None, :]
            block_idx[r], block_dist[r] = _closest(block[r : r + 1], train_X, cand, k)
        idx[start : start + _TEST_BLOCK] = block_idx
        dist[start : start + _TEST_BLOCK] = block_dist
    return idx, dist


def knn_predict(
    train_X: np.ndarray,
    train_y: np.ndarray | list[np.ndarray],
    test_X: np.ndarray,
    k: int = 10,
    task: str | list[str] = "regression",
):
    """Inverse-distance weighted k-nearest-neighbor prediction.

    Weights are 1/(d + 1e-12). Any exact match short-circuits to the plain
    average (or label frequencies) over the zero-distance neighbors only.
    Regression returns predictions; classification returns (scores, classes)
    where scores rows sum to one and the hard label is the argmax, ties going
    to the lowest class id.

    Multi-target form: with ``train_y`` a list of 1-D arrays and ``task`` a
    list of the same length, one neighbour search serves every target and
    the result is a list holding, in order, what the single-target call
    would return for each.
    """
    single = isinstance(task, str)
    if single:
        train_y, task = [train_y], [task]
    elif len(train_y) != len(task):
        raise InvalidParameterError(f"{len(train_y)} targets but {len(task)} tasks")
    for t in task:
        if t not in ("regression", "classification"):
            raise InvalidParameterError(f"unknown task {t!r}")
    if k < 1 or k > len(train_X):
        raise InvalidParameterError(f"k must lie in [1, {len(train_X)}], got {k}")
    if train_X.shape[1] != test_X.shape[1]:
        raise ContractViolationError("train and test feature widths differ")
    idx, dist = _select_neighbors(train_X, test_X, k)
    weights = 1.0 / (dist + DISTANCE_EPS)
    exact = dist == 0.0
    has_exact = exact.any(axis=1)
    weights[has_exact] = exact[has_exact].astype(float)
    denom = weights.sum(axis=1, keepdims=True)

    predictions = []
    for y, t in zip(train_y, task):
        neighbor_y = y[idx]
        if t == "regression":
            predictions.append((weights * neighbor_y).sum(axis=1) / denom[:, 0])
            continue
        classes = np.unique(y)
        scores = np.empty((len(test_X), len(classes)))
        for j, cls in enumerate(classes):
            scores[:, j] = (weights * (neighbor_y == cls)).sum(axis=1)
        scores /= denom
        predictions.append((scores, classes))
    return predictions[0] if single else predictions


def hard_labels(scores: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Argmax of the class scores; ties resolve to the lowest class id."""
    return classes[np.argmax(scores, axis=1)]


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    if len(predictions) != len(truth):
        raise InvalidParameterError("prediction/truth length mismatch")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((last - counts + 1 + last) / 2.0)[group]


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank (Mann-Whitney) AUC of the positive-class score, ties count 0.5."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present in the truth")
    ranks = _average_ranks(np.asarray(scores, dtype=float))
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_macro(scores: np.ndarray, classes: np.ndarray, truth: np.ndarray) -> float:
    """Macro one-vs-rest AUC over the classes present in the truth."""
    present = np.unique(truth)
    if len(present) < 2:
        raise UndefinedMetricError("AUC undefined: single-class truth")
    class_pos = {int(c): j for j, c in enumerate(classes)}
    values = []
    for cls in present:
        j = class_pos.get(int(cls))
        col = scores[:, j] if j is not None else np.zeros(len(truth))
        values.append(auc_binary(col, truth == cls))
    return float(np.mean(values))


def score(predictions, truth: np.ndarray, task: str) -> float:
    if task == "regression":
        return rmse(np.asarray(predictions, dtype=float), np.asarray(truth, dtype=float))
    if task == "classification":
        scores, classes = predictions
        return auc_macro(scores, classes, truth)
    raise InvalidParameterError(f"unknown task {task!r}")


def run_comparison(dataset: RelationalDataset, cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Score every main-table target under the main-only and joined conditions."""
    main_sha = dataset.main_table.provenance.get("coupling_codebook_sha")
    add_sha = dataset.add_table.provenance.get("coupling_codebook_sha")
    if main_sha != add_sha:
        raise ContractViolationError("tables disagree on the coupling-key codebook")
    prints = {
        t.provenance.get("schema_fingerprint")
        for t in (dataset.main_table, dataset.add_table)
    }
    if len(prints - {None}) > 1:
        raise ContractViolationError("tables carry different schema fingerprints")

    train, test = split(dataset.main_table, cfg.test_fraction)
    stats = fit_feature_stats(train)
    agg = build_key_aggregates(dataset.add_table, cfg.key_column)
    agg_norms = fit_agg_norms(train, agg, cfg.key_column)

    main_train = featurize_main_only(train, stats)
    weight = fit_agg_weight(main_train, train, agg, cfg.key_column, agg_norms, cfg.agg_share)
    features = {
        "main_only": (main_train, featurize_main_only(test, stats)),
        "joined": (
            featurize_joined(train, stats, agg, cfg.key_column, agg_norms, weight),
            featurize_joined(test, stats, agg, cfg.key_column, agg_norms, weight),
        ),
    }
    affected = latently_affected_targets(dataset.schema)
    name_to_affected = {
        dataset.schema.merged.node(i).name: flag for i, flag in affected.items()
    }

    targets = [
        (col.name, "classification" if col.kind == KIND_CATEGORICAL else "regression")
        for col in dataset.main_table.columns
        if col.role == "target"
    ]
    tasks = [task for _, task in targets]
    y_train = [train.column(name).values for name, _ in targets]
    values = {}
    for condition, (ftrain, ftest) in features.items():
        preds = knn_predict(ftrain.values, y_train, ftest.values, k=cfg.k, task=tasks)
        values[condition] = [
            score(p, test.column(name).values, task) for p, (name, task) in zip(preds, targets)
        ]
    results = [
        TargetResult(
            column=name,
            task=task,
            metric="AUC" if task == "classification" else "RMSE",
            main_only=values["main_only"][i],
            joined=values["joined"][i],
            latently_affected=bool(name_to_affected.get(name, False)),
        )
        for i, (name, task) in enumerate(targets)
    ]
    return EvalReport(
        targets=results,
        k=cfg.k,
        test_fraction=cfg.test_fraction,
        rows_main=dataset.main_table.row_count,
        rows_add=dataset.add_table.row_count,
        generation_seed=dataset.seed,
        eval_seed=cfg.eval_seed,
        schema_fingerprint=dataset.main_table.provenance.get("schema_fingerprint"),
        feature_widths={name: f[0].values.shape[1] for name, f in features.items()},
    )
