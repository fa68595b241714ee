"""Noiseless pre-run: quantile estimation and categorical codebook fitting.

A low-sample pass without noise estimates each node's value distribution.
The component-wise 10%/90% quantiles calibrate the noise scale of the main
run, and k-means centroids fitted on the pre-run data define the categories
of every categorical node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import QuantilePair, propagate_rows
from .errors import DegenerateDataError, InvalidParameterError
from .graphs import DagSpec
from .seeding import substream

KMEANS_TOL = 1e-8
KMEANS_MAX_ITER = 100
# The probabilities of the quantile pair stored as q10 and q90.
QUANTILE_PROBS = (0.1, 0.9)


@dataclass(frozen=True)
class Codebook:
    """k-means centroids defining a categorical node's discretization.

    Centroids are ordered by first appearance in the fitted assignment, so a
    refit on the same data and seed reproduces the exact same category ids.
    """

    centroids: np.ndarray  # (K, n)
    fitted_on: int
    requested_k: int

    @property
    def k(self) -> int:
        return int(self.centroids.shape[0])


@dataclass(kw_only=True)
class PrerunStats:
    """Per-node quantiles and codebooks estimated from one pre-run.

    The field order is the key order of ``prerun_stats`` in schema.json.
    """

    num_presamples: int
    quantiles: dict[int, QuantilePair]
    codebooks: dict[int, Codebook]
    warnings: list[str] = field(default_factory=list)

    def covers(self, dag: DagSpec) -> bool:
        return all(n.index in self.quantiles for n in dag.nodes)


def prerun(dag: DagSpec, num_presamples: int, seed: int, threads: int = 1) -> dict[int, np.ndarray]:
    """Noiseless sampling pass; returns a (num_presamples, n) matrix per node."""
    if num_presamples < 2:
        raise InvalidParameterError(f"need at least 2 pre-samples, got {num_presamples}")
    return propagate_rows(dag, num_presamples, seed, "prerun", noise=None, threads=threads)


def compute_quantiles(samples: np.ndarray) -> QuantilePair:
    """Component-wise empirical 10% and 90% quantiles with linear interpolation.

    At probability p over m sorted values the index is h = p*(m-1) and the
    value interpolates between the two bracketing order statistics.
    """
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise InvalidParameterError("quantiles need a (rows >= 2, n) matrix")
    q = np.quantile(samples, QUANTILE_PROBS, axis=0, method="linear")
    return QuantilePair(q10=q[0], q90=q[1])


def nearest_centroid(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of, and squared distance to, the nearest centroid of every point.

    Ties resolve to the lowest centroid index. Squared distances are sums of
    explicit squared differences, accumulated one column at a time in column
    order, so below 8 columns they add in the same order as
    ``((p - c) ** 2).sum(axis=2)`` and give the same bits. Points go in
    blocks of ``max(256, 32768 // K)`` rows: the (block, K) d^2 array and
    its difference temporary then take about 256 KB each and stay in cache
    while every column is added onto them.
    """
    labels = np.empty(len(points), dtype=np.int64)
    nearest_d2 = np.empty(len(points))
    step = max(256, 32768 // len(centroids))
    for start in range(0, len(points), step):
        block = points[start : start + step]
        # d^2 starts as column 0's square: 0.0 + x is x for every x >= 0.
        d2 = np.subtract(block[:, 0, None], centroids[:, 0])
        d2 *= d2
        diff = np.empty_like(d2)
        for j in range(1, centroids.shape[1]):
            np.subtract(block[:, j, None], centroids[:, j], out=diff)
            diff *= diff
            d2 += diff
        block_labels = np.argmin(d2, axis=1)
        labels[start : start + step] = block_labels
        nearest_d2[start : start + step] = d2[np.arange(len(block)), block_labels]
    return labels, nearest_d2


def group_means(values: np.ndarray, labels: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Row j is ``values[labels == j].mean(axis=0)`` bit for bit, or ``fill[j]``
    if no row has label j.

    ``mean`` adds a label's rows onto 0.0 in row order, one column at a time,
    and divides by the count. From width 2 one ``np.bincount`` per column
    adds in that order too, for all labels in one call. A (rows, 1) slice,
    though, is summed pairwise, so at width 1 a stable sort puts each label's
    rows in one slice, in row order, and ``add.reduce`` over it gives
    ``mean``'s sum.
    """
    counts = np.bincount(labels, minlength=len(fill))
    means = np.array(fill, dtype=float)
    if values.shape[1] > 1:
        won = counts > 0
        sums = np.column_stack([np.bincount(labels, weights=col, minlength=len(fill)) for col in values.T])
        means[won] = sums[won] / counts[won, None]
        return means
    by_label = values[np.argsort(labels, kind="stable")]
    start = 0
    for j, end in enumerate(np.cumsum(counts)):
        if end > start:
            means[j] = np.add.reduce(by_label[start:end], axis=0) / (end - start)
        start = end
    return means


def count_distinct_rows(samples: np.ndarray) -> int:
    """``len(np.unique(samples, axis=0))``: rows that compare equal under float
    ``==`` (so -0.0 and 0.0 too) count once. Sorting the rows
    lexicographically puts equal rows next to each other."""
    if len(samples) == 0:
        return 0
    ordered = samples[np.lexsort(samples.T)]
    return 1 + int(np.count_nonzero((ordered[1:] != ordered[:-1]).any(axis=1)))


def draw_index(p: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(p), p=p)`` without its checks on ``p``: the same index
    from the same one ``rng.random()`` draw, so the stream moves on alike."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def fit_codebook(
    samples: np.ndarray,
    k: int,
    rng: np.random.Generator,
    objective_trace: list | None = None,
) -> Codebook:
    """k-means with k-means++ seeding and Lloyd iterations.

    Runs until the labels repeat, the largest centroid shift drops below
    1e-8, or 100 iterations. Repeated labels would give the same centroids,
    so that stop ends on the iteration the shift test would.
    If the data holds fewer than k distinct vectors, k is reduced to that
    count (the caller records the warning). Fewer than 2 distinct vectors is
    a degenerate node and raises. When ``objective_trace`` is given, the
    within-cluster sum of squares of every iteration is appended to it.
    """
    if k < 2:
        raise InvalidParameterError(f"category count must be >= 2, got {k}")
    samples = np.asarray(samples, dtype=float)
    distinct = count_distinct_rows(samples)
    if distinct < 2:
        raise DegenerateDataError("fewer than 2 distinct vectors; cannot form categories")
    k_eff = min(k, distinct)

    # k-means++: first centroid uniform, then squared-distance weighted picks.
    centroids = np.empty((k_eff, samples.shape[1]))
    centroids[0] = samples[int(rng.integers(len(samples)))]
    d2 = ((samples - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k_eff):
        total = d2.sum()
        if total <= 0.0:  # squared distances underflowed; take the first unused distinct point
            rows = np.unique(samples, axis=0)
            taken = (rows[:, None] == centroids[None, :j]).all(axis=2).any(axis=1)
            centroids[j] = rows[~taken][0]
        else:
            centroids[j] = samples[draw_index(d2 / total, rng)]
        d2 = np.minimum(d2, ((samples - centroids[j]) ** 2).sum(axis=1))

    prev_objective = np.inf
    prev_labels = None
    for _ in range(KMEANS_MAX_ITER):
        labels, nearest_d2 = nearest_centroid(samples, centroids)
        objective = float(nearest_d2.sum())
        if objective > prev_objective * (1 + 1e-12) + 1e-12:
            raise AssertionError("k-means objective increased")
        if objective_trace is not None:
            objective_trace.append(objective)
        prev_objective = objective
        # Repeated labels would repeat the centroids bit for bit: shift 0.
        settled = np.array_equal(labels, prev_labels)
        if settled:
            break
        prev_labels = labels
        new_centroids = group_means(samples, labels, centroids)
        shift = float(np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max())
        centroids = new_centroids
        if shift < KMEANS_TOL:
            break
    if not settled:  # the centroids moved after the last labelling
        labels, _ = nearest_centroid(samples, centroids)

    # Re-number clusters by first appearance over the sample order; clusters
    # that never win a point keep their relative order at the end.
    won, first = np.unique(labels, return_index=True)
    unwon = np.setdiff1d(np.arange(k_eff), won)
    order = np.concatenate([won[np.argsort(first)], unwon])
    return Codebook(centroids=centroids[order], fitted_on=len(samples), requested_k=k)


def build_prerun_stats(
    dag: DagSpec, matrices: dict[int, np.ndarray], seed: int
) -> PrerunStats:
    """Quantiles for every node, codebooks for categorical nodes.

    Categorical nodes whose pre-run data is constant are demoted to mean
    pooling with a warning instead of failing the whole generation. The
    passed DagSpec is updated in place so the stored schema reflects the
    pooling actually used.
    """
    num = next(iter(matrices.values())).shape[0] if matrices else 0
    stats = PrerunStats(quantiles={}, codebooks={}, num_presamples=num)
    for node in dag.nodes:
        stats.quantiles[node.index] = compute_quantiles(matrices[node.index])
        if node.pooling != "categorical":
            continue
        try:
            codebook = fit_codebook(
                matrices[node.index], node.category_count, substream(seed, "kmeans", node.index)
            )
        except DegenerateDataError:
            stats.warnings.append(
                f"node {node.name}: constant pre-run data, demoted categorical pooling to mean"
            )
            node.pooling = "mean"
            node.category_count = None
            continue
        if codebook.k < codebook.requested_k:
            stats.warnings.append(
                f"node {node.name}: only {codebook.k} distinct pre-run vectors, "
                f"reduced categories from {codebook.requested_k}"
            )
            node.category_count = codebook.k
        stats.codebooks[node.index] = codebook
    return stats
