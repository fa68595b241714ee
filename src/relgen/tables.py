"""Main sampling run: pooling node vectors to scalars and assembling tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import NoiseConfig, propagate_rows
from .errors import ContractViolationError, InvalidParameterError, NonFiniteValueError
from .graphs import ROLE_FEATURE, ROLE_TARGET, DagSpec, NodeSpec
from .prerun import Codebook, PrerunStats, nearest_centroid

KIND_NUMERIC = "numeric"
KIND_CATEGORICAL = "categorical"


@dataclass
class Column:
    name: str
    kind: str  # numeric | categorical
    role: str  # feature | target
    values: np.ndarray  # float64 or int64


@dataclass
class Table:
    columns: list[Column]

    @property
    def row_count(self) -> int:
        return int(len(self.columns[0].values)) if self.columns else 0

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(name)

    def slice(self, start: int, stop: int) -> "Table":
        cols = [Column(c.name, c.kind, c.role, c.values[start:stop]) for c in self.columns]
        return Table(columns=cols)


def pool(x: np.ndarray, pooling: str, codebook: Codebook | None = None):
    """Reduce one node vector to a scalar readout: :func:`pool_batch` on one row."""
    value = pool_batch(x[None], pooling, codebook)[0]
    return int(value) if pooling == "categorical" else float(value)


def pool_batch(matrix: np.ndarray, pooling: str, codebook: Codebook | None = None) -> np.ndarray:
    """Reduce every row of a (rows, n) matrix to a scalar readout.

    Numeric kinds: Euclidean norm, arithmetic mean, component median (even
    lengths average the middle pair), or population variance. Categorical:
    index of the nearest centroid, ties to the lowest index.
    """
    if pooling == "categorical":
        if codebook is None:
            raise ContractViolationError("categorical pooling requires a fitted codebook")
        return nearest_centroid(matrix, codebook.centroids)[0]
    if codebook is not None:
        raise ContractViolationError(f"codebook passed for {pooling} pooling")
    if pooling == "norm":
        return np.sqrt((matrix * matrix).sum(axis=1))
    if pooling == "mean":
        return matrix.mean(axis=1)
    if pooling == "median":
        return np.median(matrix, axis=1)
    if pooling == "variance":
        return matrix.var(axis=1)
    raise InvalidParameterError(f"unknown pooling kind {pooling!r}")


def column_info(node: NodeSpec) -> tuple[str, str, str]:
    """(name, kind, role) of the column a node writes."""
    kind = KIND_CATEGORICAL if node.pooling == "categorical" else KIND_NUMERIC
    role = ROLE_TARGET if node.role == ROLE_TARGET else ROLE_FEATURE
    return node.name, kind, role


def generate_table(
    dag: DagSpec,
    stats: PrerunStats,
    num_rows: int,
    noise: NoiseConfig,
    seed: int,
    run_tag: str = "main",
    threads: int = 1,
    indices: list[int] | None = None,
) -> Table:
    """Sample ``num_rows`` rows over the annotated graph and pool the given nodes.

    Column j pools node ``indices[j]`` (default: every node, in index order);
    the whole graph is propagated either way. Row r draws all of its
    randomness from the block stream (seed, run_tag, r // CHUNK_ROWS), so
    output does not depend on the thread count, and the first rows of a
    longer run equal a shorter run. A pooled column that is not finite
    raises NonFiniteValueError naming the node and its pooling.
    """
    if not stats.covers(dag):
        raise ContractViolationError("pre-run stats do not cover the graph")
    matrices = propagate_rows(
        dag, num_rows, seed, run_tag, noise=noise, quantiles=stats.quantiles, threads=threads
    )
    columns = []
    for node in dag.nodes if indices is None else [dag.node(i) for i in indices]:
        values = pool_batch(matrices[node.index], node.pooling, stats.codebooks.get(node.index))
        # Finite node values can still overflow when pooled, as squares in a norm.
        if not np.isfinite(values).all():
            raise NonFiniteValueError(f"{node.pooling} pooling of node {node.name} is not finite")
        columns.append(Column(*column_info(node), values=values))
    return Table(columns=columns)
