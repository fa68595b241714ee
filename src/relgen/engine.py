"""Numerical core: root distributions, one-layer propagation, and
quantile-scaled noise injection.

Every node of a sampled graph carries an n-dimensional vector per row. Roots
draw their vector from a configured distribution; every other node applies a
random linear map to the concatenation of its parents' vectors, a fixed
activation, and adds noise scaled component-wise by the spread (90%- minus
10%-quantile) observed in a noiseless pre-run:

    x_i = activation(W_i @ concat(parents)) + (q90_i - q10_i) * eps_i

One kernel, :func:`propagate`, computes activation(W_i @ x) for one row or a
block of rows, and :func:`structural_assign` adds the noise term. The batch
runner :func:`propagate_rows` writes every row through them, in fixed blocks
of ``CHUNK_ROWS`` rows. Block b draws all of its randomness from one
generator, ``substream(seed, run_tag, b)``: one vectorised draw per node for
a full block, sliced to the rows that exist. Row r therefore depends only on
(seed, run_tag, r // CHUNK_ROWS), never on the row count or the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidParameterError,
    NonFiniteValueError,
)
from .seeding import substream

LOGABS_EPS = 1e-6

ACTIVATIONS = {
    "identity": lambda x: x,
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "logabs": lambda x: np.log(np.abs(x) + LOGABS_EPS),
    "sin": np.sin,
}

ROOT_FAMILIES = ("normal", "gamma", "mixture")

# Rows are generated in fixed-size blocks regardless of thread count and row
# count, so the worker pool only changes who computes a block, never what it
# contains. Changing this value changes the output bytes (see STREAM_VERSION).
CHUNK_ROWS = 8192


@dataclass(frozen=True)
class RootDistribution:
    """Distribution of an n-dimensional root vector.

    kinds:
      normal  -- params mean, std
      gamma   -- params shape, scale
      mixture -- params p, exp_scale; each component is standard normal with
                 probability p, otherwise exponential with the given scale
    """

    kind: str
    params: dict[str, float]

    def __post_init__(self) -> None:
        p = self.params
        for value in p.values():
            if not np.isfinite(value):
                raise InvalidParameterError(f"non-finite parameter in {self.kind} root: {p}")
        if self.kind == "normal":
            if p["std"] <= 0:
                raise InvalidParameterError(f"normal root needs std > 0, got {p['std']}")
        elif self.kind == "gamma":
            if p["shape"] <= 0 or p["scale"] <= 0:
                raise InvalidParameterError(f"gamma root needs shape, scale > 0, got {p}")
        elif self.kind == "mixture":
            if not 0.0 <= p["p"] <= 1.0:
                raise InvalidParameterError(f"mixture probability must lie in [0,1], got {p['p']}")
            if p["exp_scale"] <= 0:
                raise InvalidParameterError(f"mixture exp_scale must be > 0, got {p['exp_scale']}")
        else:
            raise InvalidParameterError(f"unknown root distribution kind {self.kind!r}")


@dataclass(frozen=True)
class PropagationFn:
    """One-layer linear map plus activation tag.

    ``weights`` has shape (n, parent_count * n) and is applied to the
    concatenation of the parent vectors in parent-index order.
    """

    weights: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise InvalidParameterError(f"unknown activation {self.activation!r}")
        if not np.isfinite(self.weights).all():
            raise InvalidParameterError("propagation weights must be finite")


@dataclass(frozen=True)
class QuantilePair:
    """Component-wise 10% and 90% quantile vectors of a node's pre-run data."""

    q10: np.ndarray
    q90: np.ndarray

    def __post_init__(self) -> None:
        if self.q10.shape != self.q90.shape:
            raise InvalidParameterError("quantile vectors must share a shape")
        if np.any(self.q10 > self.q90):
            raise InvalidParameterError("q10 must be <= q90 component-wise")

    @property
    def scale(self) -> np.ndarray:
        return self.q90 - self.q10


@dataclass(frozen=True)
class NoiseConfig:
    """Noise injection policy for the main sampling run.

    ``granularity`` picks the unit that the affected/unaffected coin is
    tossed for: "node" (one toss per row and node, the default), "row"
    (one toss per row covering all nodes), or "component" (one toss per
    vector component).
    """

    affected_fraction: float = 0.1
    noise_std: float = 0.1
    granularity: str = "node"

    def __post_init__(self) -> None:
        if not 0.0 <= self.affected_fraction <= 1.0:
            raise InvalidParameterError(
                f"affected_fraction must lie in [0,1], got {self.affected_fraction}"
            )
        if self.noise_std <= 0:
            raise InvalidParameterError(f"noise_std must be > 0, got {self.noise_std}")
        if self.granularity not in ("node", "row", "component"):
            raise InvalidParameterError(f"unknown noise granularity {self.granularity!r}")


def sample_root(dist: RootDistribution, shape, rng: np.random.Generator) -> np.ndarray:
    """Draw root values of the given shape: n for one row, (rows, n) for a block."""
    p = dist.params
    if dist.kind == "normal":
        return rng.normal(p["mean"], p["std"], shape)
    if dist.kind == "gamma":
        return rng.gamma(p["shape"], p["scale"], shape)
    # mixture: mask first, then both branches, so the draw count per call is
    # fixed and the stream stays aligned.
    pick_normal = rng.random(shape) < p["p"]
    gauss = rng.normal(0.0, 1.0, shape)
    expo = rng.exponential(p["exp_scale"], shape)
    return np.where(pick_normal, gauss, expo)


def init_propagation_fn(
    parent_count: int, n: int, activation: str, rng: np.random.Generator
) -> PropagationFn:
    """Draw weights i.i.d. Normal(0, 1/(parent_count*n)) for stable magnitudes."""
    if parent_count < 1:
        raise InvalidParameterError(f"parent_count must be >= 1, got {parent_count}")
    std = float(parent_count * n) ** -0.5
    weights = rng.normal(0.0, std, (n, parent_count * n))
    return PropagationFn(weights=weights, activation=activation)


def propagate(parents: list[np.ndarray], f: PropagationFn) -> np.ndarray:
    """The node kernel act(W @ concat(parents)), for one row's parent vectors
    (n each) or for a block of rows ((rows, n) each)."""
    stacked = np.concatenate(parents, axis=-1)
    if stacked.shape[-1] != f.weights.shape[1]:
        raise ContractViolationError(
            f"concatenated parent size {stacked.shape[-1]} does not match weight shape {f.weights.shape}"
        )
    # einsum keeps a fixed summation order, independent of BLAS threading, so
    # reruns are bit-identical. One row runs as a block of one row.
    out = ACTIVATIONS[f.activation](np.einsum("rk,jk->rj", np.atleast_2d(stacked), f.weights))
    return out if stacked.ndim == 2 else out[0]


def structural_assign(
    parents: list[np.ndarray], f: PropagationFn, q: QuantilePair, eps: np.ndarray
) -> np.ndarray:
    """One-layer propagation plus quantile-scaled noise, for a row or a block."""
    return propagate(parents, f) + q.scale * eps


def sample_noise(
    cfg: NoiseConfig, shape, rng: np.random.Generator, row_hit: np.ndarray | None = None
) -> np.ndarray:
    """Draw one node's noise: n values for one row, or (rows, n) for a block.

    Values are always drawn and then masked, so the number of draws is fixed.
    The coin is tossed per cell for "component" granularity and per row
    otherwise; for "row" granularity the caller passes ``row_hit``, the
    per-row coin it shares across all nodes (without it a coin is tossed here).
    """
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    if cfg.granularity == "component":
        hit = rng.random(shape) < cfg.affected_fraction
    else:
        if row_hit is None:
            row_hit = rng.random(shape[:-1]) < cfg.affected_fraction
        hit = row_hit[..., None]
    values = rng.normal(0.0, cfg.noise_std, shape)
    return np.where(hit, values, 0.0)


def _ensure_finite(values: np.ndarray, name: str, activation: str | None) -> None:
    if not np.isfinite(values).all():
        detail = f" (activation {activation})" if activation else ""
        raise NonFiniteValueError(f"non-finite values at node {name}{detail}")


def propagate_rows(
    dag,
    num_rows: int,
    seed: int,
    run_tag: str,
    noise: NoiseConfig | None = None,
    quantiles: dict[int, QuantilePair] | None = None,
    threads: int = 1,
) -> dict[int, np.ndarray]:
    """Run the full graph for ``num_rows`` rows; one (num_rows, n) matrix per node.

    With ``noise=None`` the run is noiseless (the pre-run mode). Otherwise
    ``quantiles`` must cover every non-root node. ``dag`` is a
    :class:`~relgen.graphs.DagSpec`.
    """
    if noise is not None and quantiles is None:
        raise ContractViolationError("noise injection requires pre-run quantiles")
    n = dag.hidden_dim
    if n < 1:
        raise ContractViolationError("graph is not annotated (hidden_dim unset)")
    nodes = dag.nodes
    parent_map = dag.parent_map()
    fns = {node.index: PropagationFn(node.weights, node.activation) for node in nodes if parent_map[node.index]}

    out = {node.index: np.empty((num_rows, n)) for node in nodes}
    block_shape = (CHUNK_ROWS, n)

    def run_block(block: int) -> None:
        start = block * CHUNK_ROWS
        stop = min(start + CHUNK_ROWS, num_rows)
        m = stop - start
        # Every draw covers a full block and is sliced to the m rows that
        # exist, so a row's values do not depend on num_rows.
        rng = substream(seed, run_tag, block)
        row_hit = None
        if noise is not None and noise.granularity == "row":
            row_hit = rng.random(CHUNK_ROWS) < noise.affected_fraction
        values: dict[int, np.ndarray] = {}
        for node in nodes:
            idx = node.index
            parents = [values[p] for p in parent_map[idx]]
            if not parents:
                x = sample_root(node.root_dist, block_shape, rng)[:m]
            elif noise is None:
                x = propagate(parents, fns[idx])
            else:
                eps = sample_noise(noise, block_shape, rng, row_hit)[:m]
                x = structural_assign(parents, fns[idx], quantiles[idx], eps)
            _ensure_finite(x, node.name, node.activation)
            values[idx] = x
            out[idx][start:stop] = x

    blocks = range(-(-num_rows // CHUNK_ROWS))
    # No pool for a lone worker: once a second thread has run, the whole
    # process computes more slowly (a latent_sweep run took about 20% longer).
    if threads <= 1 or len(blocks) <= 1:
        for block in blocks:
            run_block(block)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(run_block, b) for b in blocks]:
                future.result()
    return out
