"""Random graph sampling and node configuration.

Graphs come from preferential attachment: every node after the seed pair
{0, 1} links to earlier nodes, so a graph is connected by construction and
each edge points from lower to higher node index, which makes the index order
a topological order. Sinks become the dataset's targets; every other node,
roots included, is a feature column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import NUMERIC_POOLINGS, GenerationConfig
from .engine import RootDistribution, init_propagation_fn
from .errors import DegenerateGraphError, InvalidParameterError
from .seeding import substream

ROLE_ROOT = "root"
ROLE_FEATURE = "feature"
ROLE_TARGET = "target"
ROLES = (ROLE_ROOT, ROLE_FEATURE, ROLE_TARGET)

POOLING_KINDS = (*NUMERIC_POOLINGS, "categorical")
# Draws ``sample_dag`` makes before it gives up on a graph.
MAX_DAG_ATTEMPTS = 16


@dataclass
class NodeSpec:
    """Full per-node record: role, distribution or weights, and readout."""

    index: int
    name: str
    role: str = ""
    root_dist: RootDistribution | None = None
    activation: str | None = None
    weights: np.ndarray | None = None  # (n, parent_count * n); non-roots only
    pooling: str | None = None
    category_count: int | None = None


@dataclass(kw_only=True)
class DagSpec:
    """A sampled graph with every edge pointing from lower to higher index.

    The field order is the key order of ``merged`` in schema.json.
    """

    hidden_dim: int = 0
    nodes: list[NodeSpec]
    edges: set[tuple[int, int]]  # (parent, child) with parent < child

    def parent_map(self) -> dict[int, list[int]]:
        return self._adjacency((b, a) for a, b in self.edges)

    def child_map(self) -> dict[int, list[int]]:
        return self._adjacency(self.edges)

    def _adjacency(self, pairs) -> dict[int, list[int]]:
        """Each node's neighbours, ascending, from (node, neighbour) ``pairs``."""
        lists: dict[int, list[int]] = {node.index: [] for node in self.nodes}
        for node, neighbour in pairs:
            lists[node].append(neighbour)
        for lst in lists.values():
            lst.sort()
        return lists

    def sinks(self) -> list[int]:
        children = self.child_map()
        return [n.index for n in self.nodes if not children[n.index]]

    def node(self, index: int) -> NodeSpec:
        return self.nodes[index]


def sample_ba_graph(num_nodes: int, attach_m: int, rng: np.random.Generator) -> set[tuple[int, int]]:
    """Preferential attachment starting from the connected seed pair {0, 1}.

    Every later node attaches to min(attach_m, existing) distinct earlier
    nodes, picked with probability proportional to current degree. Returns
    the edges as (earlier, later) index pairs.
    """
    if num_nodes < 2:
        raise InvalidParameterError(f"num_nodes must be >= 2, got {num_nodes}")
    if attach_m < 1 or attach_m >= num_nodes:
        raise InvalidParameterError(
            f"attach_m must satisfy 1 <= attach_m < num_nodes, got {attach_m}"
        )
    edges = {(0, 1)}
    repeated = [0, 1]  # node i appears once per incident edge
    for new in range(2, num_nodes):
        m = min(attach_m, new)
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        for t in sorted(targets):
            edges.add((t, new))
            repeated.append(t)
        repeated.extend([new] * m)
    return edges


def _degree_role(parents: list[int], children: list[int]) -> str:
    """In-degree 0 -> root, else out-degree 0 -> target, else feature."""
    if not parents:
        return ROLE_ROOT
    return ROLE_FEATURE if children else ROLE_TARGET


def classify_nodes(dag: DagSpec) -> DagSpec:
    """Assign every node the role its degrees give it."""
    parents, children = dag.parent_map(), dag.child_map()
    for node in dag.nodes:
        node.role = _degree_role(parents[node.index], children[node.index])
    return dag


def sample_root_distribution(cfg: GenerationConfig, rng: np.random.Generator) -> RootDistribution:
    rd = cfg.root_distributions
    families = sorted(rd.family_weights)
    weights = np.array([rd.family_weights[f] for f in families], dtype=float)
    kind = families[int(rng.choice(len(families), p=weights / weights.sum()))]
    if kind == "normal":
        params = {
            "mean": float(rng.uniform(*rd.normal_mean)),
            "std": float(rng.uniform(*rd.normal_std)),
        }
    elif kind == "gamma":
        params = {
            "shape": float(rng.uniform(*rd.gamma_shape)),
            "scale": float(rng.uniform(*rd.gamma_scale)),
        }
    else:
        params = {
            "p": float(rd.mixture_p),
            "exp_scale": float(rng.uniform(*rd.mixture_exp_scale)),
        }
    return RootDistribution(kind=kind, params=params)


def sample_category_count(mean: float, std: float, rng: np.random.Generator) -> int:
    return max(2, int(np.rint(rng.normal(mean, std))))


def assign_node_configs(
    dag: DagSpec, cfg: GenerationConfig, rng: np.random.Generator
) -> DagSpec:
    """Fill in distributions, activations, weights, and pooling for every node."""
    parents = dag.parent_map()
    dag.hidden_dim = cfg.hidden_dim
    for node in dag.nodes:
        pc = len(parents[node.index])
        if pc == 0:
            node.root_dist = sample_root_distribution(cfg, rng)
            node.activation = None
            node.weights = None
        else:
            node.activation = cfg.activations[int(rng.integers(len(cfg.activations)))]
            node.weights = init_propagation_fn(pc, cfg.hidden_dim, node.activation, rng).weights
        if rng.random() < cfg.categorical_probability:
            node.pooling = "categorical"
            node.category_count = sample_category_count(*cfg.category_count, rng)
        else:
            node.pooling = cfg.numeric_poolings[int(rng.integers(len(cfg.numeric_poolings)))]
            node.category_count = None
    return dag


def validate_dag(dag: DagSpec) -> None:
    """Raise if any structural invariant is broken. A node's role is checked
    against its degrees only if it is one of ``ROLES``."""
    indices = [n.index for n in dag.nodes]
    if indices != list(range(len(dag.nodes))):
        raise DegenerateGraphError("node indices must be contiguous from 0")
    for a, b in dag.edges:
        if not (0 <= a < b < len(dag.nodes)):
            raise DegenerateGraphError(f"edge ({a},{b}) breaks the index-order topology")
    parents, children = dag.parent_map(), dag.child_map()
    for node in dag.nodes:
        ins, outs = parents[node.index], children[node.index]
        if not ins and not outs:
            raise DegenerateGraphError(f"node {node.index} is isolated")
        if node.role in ROLES and node.role != _degree_role(ins, outs):
            raise DegenerateGraphError(f"node {node.index} role {node.role!r} contradicts degrees")


def sample_dag(
    cfg: GenerationConfig,
    graph_key: str,
    seed: int,
    run_tag: str,
    name_prefix: str = "N",
) -> DagSpec:
    """Sample, classify, and annotate a graph, redrawing the node count while
    it is below 3 or not above ``attach_m``.

    ``graph_key`` selects cfg.main_graph or cfg.add_graph. Each attempt uses
    the sub-stream (seed, run_tag, attempt). Node i is named f"{name_prefix}{i}".
    """
    gcfg = getattr(cfg, f"{graph_key}_graph")
    lo, hi = gcfg.num_nodes
    for attempt in range(MAX_DAG_ATTEMPTS):
        rng = substream(seed, run_tag, attempt)
        num_nodes = int(rng.integers(lo, hi + 1))
        if num_nodes < 3 or gcfg.attach_m >= num_nodes:
            continue
        nodes = [NodeSpec(index=i, name=f"{name_prefix}{i}") for i in range(num_nodes)]
        dag = DagSpec(nodes=nodes, edges=sample_ba_graph(num_nodes, gcfg.attach_m, rng))
        return assign_node_configs(classify_nodes(dag), cfg, rng)
    raise DegenerateGraphError(
        f"no usable graph for {graph_key!r} after {MAX_DAG_ATTEMPTS} attempts (seed {seed})"
    )


def copy_dag(dag: DagSpec) -> DagSpec:
    """Deep copy; weight arrays are copied so callers may re-initialize freely."""
    nodes = [
        replace(n, weights=None if n.weights is None else n.weights.copy())
        for n in dag.nodes
    ]
    return DagSpec(nodes=nodes, edges=set(dag.edges), hidden_dim=dag.hidden_dim)
