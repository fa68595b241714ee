"""Coupling two graphs into a linked pair of tables.

A main graph and an additional graph are merged through a high-cardinality
categorical coupling node C (fed by a sink of the additional graph, feeding a
feature of the main graph) plus a configurable number of latent edges running
from additional-graph features straight into main-graph targets. The merged
graph is sampled once for the main table and its prefix (the additional nodes
and C) once more for the additional table, sharing one pre-run so category ids
match across tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import GenerationConfig
from .engine import NoiseConfig, init_propagation_fn
from .errors import ContractViolationError, DegenerateDataError, DegenerateGraphError, InvalidConfigError
from .graphs import (
    ROLE_ROOT,
    ROLE_TARGET,
    DagSpec,
    NodeSpec,
    classify_nodes,
    copy_dag,
    sample_category_count,
    sample_dag,
    validate_dag,
)
from .prerun import PrerunStats, build_prerun_stats, prerun
from .seeding import substream
from .tables import Table, generate_table


@dataclass
class RelationalSchema:
    """Merged graph, laid out as ``[A0 ... A(c-1), C, M0 ...]`` with C at
    the coupling index c.

    The layout says which table each node feeds: the additional nodes and C
    are the graph's prefix and the main nodes follow C, so both index lists
    derive from c and the node count.
    """

    merged: DagSpec
    coupling_index: int
    latent_edges: set[tuple[int, int]]  # (add feature, main target) merged-index pairs

    @property
    def add_indices(self) -> list[int]:
        """Merged indices of the additional-graph nodes: those before C."""
        return list(range(self.coupling_index))

    @property
    def main_indices(self) -> list[int]:
        """Merged indices of the main-graph nodes: those after C."""
        return list(range(self.coupling_index + 1, len(self.merged.nodes)))

    def main_targets(self) -> list[int]:
        return [i for i in self.main_indices if self.merged.node(i).role == ROLE_TARGET]

    def main_columns(self) -> list[int]:
        """Merged indices of main.csv's columns, in order: the main nodes, then C."""
        return [*self.main_indices, self.coupling_index]

    def add_columns(self) -> list[int]:
        """Merged indices of additional.csv's columns, in order: the additional nodes, then C."""
        return [*self.add_indices, self.coupling_index]


@dataclass
class RelationalDataset:
    main_table: Table
    add_table: Table
    schema: RelationalSchema  # effective schema (post pre-run demotions)
    stats: PrerunStats
    seed: int
    schema_fingerprint: str | None = None  # set by serialize.load_dataset


def compose(
    g_main: DagSpec,
    g_add: DagSpec,
    latent_count: int,
    coupling_cat_cfg: tuple[float, float],
    rng: np.random.Generator,
    activations: tuple[str, ...],
) -> RelationalSchema:
    """Merge two annotated graphs via coupling node C and latent edges.

    Merged indices place every additional-graph node before C and C before
    every main-graph node, so index order stays topological. Nodes whose
    parent set grows (C itself, C's child, latent-edge targets) get freshly
    initialized weights matching the enlarged input.
    """
    if g_main.hidden_dim != g_add.hidden_dim or g_main.hidden_dim < 1:
        raise ContractViolationError("both graphs must be annotated with the same hidden_dim")
    n = g_main.hidden_dim
    add_sinks = g_add.sinks()
    main_sinks = g_main.sinks()
    main_nonsinks = [i for i in range(len(g_main.nodes)) if i not in main_sinks]
    if not add_sinks or not main_nonsinks or not main_sinks:
        raise DegenerateGraphError("coupling needs an additional-graph sink and a main-graph feature and sink")

    offset_c = len(g_add.nodes)
    offset_main = offset_c + 1

    merged_nodes: list[NodeSpec] = list(copy_dag(g_add).nodes)
    coupling = NodeSpec(index=offset_c, name="C", pooling="categorical")
    merged_nodes.append(coupling)
    for node in copy_dag(g_main).nodes:
        node.index = node.index + offset_main
        merged_nodes.append(node)

    edges = set(g_add.edges)
    edges |= {(a + offset_main, b + offset_main) for a, b in g_main.edges}

    coupling.category_count = sample_category_count(*coupling_cat_cfg, rng)
    c_parent = add_sinks[int(rng.integers(len(add_sinks)))]
    c_child = main_nonsinks[int(rng.integers(len(main_nonsinks)))] + offset_main
    coupling.activation = activations[int(rng.integers(len(activations)))]
    edges.add((c_parent, offset_c))
    edges.add((offset_c, c_child))

    add_features = sorted(set(range(len(g_add.nodes))) - set(add_sinks))
    pairs = [(f, t + offset_main) for f in add_features for t in main_sinks]
    if latent_count > len(pairs):
        raise InvalidConfigError(
            f"latent_count {latent_count} exceeds the {len(pairs)} available feature-target pairs"
        )
    latent: set = set()
    if latent_count:
        chosen = rng.choice(len(pairs), size=latent_count, replace=False)
        latent = {pairs[int(i)] for i in chosen}
        edges |= latent

    merged = DagSpec(nodes=merged_nodes, edges=edges, hidden_dim=n)
    parent_map = merged.parent_map()

    child_node = merged.node(c_child)
    if child_node.role == ROLE_ROOT:
        # the chosen feature was a root; it now has a parent and propagates
        child_node.root_dist = None
        child_node.activation = activations[int(rng.integers(len(activations)))]

    grown = {offset_c, c_child} | {t for _, t in latent}
    for idx in sorted(grown):
        node = merged.node(idx)
        node.weights = init_propagation_fn(
            len(parent_map[idx]), n, node.activation, rng
        ).weights

    classify_nodes(merged)
    validate_dag(merged)
    return RelationalSchema(merged=merged, coupling_index=offset_c, latent_edges=latent)


def latently_affected_targets(schema: RelationalSchema) -> dict[int, bool]:
    """Per main-target flag: reachable from the additional graph avoiding C?
    Every edge points to a higher index, so one pass over the main nodes in
    order settles each from its parents; the additional nodes are reached."""
    parents = schema.merged.parent_map()
    reached = [i < schema.coupling_index for i in range(len(schema.merged.nodes))]
    for i in schema.main_indices:
        reached[i] = any(reached[p] for p in parents[i])
    return {t: reached[t] for t in schema.main_targets()}


def generate_relational(
    schema: RelationalSchema,
    rows_main: int,
    rows_add: int,
    noise: NoiseConfig,
    num_presamples: int,
    seed: int,
    threads: int = 1,
) -> RelationalDataset:
    """One shared pre-run, then the main-table and additional-table runs.

    Both runs use the merged graph's weights, quantiles and codebooks. The
    main run propagates the whole merged graph and pools only the main
    columns; the additional run covers the prefix of additional nodes and C.
    """
    c = schema.coupling_index
    # Only the merged graph is edited (pre-run demotions), so only it is copied.
    working = replace(schema, merged=copy_dag(schema.merged))
    merged = working.merged
    matrices = prerun(merged, num_presamples, seed, threads=threads)
    stats = build_prerun_stats(merged, matrices, seed)
    if c not in stats.codebooks:
        raise DegenerateDataError(
            f"coupling node {merged.node(c).name} sees constant pre-run data at seed {seed}, "
            "so it has no categories to key the tables; pick another seed"
        )

    main_table = generate_table(
        merged, stats, rows_main, noise, seed, run_tag="main", threads=threads, indices=working.main_columns()
    )
    prefix = DagSpec(
        hidden_dim=merged.hidden_dim, nodes=merged.nodes[: c + 1], edges={(a, b) for a, b in merged.edges if b <= c}
    )
    add_table = generate_table(
        prefix, stats, rows_add, noise, seed, run_tag="add", threads=threads, indices=working.add_columns()
    )
    return RelationalDataset(
        main_table=main_table,
        add_table=add_table,
        schema=working,
        stats=stats,
        seed=seed,
    )


def build_schema(cfg: GenerationConfig) -> RelationalSchema:
    """Sample both graphs and couple them, all from the config's master seed."""
    g_main = sample_dag(cfg, "main", cfg.master_seed, "structure-main", name_prefix="M")
    g_add = sample_dag(cfg, "add", cfg.master_seed, "structure-add", name_prefix="A")
    return compose(
        g_main,
        g_add,
        cfg.latent_count,
        cfg.coupling_categories,
        substream(cfg.master_seed, "compose"),
        cfg.activations,
    )


def run_generation(cfg: GenerationConfig) -> RelationalDataset:
    """Full pipeline: structure, composition, pre-run, both table runs."""
    schema = build_schema(cfg)
    return generate_relational(
        schema,
        cfg.rows_main,
        cfg.rows_add,
        cfg.noise,
        cfg.num_presamples,
        cfg.master_seed,
        threads=cfg.threads,
    )
