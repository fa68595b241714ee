import numpy as np
import pytest

from relgen import tables
from relgen.config import config_from_dict
from relgen.errors import DegenerateDataError, InvalidConfigError
from relgen.graphs import ROLE_TARGET, DagSpec, NodeSpec, classify_nodes, validate_dag
from relgen.relational import (
    RelationalSchema,
    build_schema,
    compose,
    generate_relational,
    latently_affected_targets,
)
from relgen.seeding import substream


def schema_for(seed, latent_count=2, **extra):
    cfg = config_from_dict({"master_seed": seed, "latent_count": latent_count, **extra})
    return cfg, build_schema(cfg)


def test_merged_stays_acyclic_and_valid():
    for seed in range(30):
        _, schema = schema_for(seed)
        validate_dag(schema.merged)
        for a, b in schema.merged.edges:
            assert a < b


def test_coupling_node_wiring():
    _, schema = schema_for(3)
    merged = schema.merged
    parents = merged.parent_map()
    children = merged.child_map()
    c = schema.coupling_index
    assert merged.node(c).pooling == "categorical"
    assert merged.node(c).category_count >= 2
    assert len(parents[c]) == 1 and parents[c][0] in schema.add_indices
    assert all(ch in schema.main_indices for ch in children[c])
    # C's child is wired into the main graph but is not a sink there
    assert all(merged.node(ch).role != ROLE_TARGET for ch in children[c])


def test_latent_edges_run_feature_to_target():
    for seed in range(12):
        _, schema = schema_for(seed)
        children = schema.merged.child_map()
        for a, b in schema.latent_edges:
            assert a in schema.add_indices
            assert children[a]  # source is no sink of the additional graph
            assert b in schema.main_indices
            assert schema.merged.node(b).role == ROLE_TARGET


def test_latent_reachability_avoiding_coupling():
    _, schema = schema_for(5, latent_count=2)
    affected = latently_affected_targets(schema)
    assert any(affected.values())


def test_latent_reachability_follows_main_paths():
    # A0 -> A1 -> C -> M0 -> M1 and C -> M2; A0 -> M0 bypasses C, so M1 is
    # reached through the main feature M0 and M2 only through C.
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (0, 3)}
    merged = classify_nodes(DagSpec(nodes=[NodeSpec(index=i, name=f"N{i}") for i in range(6)], edges=edges))
    schema = RelationalSchema(merged=merged, coupling_index=2, latent_edges={(0, 3)})
    assert latently_affected_targets(schema) == {4: True, 5: False}


def test_ablation_cuts_all_paths_through_coupling():
    _, schema = schema_for(5, latent_count=0)
    assert schema.latent_edges == set()
    affected = latently_affected_targets(schema)
    assert not any(affected.values())


def test_latent_count_limited_by_pairs():
    cfg = config_from_dict({"master_seed": 5})
    from relgen.graphs import sample_dag

    g_main = sample_dag(cfg, "main", 5, "structure-main", name_prefix="M")
    g_add = sample_dag(cfg, "add", 5, "structure-add", name_prefix="A")
    with pytest.raises(InvalidConfigError):
        compose(g_main, g_add, 10_000, (100.0, 50.0), substream(5, "compose"), cfg.activations)


def test_generate_relational_projects_main_columns():
    cfg, schema = schema_for(7)
    ds = generate_relational(schema, 300, 80, cfg.noise, 200, seed=1)
    merged = ds.schema.merged
    main_names = [merged.node(i).name for i in ds.schema.main_indices] + ["C"]
    add_names = [merged.node(i).name for i in ds.schema.add_indices] + ["C"]
    assert ds.main_table.names == main_names
    assert ds.add_table.names == add_names
    assert len(ds.main_table.columns) == len(ds.schema.main_indices) + 1
    assert not any(name.startswith("A") for name in ds.main_table.names)


def test_shared_coupling_codebook():
    cfg, schema = schema_for(8)
    ds = generate_relational(schema, 200, 50, cfg.noise, 200, seed=2)
    kc = ds.schema.merged.node(ds.schema.coupling_index).category_count
    for table in (ds.main_table, ds.add_table):
        c = table.column("C")
        assert c.kind == "categorical"
        assert c.values.min() >= 0 and c.values.max() < kc


def test_demoted_coupling_node_is_rejected():
    # C with zero weights sees constant pre-run data, so the pre-run demotes
    # it to mean pooling and the tables would share no categorical key.
    cfg, schema = schema_for(8, main_graph={"num_nodes": 8}, add_graph={"num_nodes": 5})
    schema.merged.node(schema.coupling_index).weights[:] = 0.0
    with pytest.raises(DegenerateDataError, match="coupling node C sees constant pre-run data at seed 1, .*pick another seed"):
        generate_relational(schema, 100, 20, cfg.noise, 200, seed=1)


def test_empty_additional_table_keeps_headers():
    cfg, schema = schema_for(9)
    ds = generate_relational(schema, 100, 0, cfg.noise, 200, seed=3)
    assert ds.add_table.row_count == 0
    assert ds.add_table.names[-1] == "C"


def test_same_seed_reproduces_dataset():
    cfg, schema = schema_for(10)
    a = generate_relational(schema, 250, 60, cfg.noise, 200, seed=4)
    b = generate_relational(schema, 250, 60, cfg.noise, 200, seed=4)
    for ta, tb in ((a.main_table, b.main_table), (a.add_table, b.add_table)):
        for ca, cb in zip(ta.columns, tb.columns):
            assert ca.values.tobytes() == cb.values.tobytes()


def test_generation_does_not_mutate_input_schema():
    cfg, schema = schema_for(11)
    poolings = [n.pooling for n in schema.merged.nodes]
    generate_relational(schema, 50, 20, cfg.noise, 200, seed=5)
    assert [n.pooling for n in schema.merged.nodes] == poolings


def test_each_column_is_pooled_once(monkeypatch):
    # The main run pools only main.csv's columns; the additional-only nodes
    # are pooled once, by the additional run.
    cfg, schema = schema_for(12)
    calls = []
    original = tables.pool_batch

    def counting_pool_batch(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(tables, "pool_batch", counting_pool_batch)
    ds = generate_relational(schema, 120, 40, cfg.noise, 200, seed=6)
    assert len(calls) == len(ds.main_table.columns) + len(ds.add_table.columns)
    assert ds.main_table.names == [schema.merged.node(i).name for i in schema.main_columns()]
    assert ds.add_table.names == [schema.merged.node(i).name for i in schema.add_columns()]

