import numpy as np
import pytest

from relgen.config import _write, config_from_dict
from relgen.errors import DegenerateGraphError, InvalidConfigError, InvalidParameterError
from relgen.graphs import (
    ROLE_FEATURE,
    ROLE_ROOT,
    ROLE_TARGET,
    DagSpec,
    NodeSpec,
    assign_node_configs,
    classify_nodes,
    sample_ba_graph,
    sample_dag,
    validate_dag,
)
from relgen.seeding import substream


def _dag(num_nodes: int, edges: set) -> DagSpec:
    return DagSpec(nodes=[NodeSpec(index=i, name=f"N{i}") for i in range(num_nodes)], edges=edges)


def test_two_nodes_forced_edge():
    assert sample_ba_graph(2, 1, np.random.default_rng(0)) == {(0, 1)}


def test_edge_count_from_attachment_rule():
    # seed pair contributes 1 edge; each of the 6 later nodes attaches twice
    for seed in range(5):
        assert len(sample_ba_graph(8, 2, np.random.default_rng(seed))) == 1 + 2 * 6


def test_attach_m_too_large_rejected():
    with pytest.raises(InvalidParameterError):
        sample_ba_graph(3, 3, np.random.default_rng(0))


def test_single_node_rejected():
    with pytest.raises(InvalidParameterError):
        sample_ba_graph(1, 1, np.random.default_rng(0))


def test_ba_is_seed_deterministic():
    a = sample_ba_graph(20, 2, np.random.default_rng(42))
    b = sample_ba_graph(20, 2, np.random.default_rng(42))
    assert a == b


def test_ba_graph_is_connected_and_oriented_by_index():
    """The properties sample_dag relies on instead of pruning and re-checking:
    no node is isolated, every edge runs from lower to higher index, and the
    last node is a sink with a parent."""
    for n in range(2, 41):
        for m in range(1, n):
            for seed in range(3):
                edges = sample_ba_graph(n, m, np.random.default_rng(seed))
                assert {i for edge in edges for i in edge} == set(range(n))
                assert all(a < b for a, b in edges)
                assert not any(a == n - 1 for a, _ in edges)
                assert any(b == n - 1 for _, b in edges)


def test_orientation_follows_index_order():
    dag = classify_nodes(_dag(3, {(0, 1), (1, 2)}))
    validate_dag(dag)
    assert [n.role for n in dag.nodes] == [ROLE_ROOT, ROLE_FEATURE, ROLE_TARGET]
    assert dag.sinks() == [2]
    with pytest.raises(DegenerateGraphError, match="index-order"):
        validate_dag(_dag(3, {(0, 1), (2, 1)}))


def test_star_targets():
    dag = classify_nodes(_dag(3, {(0, 1), (0, 2)}))
    assert dag.sinks() == [1, 2]
    assert [n.index for n in dag.nodes if n.role == ROLE_TARGET] == [1, 2]


def test_category_count_clamped_to_two():
    # force categorical pooling and a distribution that often samples below 2
    cfg = config_from_dict({"categorical_probability": 1.0, "category_count": [0.0, 0.5]})
    dag = classify_nodes(_dag(3, {(0, 1), (1, 2)}))
    assign_node_configs(dag, cfg, np.random.default_rng(0))
    assert all(n.category_count >= 2 for n in dag.nodes)


def test_empty_activation_set_rejected():
    with pytest.raises(InvalidConfigError):
        config_from_dict({"activations": []})


def test_assign_fills_everything():
    cfg = config_from_dict({})
    dag = classify_nodes(_dag(8, sample_ba_graph(8, 2, np.random.default_rng(3))))
    assign_node_configs(dag, cfg, np.random.default_rng(3))
    parents = dag.parent_map()
    for node in dag.nodes:
        if parents[node.index]:
            assert node.root_dist is None
            assert node.activation in cfg.activations
            assert node.weights.shape == (2, 2 * len(parents[node.index]))
        else:
            assert node.root_dist is not None
            assert node.weights is None
        assert node.pooling is not None
        if node.pooling == "categorical":
            assert node.category_count >= 2


def test_sampled_dag_invariants_hold():
    cfg = config_from_dict({})
    for seed in range(50):
        dag = sample_dag(cfg, "main", seed, "structure-main", name_prefix="M")
        validate_dag(dag)
        parents = dag.parent_map()
        children = dag.child_map()
        for node in dag.nodes:
            assert parents[node.index] or children[node.index]
            assert (node.role == ROLE_ROOT) == (not parents[node.index])
            assert (node.role == ROLE_TARGET) == (
                bool(parents[node.index]) and not children[node.index]
            )
        for a, b in dag.edges:
            assert a < b


def test_sampled_dag_is_bit_reproducible():
    cfg = config_from_dict({})
    a = sample_dag(cfg, "main", 11, "structure-main")
    b = sample_dag(cfg, "main", 11, "structure-main")
    assert _write(a) == _write(b)


def test_parent_and_child_maps_mirror_each_other_in_ascending_order():
    dag = _dag(5, {(2, 4), (0, 4), (1, 4), (0, 3), (0, 1)})
    assert dag.parent_map() == {0: [], 1: [0], 2: [], 3: [0], 4: [0, 1, 2]}
    assert dag.child_map() == {0: [1, 3, 4], 1: [4], 2: [4], 3: [], 4: []}


def test_validate_dag_checks_known_roles_against_degrees():
    dag = classify_nodes(_dag(3, {(0, 1), (1, 2)}))
    assert [n.role for n in dag.nodes] == [ROLE_ROOT, ROLE_FEATURE, ROLE_TARGET]
    dag.nodes[2].role = "sink"  # an unknown role is the schema reader's to name
    validate_dag(dag)
    dag.nodes[2].role = ROLE_FEATURE
    with pytest.raises(DegenerateGraphError, match="node 2 role 'feature' contradicts degrees"):
        validate_dag(dag)


def test_sample_dag_redraws_a_node_count_of_two():
    cfg = config_from_dict({"main_graph": {"num_nodes": [2, 4], "attach_m": 2}})
    # At seed 4 attempt 0 draws 2 nodes, which attach_m 2 cannot use, and attempt 1 draws 3.
    assert [int(substream(4, "structure-main", a).integers(2, 5)) for a in (0, 1)] == [2, 3]
    dag = sample_dag(cfg, "main", 4, "structure-main")
    assert len(dag.nodes) == 3
    validate_dag(dag)
