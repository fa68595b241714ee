from dataclasses import replace

import numpy as np
import pytest

from relgen import engine
from relgen.config import config_from_dict
from relgen.engine import (
    ACTIVATIONS,
    CHUNK_ROWS,
    NoiseConfig,
    PropagationFn,
    QuantilePair,
    RootDistribution,
    init_propagation_fn,
    propagate,
    propagate_rows,
    sample_noise,
    sample_root,
    structural_assign,
)
from relgen.errors import ContractViolationError, InvalidParameterError, NonFiniteValueError
from relgen.graphs import DagSpec, NodeSpec, classify_nodes
from relgen.relational import build_schema
from relgen.seeding import SEED_DERIVATION_NOTE


def rng(seed=0):
    return np.random.default_rng(seed)


# --- roots -------------------------------------------------------------------

def test_normal_root_profile_is_valid():
    dist = RootDistribution("normal", {"mean": -0.029, "std": 0.816})
    x = sample_root(dist, 2, rng())
    assert x.shape == (2,)


def test_zero_std_rejected():
    with pytest.raises(InvalidParameterError):
        RootDistribution("normal", {"mean": 0.0, "std": 0.0})


def test_nonfinite_param_rejected():
    with pytest.raises(InvalidParameterError):
        RootDistribution("normal", {"mean": float("nan"), "std": 1.0})


def test_gamma_mean_matches_closed_form():
    dist = RootDistribution("gamma", {"shape": 2.245, "scale": 1.780})
    draws = np.concatenate([sample_root(dist, 10, rng(i)) for i in range(10_000)])
    mean = draws.mean()
    expected = 2.245 * 1.780
    stderr = draws.std() / np.sqrt(len(draws))
    assert abs(mean - expected) < 3 * stderr


def test_mixture_mean_matches_closed_form():
    # components: p * N(0,1) + (1-p) * Exp(scale); mean = (1-p) * scale
    p, scale = 0.5, 0.584
    dist = RootDistribution("mixture", {"p": p, "exp_scale": scale})
    draws = np.concatenate([sample_root(dist, 10, rng(i)) for i in range(10_000)])
    expected = (1 - p) * scale
    stderr = draws.std() / np.sqrt(len(draws))
    assert abs(draws.mean() - expected) < 3 * stderr


# --- propagation ---------------------------------------------------------------

def test_identity_weights_reproduce_parent():
    f = PropagationFn(weights=np.eye(3), activation="identity")
    parent = np.array([1.5, -2.0, 0.25])
    assert np.array_equal(propagate([parent], f), parent)


def test_relu_kills_negative_preactivation():
    f = PropagationFn(weights=-np.ones((2, 2)), activation="relu")
    out = propagate([np.array([1.0, 2.0])], f)
    assert np.array_equal(out, np.zeros(2))


def test_logabs_definition():
    f = PropagationFn(weights=np.eye(2), activation="logabs")
    out = propagate([np.array([1.0, -1.0])], f)
    expected = np.log(np.abs(np.array([1.0, -1.0])) + 1e-6)
    assert np.allclose(out, expected, atol=0, rtol=1e-15)
    assert abs(out[0]) < 1e-5 and abs(out[1]) < 1e-5


def test_shape_mismatch_raises():
    f = PropagationFn(weights=np.ones((2, 4)), activation="identity")
    with pytest.raises(ContractViolationError):
        propagate([np.ones(2)], f)


# --- structural assignment ------------------------------------------------------

def test_zero_eps_reduces_to_propagate():
    f = PropagationFn(weights=rng(1).normal(size=(2, 4)), activation="tanh")
    q = QuantilePair(q10=np.array([-1.0, 0.0]), q90=np.array([1.0, 2.0]))
    parents = [rng(2).normal(size=2), rng(3).normal(size=2)]
    out = structural_assign(parents, f, q, np.zeros(2))
    assert out.tobytes() == propagate(parents, f).tobytes()


def test_constant_node_ignores_noise():
    f = PropagationFn(weights=np.eye(2), activation="identity")
    q = QuantilePair(q10=np.array([3.0, 3.0]), q90=np.array([3.0, 3.0]))
    parent = np.array([1.0, 2.0])
    out = structural_assign([parent], f, q, np.array([5.0, -5.0]))
    assert np.array_equal(out, parent)


def test_scaled_noise_arithmetic():
    f = PropagationFn(weights=np.zeros((2, 2)), activation="identity")
    q = QuantilePair(q10=np.array([0.0, 0.0]), q90=np.array([2.0, 2.0]))
    # g output is (0,0) with zero weights; add (1,1) via the parent? simpler:
    # check g + scale*eps against hand arithmetic with g = (1,1)
    g = np.array([1.0, 1.0])
    out = g + q.scale * np.array([0.1, -0.1])
    assert np.allclose(out, [1.2, 0.8], atol=1e-15)
    assert np.allclose(
        structural_assign([np.zeros(2)], f, q, np.array([0.1, -0.1])),
        [0.2, -0.2],
        atol=1e-15,
    )


def test_quantile_pair_ordering_enforced():
    with pytest.raises(InvalidParameterError):
        QuantilePair(q10=np.array([1.0]), q90=np.array([0.0]))


# --- noise ----------------------------------------------------------------------

def test_zero_fraction_means_zero_noise():
    cfg = NoiseConfig(affected_fraction=0.0, noise_std=0.1)
    for i in range(50):
        assert np.array_equal(sample_noise(cfg, 2, rng(i)), np.zeros(2))


def test_noise_variance_matches_std():
    cfg = NoiseConfig(affected_fraction=1.0, noise_std=0.1)
    draws = np.stack([sample_noise(cfg, 2, rng(i)) for i in range(50_000)])
    assert draws.shape == (50_000, 2)
    var = draws.var(axis=0)
    assert np.all(np.abs(var - 0.01) < 0.0005)  # within 5%


def test_affected_fraction_respected():
    cfg = NoiseConfig(affected_fraction=0.1, noise_std=0.1)
    hits = sum(sample_noise(cfg, 2, rng(i)).any() for i in range(20_000))
    assert abs(hits / 20_000 - 0.1) < 0.01


def test_component_granularity():
    cfg = NoiseConfig(affected_fraction=0.5, noise_std=0.1, granularity="component")
    draws = np.stack([sample_noise(cfg, 4, rng(i)) for i in range(5_000)])
    frac = (draws != 0).mean()
    assert abs(frac - 0.5) < 0.03


# --- weight init ----------------------------------------------------------------

def test_weight_shape():
    f = init_propagation_fn(2, 2, "identity", rng())
    assert f.weights.shape == (2, 4)


def test_weight_determinism():
    a = init_propagation_fn(3, 2, "relu", rng(7)).weights
    b = init_propagation_fn(3, 2, "relu", rng(7)).weights
    assert a.tobytes() == b.tobytes()


def test_weight_variance_is_one_over_fan_in():
    draws = np.concatenate(
        [init_propagation_fn(2, 2, "identity", rng(i)).weights.ravel() for i in range(2_000)]
    )
    assert abs(draws.var() - 1 / 4) < 0.025  # within 10%


def test_activation_registry_complete():
    x = np.linspace(-2, 2, 9)
    for name, fn in ACTIVATIONS.items():
        out = fn(x)
        assert np.isfinite(out).all(), name


def test_row_granularity_hits_whole_rows():
    n = 2
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 0.0, "std": 1.0}), pooling="mean"),
        NodeSpec(index=1, name="N1", activation="identity", weights=np.eye(n), pooling="mean"),
        NodeSpec(index=2, name="N2", activation="identity", weights=np.eye(n), pooling="mean"),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 1), (1, 2)}, hidden_dim=n))
    quantiles = {
        1: QuantilePair(q10=np.zeros(n), q90=np.ones(n)),
        2: QuantilePair(q10=np.zeros(n), q90=np.ones(n)),
    }
    noise = NoiseConfig(affected_fraction=0.5, noise_std=0.5, granularity="row")
    mats = propagate_rows(dag, 400, seed=1, run_tag="main", noise=noise, quantiles=quantiles)
    hit1 = np.any(mats[1] != mats[0], axis=1)
    hit2 = np.any(mats[2] != mats[1], axis=1)
    assert np.array_equal(hit1, hit2)  # one coin per row covers every node
    assert 0.3 < hit1.mean() < 0.7


def test_propagate_rows_requires_quantiles_with_noise():
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 0.0, "std": 1.0}), pooling="mean"),
        NodeSpec(index=1, name="N1", activation="identity", weights=np.eye(2), pooling="mean"),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 1)}, hidden_dim=2))
    with pytest.raises(ContractViolationError):
        propagate_rows(dag, 5, seed=0, run_tag="main", noise=NoiseConfig())


def test_overflowing_node_is_named_with_its_activation():
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 1e300, "std": 1.0}), pooling="mean"),
        NodeSpec(index=1, name="N1", activation="identity", weights=1e10 * np.eye(2), pooling="mean"),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 1)}, hidden_dim=2))
    with pytest.raises(NonFiniteValueError, match=r"^non-finite values at node N1 \(activation identity\)$"):
        propagate_rows(dag, 5, seed=0, run_tag="main")


# --- block streams ----------------------------------------------------------------

def chain_dag(n=2):
    """Two roots (normal, mixture) feeding a tanh node, then an identity node."""
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 0.0, "std": 1.0}), pooling="mean"),
        NodeSpec(index=1, name="N1", root_dist=RootDistribution("mixture", {"p": 0.5, "exp_scale": 0.6}), pooling="mean"),
        NodeSpec(index=2, name="N2", activation="tanh", weights=rng(3).normal(size=(n, 2 * n)), pooling="mean"),
        NodeSpec(index=3, name="N3", activation="identity", weights=np.eye(n), pooling="mean"),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 2), (1, 2), (2, 3)}, hidden_dim=n))
    quantiles = {i: QuantilePair(q10=np.zeros(n), q90=np.ones(n)) for i in (2, 3)}
    return dag, quantiles


@pytest.mark.parametrize("granularity", ["node", "row", "component"])
@pytest.mark.parametrize("short, long", [(1_000, 10_000), (CHUNK_ROWS + 100, 9_000)])
def test_rows_do_not_depend_on_num_rows(granularity, short, long):
    dag, quantiles = chain_dag()
    noise = NoiseConfig(affected_fraction=0.3, noise_std=0.5, granularity=granularity)
    a = propagate_rows(dag, short, seed=4, run_tag="main", noise=noise, quantiles=quantiles)
    b = propagate_rows(dag, long, seed=4, run_tag="main", noise=noise, quantiles=quantiles)
    for idx in a:
        assert a[idx].tobytes() == b[idx][:short].tobytes()


@pytest.mark.parametrize("granularity", ["node", "component"])
def test_realised_noise_rate_matches_affected_fraction(granularity):
    dag, quantiles = chain_dag()
    noise = NoiseConfig(affected_fraction=0.1, noise_std=0.1, granularity=granularity)
    mats = propagate_rows(dag, 20_000, seed=6, run_tag="main", noise=noise, quantiles=quantiles)
    hits = mats[3] != mats[2]  # N3 = N2 + eps, with unit scale
    rate = hits.mean() if granularity == "component" else hits.any(axis=1).mean()
    assert abs(rate - 0.1) < 0.01


def test_batched_noise_shapes():
    cfg = NoiseConfig(affected_fraction=0.5, noise_std=0.1)
    assert sample_noise(cfg, 3, rng()).shape == (3,)
    block = sample_noise(cfg, (100, 3), rng())
    assert block.shape == (100, 3)
    hit = block.any(axis=1)
    assert np.array_equal(block.all(axis=1), hit)  # "node": one coin per row covers the row
    shared = np.arange(100) % 2 == 0
    row = sample_noise(replace(cfg, granularity="row"), (100, 3), rng(), shared)
    assert np.array_equal(row.any(axis=1), shared)


def test_seed_note_names_the_block_size():
    assert f"row // {CHUNK_ROWS}" in SEED_DERIVATION_NOTE


# --- the single-row equation is the batch equation ----------------------------------

@pytest.mark.parametrize("structure_seed", range(5))
def test_propagate_rows_equals_single_row_propagate(structure_seed):
    """Rows of the batch runner equal ``propagate`` on their parents, bit for bit.

    Covers rows on both sides of the first block boundary of a noiseless run
    over a default-profile merged graph.
    """
    dag = build_schema(config_from_dict({"master_seed": structure_seed})).merged
    mats = propagate_rows(dag, 9000, seed=structure_seed, run_tag="prerun")
    parent_map = dag.parent_map()
    checked = 0
    for node in dag.nodes:
        parents = parent_map[node.index]
        if not parents:
            continue
        f = PropagationFn(weights=node.weights, activation=node.activation)
        for r in (0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, 8999):
            single = propagate([mats[p][r] for p in parents], f)
            assert single.tobytes() == mats[node.index][r].tobytes(), (node.name, r)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("granularity", ["node", "row", "component"])
def test_propagate_rows_equals_row_by_row_structural_assign(monkeypatch, granularity):
    """Every row of a noisy run is ``structural_assign`` on that row's parents
    and the noise its block drew for the node, bit for bit.

    A spy on ``sample_noise`` keeps each draw. With one thread the blocks run
    in order, and each draws once per non-root node, in node order. The run
    spans a full block and the start of the next.
    """
    drawn = []

    def spy(*args):
        eps = sample_noise(*args)
        drawn.append(eps)
        return eps

    monkeypatch.setattr(engine, "sample_noise", spy)
    dag, quantiles = chain_dag()
    noise = NoiseConfig(affected_fraction=0.3, noise_std=0.5, granularity=granularity)
    num_rows = CHUNK_ROWS + 100
    mats = propagate_rows(dag, num_rows, seed=2, run_tag="main", noise=noise, quantiles=quantiles)
    parent_map = dag.parent_map()
    inner = [node for node in dag.nodes if parent_map[node.index]]
    assert len(drawn) == 2 * len(inner)
    for eps, node, block in zip(drawn, inner * 2, [0] * len(inner) + [1] * len(inner)):
        start = block * CHUNK_ROWS
        f = PropagationFn(weights=node.weights, activation=node.activation)
        for r in range(start, min(start + CHUNK_ROWS, num_rows)):
            parents = [mats[p][r] for p in parent_map[node.index]]
            want = structural_assign(parents, f, quantiles[node.index], eps[r - start])
            assert want.tobytes() == mats[node.index][r].tobytes(), (node.name, r)
    assert any(np.any(eps) for eps in drawn)
