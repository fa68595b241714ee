import numpy as np
import pytest

from relgen.config import config_from_dict
from relgen.engine import CHUNK_ROWS, NoiseConfig
from relgen.errors import ContractViolationError, NonFiniteValueError
from relgen.graphs import sample_dag
from relgen.prerun import Codebook, build_prerun_stats, nearest_centroid, prerun
from relgen.tables import generate_table, pool, pool_batch


def codebook(centroids):
    return Codebook(centroids=np.asarray(centroids, dtype=float), fitted_on=10, requested_k=len(centroids))


# --- pooling ----------------------------------------------------------------

def test_mean_and_norm():
    assert pool(np.array([1.0, 3.0]), "mean") == 2.0
    assert pool(np.array([3.0, 4.0]), "norm") == 5.0


def test_median_even_length_averages_middle_pair():
    assert pool(np.array([1.0, 2.0, 10.0, 11.0]), "median") == 6.0


def test_variance_is_population_convention():
    assert pool(np.array([1.0, 3.0]), "variance") == 1.0


def test_categorical_nearest_centroid():
    cb = codebook([[0.0, 0.0], [10.0, 10.0]])
    assert pool(np.array([1.0, 1.0]), "categorical", cb) == 0


def test_categorical_tie_breaks_low():
    cb = codebook([[0.0, 0.0], [2.0, 0.0]])
    assert pool(np.array([1.0, 0.0]), "categorical", cb) == 0


def test_categorical_requires_codebook():
    with pytest.raises(ContractViolationError):
        pool(np.array([1.0, 1.0]), "categorical", None)


def test_batch_matches_single():
    cb = codebook(np.random.default_rng(0).normal(size=(5, 2)))
    mat = np.random.default_rng(1).normal(size=(200, 2))
    for kind in ("norm", "mean", "median", "variance"):
        batch = pool_batch(mat, kind)
        single = np.array([pool(row, kind) for row in mat])
        assert np.allclose(batch, single, rtol=1e-12, atol=0)
    batch = pool_batch(mat, "categorical", cb)
    single = np.array([pool(row, "categorical", cb) for row in mat])
    assert np.array_equal(batch, single)


def scan_nearest(points, centroids):
    """Brute-force oracle: per point the least (d^2, index), d^2 summed column by column."""

    def d2(row, centroid):
        total = 0.0
        for a, b in zip(row, centroid):
            total += (a - b) * (a - b)
        return total

    best = [min((d2(row, c), j) for j, c in enumerate(centroids.tolist())) for row in points.tolist()]
    return np.array([j for _, j in best]), np.array([d for d, _ in best])


def check_nearest_across_blocks(n, k, extra_rows):
    """Nearest centroid against a scan, exact ties on every block's first and
    last row.

    Centroids 1 and 3 mirror each other around ``mid``, as do 0 and 4 around
    the origin, so rows on ``mid`` or the origin sit on exact ties and must
    take the lower index. Any further centroids lie farther from both points
    than those pairs. ``nearest_centroid`` takes ``max(256, 32768 // k)`` rows
    per block; the rows fill one block and ``extra_rows`` more. Below 8
    columns d^2 must also equal ``((p - c) ** 2).sum(axis=2)`` bit for bit.
    """
    rng = np.random.default_rng(100 + n + k)

    def signed(magnitudes):
        return rng.choice([-1.0, 1.0], size=n) * rng.choice(magnitudes, size=n)

    mid, delta, around_origin = signed([1.5, 2.0]), signed([0.25, 0.5]), signed([0.5])
    centroids = np.array([around_origin, mid - delta, np.full(n, 5.0), mid + delta, -around_origin])
    far = rng.normal(scale=4.0, size=(20 * k, n))
    clear = (((far - mid) ** 2).sum(axis=1) > (delta**2).sum()) & ((far**2).sum(axis=1) > (around_origin**2).sum())
    far = far[clear]
    centroids = np.concatenate([centroids, far[: k - 5]])
    assert len(centroids) == k
    block = max(256, 32768 // k)
    rows = rng.normal(scale=2.0, size=(block + extra_rows, n))
    starts = np.arange(0, len(rows), block)
    edges = np.unique(np.concatenate([starts, starts[1:] - 1, [len(rows) - 1]]))
    inner = np.setdiff1d(np.arange(len(rows)), edges)
    tied = np.concatenate([edges, rng.choice(inner, 300, replace=False)])
    rows[tied[::2]] = mid
    rows[tied[1::2]] = 0.0
    labels, d2 = nearest_centroid(rows, centroids)
    want_labels, want_d2 = scan_nearest(rows, centroids)
    assert np.array_equal(labels, want_labels)
    assert d2.tobytes() == want_d2.tobytes()
    assert set(labels[tied[::2]]) == {1} and set(labels[tied[1::2]]) == {0}
    assert np.array_equal(pool_batch(rows, "categorical", codebook(centroids)), labels)
    if n <= 7:
        old = ((rows[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert d2.tobytes() == old[np.arange(len(rows)), labels].tobytes()
        assert np.array_equal(labels, np.argmin(old, axis=1))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16])
def test_categorical_batch_matches_brute_force_across_blocks(n):
    check_nearest_across_blocks(n, 5, 800)


@pytest.mark.parametrize("n", [1, 2, 8])
def test_categorical_batch_matches_brute_force_at_k100(n):
    # 327-row blocks: 1,000 rows span four, the last of 19 rows.
    check_nearest_across_blocks(n, 100, 1000 - 327)


# --- table generation ----------------------------------------------------------

def build(seed=5, rows=500, **cfg_extra):
    cfg = config_from_dict(cfg_extra)
    dag = sample_dag(cfg, "main", seed, "structure-main", name_prefix="M")
    stats = build_prerun_stats(dag, prerun(dag, 300, seed), seed)
    table = generate_table(dag, stats, rows, cfg.noise, seed)
    return dag, stats, table


def test_zero_rows_keeps_headers():
    dag, stats, table = build(rows=0)
    assert table.row_count == 0
    assert table.names == [n.name for n in dag.nodes]


def test_reruns_are_bit_identical():
    _, stats, a = build(seed=8)
    _, _, b = build(seed=8)
    for ca, cb in zip(a.columns, b.columns):
        assert ca.values.tobytes() == cb.values.tobytes()


def test_thread_count_does_not_change_output():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 9, "structure-main")
    stats = build_prerun_stats(dag, prerun(dag, 300, 9), 9)
    one = generate_table(dag, stats, 2000, cfg.noise, 9, threads=1)
    many = generate_table(dag, stats, 2000, cfg.noise, 9, threads=8)
    for ca, cb in zip(one.columns, many.columns):
        assert ca.values.tobytes() == cb.values.tobytes()


def test_two_blocks_on_two_threads_equal_one_thread(monkeypatch):
    # CHUNK_ROWS + 100 rows are two blocks of the random stream: threads=2
    # runs them in the block pool, threads=1 one after the other.
    from relgen import engine

    entered = []

    class Pool(engine.ThreadPoolExecutor):
        def __enter__(self):
            entered.append(self._max_workers)
            return super().__enter__()

    monkeypatch.setattr(engine, "ThreadPoolExecutor", Pool)
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 9, "structure-main")
    stats = build_prerun_stats(dag, prerun(dag, 300, 9), 9)
    one = generate_table(dag, stats, CHUNK_ROWS + 100, cfg.noise, 9, threads=1)
    assert entered == []
    two = generate_table(dag, stats, CHUNK_ROWS + 100, cfg.noise, 9, threads=2)
    assert entered == [2] and one.row_count == two.row_count == 8_292
    for ca, cb in zip(one.columns, two.columns):
        assert ca.values.tobytes() == cb.values.tobytes()


def test_category_values_in_range():
    dag, stats, table = build(seed=12, rows=2000)
    for node, col in zip(dag.nodes, table.columns):
        if col.kind == "categorical":
            assert col.values.min() >= 0
            assert col.values.max() < node.category_count
        else:
            assert np.isfinite(col.values).all()


def test_targets_are_sinks():
    dag, _, table = build(seed=13)
    sinks = set(dag.sinks())
    for node, col in zip(dag.nodes, table.columns):
        assert (col.role == "target") == (node.index in sinks)


def test_root_mean_pooling_matches_distribution():
    from relgen.engine import RootDistribution
    from relgen.graphs import DagSpec, NodeSpec, classify_nodes
    from relgen.prerun import build_prerun_stats, prerun

    mu, sigma, n = 0.7, 1.3, 2
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": mu, "std": sigma}), pooling="mean"),
        NodeSpec(index=1, name="N1", activation="identity", weights=np.eye(n), pooling="mean"),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 1)}, hidden_dim=n))
    stats = build_prerun_stats(dag, prerun(dag, 100, 1), 1)
    rows = 100_000
    table = generate_table(dag, stats, rows, NoiseConfig(affected_fraction=0.0), 1)
    col = table.columns[0].values
    # column is the mean of n iid draws; its std is sigma/sqrt(n)
    tol = 4 * sigma / np.sqrt(n) / np.sqrt(rows)
    assert abs(col.mean() - mu) < tol


def test_overflowing_norm_pooling_raises():
    from relgen.engine import RootDistribution
    from relgen.graphs import DagSpec, NodeSpec, classify_nodes

    # Node values near 1e160 are finite, but their squares overflow the norm.
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 0.0, "std": 1e160}), pooling="mean"),
        NodeSpec(index=1, name="N1", activation="identity", weights=np.eye(2), pooling="norm"),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 1)}, hidden_dim=2))
    stats = build_prerun_stats(dag, prerun(dag, 100, 1), 1)
    with pytest.warns(RuntimeWarning), pytest.raises(NonFiniteValueError, match="norm pooling of node N1"):
        generate_table(dag, stats, 100, NoiseConfig(affected_fraction=0.0), 1)


def test_generate_requires_covering_stats():
    from relgen.errors import ContractViolationError
    from relgen.prerun import PrerunStats

    cfg = config_from_dict({})
    from relgen.graphs import sample_dag

    dag = sample_dag(cfg, "main", 21, "structure-main")
    empty = PrerunStats(quantiles={}, codebooks={}, num_presamples=0)
    with pytest.raises(ContractViolationError):
        generate_table(dag, empty, 10, cfg.noise, 21)
