import importlib

import numpy as np
import pytest

from relgen.config import config_from_dict
from relgen.engine import RootDistribution
from relgen.errors import DegenerateDataError, InvalidParameterError, NonFiniteValueError
from relgen.graphs import DagSpec, NodeSpec, classify_nodes, sample_dag
from relgen.prerun import (
    build_prerun_stats,
    compute_quantiles,
    count_distinct_rows,
    draw_index,
    fit_codebook,
    group_means,
    prerun,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def identity_chain(length=3, n=2):
    """Root feeding an identity chain, so every node mirrors the root."""
    nodes = [NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 0.0, "std": 1.0}), pooling="mean")]
    for i in range(1, length):
        nodes.append(
            NodeSpec(index=i, name=f"N{i}", activation="identity", weights=np.eye(n), pooling="mean")
        )
    dag = DagSpec(nodes=nodes, edges={(i, i + 1) for i in range(length - 1)}, hidden_dim=n)
    return classify_nodes(dag)


# --- quantiles -----------------------------------------------------------------

def test_quantile_interpolation_convention():
    samples = np.arange(10, dtype=float).reshape(10, 1)
    q = compute_quantiles(samples)
    assert q.q10[0] == pytest.approx(0.9, abs=1e-12)
    assert q.q90[0] == pytest.approx(8.1, abs=1e-12)


def test_constant_column_has_zero_spread():
    samples = np.full((20, 2), 3.25)
    q = compute_quantiles(samples)
    assert np.array_equal(q.q10, q.q90)


def test_too_few_samples_rejected():
    with pytest.raises(InvalidParameterError):
        compute_quantiles(np.zeros((1, 2)))


def test_quantile_coverage_for_continuous_root():
    dist = RootDistribution("normal", {"mean": 0.0, "std": 1.0})
    samples = rng(5).normal(0.0, 1.0, size=(1000, 2))
    q = compute_quantiles(samples)
    below = (samples < q.q10).mean(axis=0)
    assert np.all(below >= 0.05) and np.all(below <= 0.15)
    assert np.all(q.q10 <= q.q90)


# --- pre-run -------------------------------------------------------------------

def test_identity_chain_copies_root():
    dag = identity_chain()
    mats = prerun(dag, 100, seed=3)
    assert np.array_equal(mats[0], mats[1])
    assert np.array_equal(mats[0], mats[2])


def test_prerun_is_deterministic():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 4, "structure-main")
    a = prerun(dag, 200, seed=9)
    b = prerun(dag, 200, seed=9)
    for i in a:
        assert a[i].tobytes() == b[i].tobytes()


def test_prerun_shapes():
    dag = identity_chain(length=4)
    mats = prerun(dag, 57, seed=0)
    assert all(m.shape == (57, 2) for m in mats.values())


# --- k-means -------------------------------------------------------------------

def test_codebook_recovers_blob_means():
    centers = np.array([[0.0, 0.0], [5.0, 5.0]])
    pts = np.concatenate([rng(1).normal(c, 0.1, size=(200, 2)) for c in centers])
    cb = fit_codebook(pts, 2, rng(2))
    found = cb.centroids[np.argsort(cb.centroids[:, 0])]
    assert np.all(np.abs(found - centers) < 0.05)


def test_codebook_is_deterministic():
    pts = rng(3).normal(size=(300, 2))
    a = fit_codebook(pts, 7, rng(4))
    b = fit_codebook(pts, 7, rng(4))
    assert a.centroids.tobytes() == b.centroids.tobytes()


def test_centroids_ordered_by_first_assignment():
    pts = rng(5).normal(size=(400, 2))
    cb = fit_codebook(pts, 5, rng(6))
    labels = np.argmin(
        ((pts[:, None, :] - cb.centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    firsts = [np.flatnonzero(labels == j)[0] for j in np.unique(labels)]
    assert firsts == sorted(firsts)  # category j first appears before j+1


def test_constant_data_is_degenerate():
    pts = np.ones((50, 2))
    with pytest.raises(DegenerateDataError):
        fit_codebook(pts, 2, rng(0))


def test_k_reduced_to_distinct_count():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    cb = fit_codebook(pts, 4, rng(0))
    assert cb.k == 2
    assert cb.requested_k == 4


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_seeding_mass_raises():
    # Squared distances of 1e200 apart overflow to inf.
    with pytest.raises(NonFiniteValueError, match="k-means\\+\\+ seeding mass"):
        fit_codebook(np.array([[0.0], [1e200], [2e200], [3.0]]), 2, rng(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_lloyd_objective_raises():
    # The seeding distances are finite, but two rows of 1.7e308 sum to inf,
    # so a cluster mean and the next objective are not finite.
    pts = np.array([[1.7e308, 0.0], [1.7e308, 1.0], [1.7e308, 10.0], [1.7e308, 11.0]])
    with pytest.raises(NonFiniteValueError, match="k-means objective"):
        fit_codebook(pts, 2, rng(0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_in_prerun_names_the_node():
    nodes = [
        NodeSpec(index=0, name="N0", root_dist=RootDistribution("normal", {"mean": 0.0, "std": 1e200}), pooling="mean"),
        NodeSpec(index=1, name="N1", activation="identity", weights=np.eye(2), pooling="categorical", category_count=3),
    ]
    dag = classify_nodes(DagSpec(nodes=nodes, edges={(0, 1)}, hidden_dim=2))
    with pytest.raises(NonFiniteValueError, match="^node N1: "):
        build_prerun_stats(dag, prerun(dag, 100, 1), 1)


def test_k_below_two_rejected():
    with pytest.raises(InvalidParameterError):
        fit_codebook(rng(0).normal(size=(10, 2)), 1, rng(0))


def test_kmeans_objective_monotone():
    """Independent Lloyd trace: WCSS may never increase between iterations."""
    pts = rng(8).normal(size=(500, 2))
    cb = fit_codebook(pts, 6, rng(9))
    # replay Lloyd from the fitted centroids: one more assignment+update round
    # cannot increase the objective either
    d2 = ((pts[:, None, :] - cb.centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    before = d2[np.arange(len(pts)), labels].sum()
    updated = cb.centroids.copy()
    for j in range(cb.k):
        members = pts[labels == j]
        if len(members):
            updated[j] = members.mean(axis=0)
    d2b = ((pts[:, None, :] - updated[None, :, :]) ** 2).sum(axis=2)
    after = d2b[np.arange(len(pts)), np.argmin(d2b, axis=1)].sum()
    assert after <= before * (1 + 1e-9)


def mask_mean_lloyd(samples, k, generator, trace, empty, max_iter, tol):
    """Oracle: k-means as ``fit_codebook`` did it with one boolean mask per cluster.

    Same k-means++ seeding, then at most ``max_iter`` Lloyd steps whose
    centroids are ``samples[labels == j].mean(axis=0)``, until the largest
    shift drops below ``tol``, then a fresh labelling and a renumbering by
    first appearance in a Python loop. Appends each iteration's objective to
    ``trace`` and each cluster found empty to ``empty``.
    """

    def d2_to(points, centroids):
        return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)

    distinct = np.unique(samples, axis=0)
    k_eff = min(k, len(distinct))
    centroids = np.empty((k_eff, samples.shape[1]))
    centroids[0] = samples[int(generator.integers(len(samples)))]
    d2 = ((samples - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k_eff):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = distinct[d2_to(distinct, centroids[:j]).min(axis=1) > 0][0]
        else:
            centroids[j] = samples[int(generator.choice(len(samples), p=d2 / total))]
        d2 = np.minimum(d2, ((samples - centroids[j]) ** 2).sum(axis=1))
    for _ in range(max_iter):
        d2 = d2_to(samples, centroids)
        labels = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(len(samples)), labels].sum()))
        updated = centroids.copy()
        for j in range(k_eff):
            members = samples[labels == j]
            if len(members):
                updated[j] = members.mean(axis=0)
            else:
                empty.append(j)
        shift = float(np.sqrt(((updated - centroids) ** 2).sum(axis=1)).max())
        centroids = updated
        if shift < tol:
            break
    labels = np.argmin(d2_to(samples, centroids), axis=1)
    order = []
    for lab in labels.tolist():
        if lab not in order:
            order.append(lab)
    order.extend(j for j in range(k_eff) if j not in order)
    return centroids[order]


# Seven points on which Lloyd empties cluster 2 twice from generator seed 284.
EMPTIES_A_CLUSTER = np.array([[8.4, 0.0], [6.4, 0.8], [1.1, 8.6], [4.2, 9.0], [8.5, 9.0], [7.8, 1.0], [7.8, 7.3]])


@pytest.mark.parametrize(
    "samples, k, seed, k_fit, empties",
    [
        (rng(20).normal(size=(300, 2)), 7, 21, 7, False),
        (rng(22).normal(size=(1000, 2)), 47, 23, 47, False),
        (rng(24).standard_cauchy(size=(500, 2)), 12, 25, 12, False),
        (rng(26).normal(size=(400, 3)), 9, 27, 9, False),
        # one column: the mean then sums pairwise, not in sequence
        (rng(30).normal(size=(600, 1)), 8, 31, 8, False),
        (rng(28).integers(0, 3, size=(60, 2)).astype(float), 12, 29, 9, False),
        (EMPTIES_A_CLUSTER, 3, 284, 3, True),
    ],
    ids=["normal", "k47", "cauchy", "width3", "width1", "k-reduced", "empty-cluster"],
)
def test_fit_codebook_matches_mask_mean_lloyd(samples, k, seed, k_fit, empties):
    """Sort-once centroid update and renumbering: bit-equal centroids and objectives."""
    trace, want_trace, empty = [], [], []
    got = fit_codebook(samples, k, rng(seed), objective_trace=trace)
    want = mask_mean_lloyd(samples, k, rng(seed), want_trace, empty, max_iter=100, tol=1e-8)
    assert got.centroids.tobytes() == want.tobytes()
    assert trace == want_trace
    assert got.k == k_fit and bool(empty) == empties


@pytest.mark.parametrize(
    "max_iter, tol, iterations", [(2, 1e-8, 2), (100, np.inf, 1)], ids=["iteration-cap", "shift-below-tol"]
)
@pytest.mark.parametrize("seed", [40, 41, 42])
def test_fit_codebook_relabels_after_an_exit_on_cap_or_shift(monkeypatch, seed, max_iter, tol, iterations):
    """The exits on the iteration cap and on a small shift leave the last
    labels one update behind the centroids, so the renumbering must label
    the points afresh. (A stop on repeated labels has nothing to redo; the
    cases above end there.)"""
    module = importlib.import_module("relgen.prerun")  # ``relgen.prerun`` is also a function
    monkeypatch.setattr(module, "KMEANS_MAX_ITER", max_iter)
    monkeypatch.setattr(module, "KMEANS_TOL", tol)
    samples = rng(seed).normal(size=(1000, 2))
    trace, want_trace = [], []
    got = fit_codebook(samples, 47, rng(seed + 100), objective_trace=trace)
    want = mask_mean_lloyd(samples, 47, rng(seed + 100), want_trace, [], max_iter=max_iter, tol=tol)
    assert len(trace) == iterations
    assert got.centroids.tobytes() == want.tobytes()
    assert trace == want_trace


def test_draw_index_matches_rng_choice():
    """``draw_index`` copies ``Generator.choice``'s draw with ``p`` (numpy
    2.4.6): the same index and the same generator state after it, on 2,000
    random trials with zero weights and with one weight dominating the rest.
    It rests on numpy's internals, so an upgrade that changes them fails here
    before it changes a codebook."""
    source = rng(50)
    for trial in range(2000):
        m = int(source.integers(1, 80))
        p = source.random(m) ** int(source.integers(1, 6))
        if trial % 2:
            p[source.random(m) < 0.5] = 0.0
        if trial % 3 == 0:
            p[source.integers(m)] += 10.0 ** int(source.integers(3, 12))
        if p.sum() == 0.0:
            p[int(source.integers(m))] = 1.0
        p /= p.sum()
        seed = int(source.integers(2**63))
        ours, theirs = rng(seed), rng(seed)
        assert draw_index(p, ours) == theirs.choice(m, p=p)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_fit_codebook_takes_an_unused_point_when_distances_underflow():
    # (1e-200)^2 underflows to 0, so k-means++ sees no mass left after the
    # first pick and takes the distinct point no centroid equals.
    for seed in range(4):
        cb = fit_codebook(np.array([[0.0], [1e-200]]), 2, rng(seed))
        assert cb.k == 2 and len(np.unique(cb.centroids)) == 2


@pytest.mark.parametrize("width", [1, 2, 8, 9])
def test_group_means_match_mask_means_bit_for_bit(width):
    values = rng(width).normal(size=(500, width)) * 10.0 ** rng(width + 1).integers(-3, 4, size=(500, 1))
    labels = rng(width + 2).integers(0, 7, size=500)
    labels[labels == 4] = 5  # labels 4 and 7 get no rows
    values[labels == 3, 0] = -0.0  # both sums start from +0.0: label 3 averages to +0.0
    fill = rng(width + 3).normal(size=(8, width))
    means = group_means(values, labels, fill)
    for j in range(8):
        want = values[labels == j].mean(axis=0) if (labels == j).any() else fill[j]
        assert means[j].tobytes() == want.tobytes()
    assert not np.shares_memory(means, fill)


@pytest.mark.parametrize(
    "samples",
    [
        rng(60).integers(0, 3, size=(200, 2)).astype(float),
        rng(61).integers(0, 2, size=(50, 5)).astype(float),
        rng(62).normal(size=(300, 3)),
        np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [1.0, 0.0]]),
        np.array([[2.5], [2.5], [-0.0], [0.0]]),
        np.ones((4, 2)),
        np.empty((0, 2)),
    ],
    ids=["duplicates", "binary-width5", "all-distinct", "signed-zeros", "width1", "constant", "empty"],
)
def test_count_distinct_rows_matches_unique(samples):
    assert count_distinct_rows(samples) == len(np.unique(samples, axis=0))


# --- stats assembly --------------------------------------------------------------

def test_degenerate_categorical_demoted_to_mean():
    dag = identity_chain(length=2)
    dag.nodes[1].pooling = "categorical"
    dag.nodes[1].category_count = 3
    mats = {0: np.ones((50, 2)), 1: np.ones((50, 2))}
    stats = build_prerun_stats(dag, mats, seed=0)
    assert dag.nodes[1].pooling == "mean"
    assert stats.warnings and "demoted" in stats.warnings[0]


def test_stats_cover_all_nodes():
    cfg = config_from_dict({})
    dag = sample_dag(cfg, "main", 6, "structure-main")
    mats = prerun(dag, 300, seed=6)
    stats = build_prerun_stats(dag, mats, seed=6)
    assert stats.covers(dag)
    for node in dag.nodes:
        if node.pooling == "categorical":
            assert node.index in stats.codebooks
            assert stats.codebooks[node.index].k == node.category_count
