import numpy as np
import pytest

from relgen.config import config_from_dict
from relgen.errors import InvalidParameterError, UndefinedMetricError
from relgen.evaluate import (
    auc_binary,
    build_key_aggregates,
    featurize_joined,
    featurize_main_only,
    fit_agg_norms,
    fit_feature_stats,
    knn_predict,
    map_aggregates,
    rmse,
    run_comparison,
    score,
    split,
)
from relgen.relational import build_schema, generate_relational
from relgen.serialize import report_to_dict
from relgen.tables import Column, Table


def rng(seed=0):
    return np.random.default_rng(seed)


def numeric_table(rows, name="x", role="feature"):
    return Table(columns=[Column(name, "numeric", role, np.asarray(rows, dtype=float))])


# --- split -----------------------------------------------------------------

def test_split_90_10():
    table = numeric_table(np.arange(100_000))
    train, test = split(table, 0.1)
    assert train.row_count == 90_000 and test.row_count == 10_000
    assert test.columns[0].values[0] == 90_000  # contiguous tail


def test_split_ten_rows():
    train, test = split(numeric_table(np.arange(10)), 0.1)
    assert train.row_count == 9 and test.row_count == 1


def test_split_full_fraction_rejected():
    with pytest.raises(InvalidParameterError):
        split(numeric_table(np.arange(10)), 1.0)


def test_split_empty_side_rejected():
    with pytest.raises(InvalidParameterError):
        split(numeric_table(np.arange(5)), 0.1)


# --- featurization -----------------------------------------------------------

def make_main_table():
    return Table(
        columns=[
            Column("f1", "numeric", "feature", np.array([1.0, 1.0, 1.0, 1.0])),
            Column("f2", "categorical", "feature", np.array([0, 1, 2, 0])),
            Column("y", "numeric", "target", np.array([0.0, 1.0, 2.0, 3.0])),
        ]
    )


def test_constant_column_standardizes_to_zero():
    table = make_main_table()
    stats = fit_feature_stats(table)
    fm = featurize_main_only(table, stats)
    f1_cols = [i for i, d in enumerate(fm.descriptors) if d.startswith("main:f1")]
    assert np.array_equal(fm.values[:, f1_cols], np.zeros((4, 1)))


def test_categorical_one_hot_width():
    table = make_main_table()
    fm = featurize_main_only(table, fit_feature_stats(table))
    assert sum(d.startswith("main:f2:onehot") for d in fm.descriptors) == 3


def test_unseen_category_encodes_as_zero_block():
    train = make_main_table()
    stats = fit_feature_stats(train)
    test = Table(
        columns=[
            Column("f1", "numeric", "feature", np.array([1.0])),
            Column("f2", "categorical", "feature", np.array([9])),
            Column("y", "numeric", "target", np.array([0.0])),
        ]
    )
    fm = featurize_main_only(test, stats)
    onehot = [i for i, d in enumerate(fm.descriptors) if "onehot" in d]
    assert np.array_equal(fm.values[:, onehot], np.zeros((1, 3)))
    assert np.isfinite(fm.values).all()


def test_no_target_leaks_into_descriptors():
    table = make_main_table()
    fm = featurize_main_only(table, fit_feature_stats(table))
    assert not any(":y" in d for d in fm.descriptors)


def make_add_table(keys, a_num, a_cat):
    return Table(
        columns=[
            Column("A0", "numeric", "feature", np.asarray(a_num, dtype=float)),
            Column("A1", "categorical", "feature", np.asarray(a_cat)),
            Column("C", "categorical", "feature", np.asarray(keys)),
        ]
    )


def test_single_match_aggregate_equals_row_encoding():
    add = make_add_table(keys=[5, 6], a_num=[2.5, 7.0], a_cat=[1, 0])
    agg = build_key_aggregates(add, "C")
    vec = agg.by_key[5]
    # columns: A0 mean, then A1 one-hot frequencies over observed {0, 1}
    assert vec[0] == 2.5
    assert np.array_equal(vec[1:], [0.0, 1.0])


def test_two_matches_average():
    add = make_add_table(keys=[5, 5], a_num=[1.0, 3.0], a_cat=[0, 1])
    agg = build_key_aggregates(add, "C")
    assert agg.by_key[5][0] == 2.0
    assert np.array_equal(agg.by_key[5][1:], [0.5, 0.5])


def test_missing_key_falls_back_to_global():
    add = make_add_table(keys=[1, 2], a_num=[0.0, 4.0], a_cat=[0, 0])
    agg = build_key_aggregates(add, "C")
    mapped = map_aggregates(np.array([99]), agg)
    assert mapped[0][0] == 2.0  # global mean
    assert np.isfinite(mapped).all()


def test_joined_concatenates_main_and_aggregates():
    main = make_main_table()
    main.columns.append(Column("C", "categorical", "feature", np.array([1, 2, 1, 2])))
    add = make_add_table(keys=[1, 2], a_num=[0.0, 4.0], a_cat=[0, 1])
    stats = fit_feature_stats(main)
    agg = build_key_aggregates(add, "C")
    norms = fit_agg_norms(main, agg, "C")
    fm = featurize_joined(main, stats, agg, "C", norms)
    base = featurize_main_only(main, stats)
    assert fm.values.shape[1] == base.values.shape[1] + len(agg.descriptors)
    assert fm.descriptors[: len(base.descriptors)] == base.descriptors


# --- kNN ---------------------------------------------------------------------

def brute_force_knn(train_X, train_y, test_X, k, task):
    """Independent reference: full distance matrix, same weighting rules."""
    out_reg = []
    out_scores = []
    classes = np.unique(train_y) if task == "classification" else None
    for t in test_X:
        d = np.sqrt(((train_X - t) ** 2).sum(axis=1))
        order = sorted(range(len(d)), key=lambda i: (d[i], i))[:k]
        dd = np.array([d[i] for i in order])
        yy = train_y[list(order)]
        if (dd == 0.0).any():
            keep = dd == 0.0
            w = keep.astype(float)
        else:
            w = 1.0 / (dd + 1e-12)
        if task == "regression":
            out_reg.append((w * yy).sum() / w.sum())
        else:
            out_scores.append([(w * (yy == c)).sum() / w.sum() for c in classes])
    if task == "regression":
        return np.array(out_reg)
    return np.array(out_scores), classes


def test_exact_match_returns_training_target():
    train_X = rng(1).normal(size=(50, 4))
    train_y = rng(2).normal(size=50)
    preds = knn_predict(train_X, train_y, train_X[7:8], k=10, task="regression")
    assert preds[0] == train_y[7]


def test_hand_weighted_mean():
    train_X = np.array([[1.0], [3.0]])
    train_y = np.array([0.0, 8.0])
    preds = knn_predict(train_X, train_y, np.array([[0.0]]), k=2, task="regression")
    assert preds[0] == pytest.approx(2.0, abs=1e-9)


def test_k_equal_to_train_size_matches_brute_force():
    train_X = rng(3).normal(size=(5, 3))
    train_y = rng(4).normal(size=5)
    test_X = rng(5).normal(size=(4, 3))
    mine = knn_predict(train_X, train_y, test_X, k=5, task="regression")
    ref = brute_force_knn(train_X, train_y, test_X, 5, "regression")
    assert np.allclose(mine, ref, atol=1e-9, rtol=0)


def test_knn_matches_brute_force_regression():
    train_X = rng(6).normal(size=(100, 6))
    train_y = rng(7).normal(size=100)
    test_X = np.concatenate([rng(8).normal(size=(17, 6)), train_X[[3, 50, 99]]])
    mine = knn_predict(train_X, train_y, test_X, k=10, task="regression")
    ref = brute_force_knn(train_X, train_y, test_X, 10, "regression")
    assert np.allclose(mine, ref, atol=1e-9, rtol=0)


def test_knn_matches_brute_force_classification():
    train_X = rng(9).normal(size=(100, 5))
    train_y = rng(10).integers(0, 3, size=100)
    test_X = np.concatenate([rng(11).normal(size=(15, 5)), train_X[[0, 42]]])
    mine_scores, mine_classes = knn_predict(train_X, train_y, test_X, k=10, task="classification")
    ref_scores, ref_classes = brute_force_knn(train_X, train_y, test_X, 10, "classification")
    assert np.array_equal(mine_classes, ref_classes)
    assert np.allclose(mine_scores, ref_scores, atol=1e-9, rtol=0)
    assert np.allclose(mine_scores.sum(axis=1), 1.0, atol=1e-12)


def test_knn_matches_brute_force_at_large_common_offset():
    # A shared offset of 1e7 cancels in an uncentred expanded square.
    train_X = rng(12).normal(size=(300, 4)) + 1e7
    test_X = rng(13).normal(size=(40, 4)) + 1e7
    y_reg = rng(14).normal(size=300)
    y_cls = rng(15).integers(0, 3, size=300)
    mine = knn_predict(train_X, y_reg, test_X, k=10, task="regression")
    assert np.allclose(mine, brute_force_knn(train_X, y_reg, test_X, 10, "regression"), atol=1e-9, rtol=0)
    scores, _ = knn_predict(train_X, y_cls, test_X, k=10, task="classification")
    ref_scores, _ = brute_force_knn(train_X, y_cls, test_X, 10, "classification")
    assert np.allclose(scores, ref_scores, atol=1e-9, rtol=0)


def test_k_larger_than_train_rejected():
    with pytest.raises(InvalidParameterError):
        knn_predict(np.zeros((3, 2)), np.zeros(3), np.zeros((1, 2)), k=4)


# --- metrics --------------------------------------------------------------------

def trapezoid_auc(scores, labels):
    """Independent reference: explicit ROC curve, trapezoidal integration."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    order = np.argsort(-scores, kind="mergesort")
    s, y = scores[order], labels[order]
    pos, neg = y.sum(), (~y).sum()
    tpr, fpr = [0.0], [0.0]
    tp = fp = 0
    i = 0
    while i < len(y):
        j = i
        while j + 1 < len(y) and s[j + 1] == s[i]:
            j += 1
        tp += y[i : j + 1].sum()
        fp += (~y[i : j + 1]).sum()
        tpr.append(tp / pos)
        fpr.append(fp / neg)
        i = j + 1
    return float(np.trapezoid(tpr, fpr))


def test_perfect_predictions_have_zero_rmse():
    y = rng(0).normal(size=100)
    assert rmse(y, y) == 0.0


def test_perfectly_separated_scores_have_auc_one():
    labels = np.array([0, 0, 0, 1, 1])
    scores = np.array([0.1, 0.2, 0.3, 0.8, 0.9])
    assert auc_binary(scores, labels) == 1.0


def test_rank_auc_matches_trapezoid():
    for seed in range(20):
        scores = rng(seed).normal(size=200)
        labels = rng(seed + 1000).integers(0, 2, size=200)
        if labels.min() == labels.max():
            continue
        assert auc_binary(scores, labels) == pytest.approx(
            trapezoid_auc(scores, labels), abs=1e-9
        )


def test_rank_auc_matches_trapezoid_with_ties():
    scores = np.round(rng(2).normal(size=200), 1)  # heavy ties
    labels = rng(3).integers(0, 2, size=200)
    assert auc_binary(scores, labels) == pytest.approx(trapezoid_auc(scores, labels), abs=1e-9)


def test_random_scores_have_half_auc():
    scores = rng(4).normal(size=5000)
    labels = rng(5).integers(0, 2, size=5000)
    assert abs(auc_binary(scores, labels) - 0.5) < 0.05


def test_single_class_truth_is_undefined():
    with pytest.raises(UndefinedMetricError):
        score((np.ones((3, 2)), np.array([0, 1])), np.array([1, 1, 1]), "classification")


# --- full comparison --------------------------------------------------------------

def small_dataset(latent_count=2, seed=5, data_seed=1, rows_main=400, rows_add=60):
    cfg = config_from_dict(
        {
            "master_seed": seed,
            "latent_count": latent_count,
            "main_graph": {"num_nodes": 8},
            "add_graph": {"num_nodes": 5},
        }
    )
    schema = build_schema(cfg)
    return generate_relational(schema, rows_main, rows_add, cfg.noise, 200, data_seed)


def test_ablation_flags_all_false():
    ds = small_dataset(latent_count=0)
    report = run_comparison(ds)
    assert report.targets
    assert all(not t.latently_affected for t in report.targets)


def test_latent_flags_present():
    ds = small_dataset(latent_count=2)
    report = run_comparison(ds)
    assert any(t.latently_affected for t in report.targets)


def test_empty_add_table_gives_identical_metrics():
    ds = small_dataset(rows_add=0)
    report = run_comparison(ds)
    for t in report.targets:
        assert t.main_only == pytest.approx(t.joined, abs=1e-12)


@pytest.mark.parametrize("kwargs", [{}, {"latent_count": 0, "seed": 7}])
def test_one_neighbor_search_per_condition(monkeypatch, kwargs):
    from relgen import evaluate

    calls = []
    search = evaluate._select_neighbors

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(evaluate, "_select_neighbors", counted)
    report = run_comparison(small_dataset(**kwargs))
    assert len(report.targets) > 1
    assert len(calls) == len(report.feature_widths) == 2


def test_report_metrics_pinned():
    # Fixed reference values: a change to eval results that keeps them
    # finite, and so passes every other eval test, fails here.
    expected = [
        ("M5", "RMSE", 0.15124651885832702, 0.15078703545537495),
        ("M6", "RMSE", 0.44780092112509257, 0.4444586033141009),
        ("M7", "AUC", 0.9823232323232324, 0.9848484848484849),
    ]
    report = run_comparison(small_dataset())
    got = [(t.column, t.metric, t.main_only, t.joined) for t in report.targets]
    assert [g[:2] for g in got] == [e[:2] for e in expected]
    for g, e in zip(got, expected):
        assert g[2] == pytest.approx(e[2], abs=1e-12, rel=0)
        assert g[3] == pytest.approx(e[3], abs=1e-12, rel=0)


def test_report_is_deterministic():
    ds = small_dataset()
    a = report_to_dict(run_comparison(ds))
    b = report_to_dict(run_comparison(ds))
    assert a == b


def test_metric_kinds_match_column_kinds():
    ds = small_dataset()
    report = run_comparison(ds)
    for t in report.targets:
        col = ds.main_table.column(t.column)
        assert col.role == "target"
        assert (t.metric == "AUC") == (col.kind == "categorical")
        if t.metric == "AUC":
            assert 0.0 <= t.main_only <= 1.0 and 0.0 <= t.joined <= 1.0
        else:
            assert t.main_only >= 0.0 and t.joined >= 0.0


def test_hard_labels_tie_to_lowest_class():
    from relgen.evaluate import hard_labels

    scores = np.array([[0.4, 0.4, 0.2], [0.1, 0.5, 0.4]])
    classes = np.array([3, 5, 9])
    assert np.array_equal(hard_labels(scores, classes), [3, 5])


def test_feature_width_mismatch_rejected():
    from relgen.errors import ContractViolationError

    with pytest.raises(ContractViolationError):
        knn_predict(np.zeros((5, 3)), np.zeros(5), np.zeros((2, 4)), k=2)
