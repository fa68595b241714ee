import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from relgen import evaluate
from relgen.config import config_from_dict
from relgen.errors import InvalidParameterError, UndefinedMetricError
from relgen.evaluate import (
    AGG_SHARE,
    EvalConfig,
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


def plain_columns(X, spans):
    """``X`` without the columns of ``spans``: the rows the search takes
    with ``_one_hot`` for the dense rows ``X``."""
    return np.delete(X, [column for start, stop in spans for column in range(start, stop)], axis=1)


def dense_columns(X, spans, codes):
    """The dense rows of the plain rows ``X``, whose ``codes`` give each
    row's code in each of ``spans``: each block's one-hot columns put back
    at its span, all zero for a code as large as the block."""
    codes = np.asarray(codes).reshape(len(X), len(spans))
    width = X.shape[1] + sum(stop - start for start, stop in spans)
    out, plain = np.zeros((len(X), width)), np.ones(width, dtype=bool)
    for (start, stop), code in zip(spans, codes.T):
        plain[start:stop] = False
        out[:, start:stop] = code[:, None] == np.arange(stop - start)
    out[:, plain] = X
    return out


def dense_features(features):
    """The dense rows of a ``FeatureMatrix``."""
    names = list(features.codes)
    codes = np.column_stack([features.codes[name] for name in names]) if names else np.zeros((len(features.values), 0))
    return dense_columns(features.values, [features.spans[name] for name in names], codes)


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
    start, stop = fm.spans["f1"]
    assert np.array_equal(dense_features(fm)[:, start:stop], np.zeros((4, 1)))


def test_categorical_one_hot_width():
    table = make_main_table()
    fm = featurize_main_only(table, fit_feature_stats(table))
    start, stop = fm.spans["f2"]
    assert stop - start == 3
    assert fm.codes["f2"].tolist() == [0, 1, 2, 0]
    assert np.array_equal(dense_features(fm)[:, start:stop], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])


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
    start, stop = fm.spans["f2"]
    assert fm.codes["f2"].tolist() == [3]
    assert np.array_equal(dense_features(fm)[:, start:stop], np.zeros((1, 3)))
    assert np.isfinite(fm.values).all()


def test_no_target_leaks_into_spans():
    table = make_main_table()
    fm = featurize_main_only(table, fit_feature_stats(table))
    # The spans name the two features and tile every dense column, so the
    # target has none; the matrix holds the one numeric column.
    assert fm.spans == {"f1": (0, 1), "f2": (1, 4)}
    assert fm.values.shape[1] == 1 and dense_features(fm).shape[1] == 4


def test_target_only_table_featurizes_to_no_columns():
    table = Table(columns=[Column("y", "numeric", "target", np.array([0.0, 1.0, 2.0]))])
    fm = featurize_main_only(table, fit_feature_stats(table))
    assert fm.values.shape == (3, 0) and fm.spans == {}


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
    row, fallback = map_aggregates(np.array([5]), agg)
    vec = agg.table[row[0]]
    assert fallback.tolist() == [False]
    # columns: A0 mean, then A1 one-hot frequencies over observed {0, 1}
    assert vec[0] == 2.5
    assert np.array_equal(vec[1:], [0.0, 1.0])


def test_two_matches_average():
    add = make_add_table(keys=[5, 5], a_num=[1.0, 3.0], a_cat=[0, 1])
    agg = build_key_aggregates(add, "C")
    vec = agg.table[map_aggregates(np.array([5]), agg)[0][0]]
    assert vec[0] == 2.0
    assert np.array_equal(vec[1:], [0.5, 0.5])


def test_missing_key_falls_back_to_global():
    add = make_add_table(keys=[1, 2], a_num=[0.0, 4.0], a_cat=[0, 0])
    agg = build_key_aggregates(add, "C")
    row, fallback = map_aggregates(np.array([99, 2]), agg)
    mapped = agg.table[row]
    assert fallback.tolist() == [True, False]
    assert mapped[0][0] == 2.0  # global mean
    assert np.isfinite(mapped).all()


def test_agg_norms_standardize_numeric_columns_on_the_training_head():
    table = np.array([[1.0, 0.5], [3.0, 0.25], [9.0, 1.0]])
    agg = evaluate.KeyAggregates(np.array([1, 2]), table, np.array([True, False]))
    # One training row reads each of the first two rows, none the last.
    fit_agg_norms(agg, np.array([1, 1, 0]))
    # Mean 2 and std 1 of the first two rows; the frequency column stays raw.
    assert np.array_equal(agg.table, [[-1.0, 0.5], [1.0, 0.25], [7.0, 1.0]])


@pytest.mark.parametrize("width", [6, 0])
def test_weighted_moments_equal_those_of_the_repeated_rows(width):
    # Seven key rows and an unread fallback row far from the rest: columns
    # at a 1e8 common offset, where a mean's rounding shows, 0/1 columns
    # and normal ones; some keys are read by no training row. The reference
    # is exact: numpy's own variance of the repeated rows is off by up to
    # 1e-14 at that offset.
    gen = rng(3)
    table = np.concatenate(
        [1e8 + gen.normal(size=(8, 2)), (gen.random((8, 2)) < 0.5).astype(float), gen.normal(size=(8, 2))], axis=1
    )[:, :width]
    table[-1] = 1e12
    counts = np.array([3, 0, 40, 1, 0, 7, 12, 0])
    mean, var = evaluate._weighted_moments(table, counts)
    exact_mean, exact_var = [], []
    for column in np.repeat(table, counts, axis=0).T:
        values = [Fraction(v) for v in column.tolist()]
        exact_mean.append(sum(values) / len(values))
        exact_var.append(sum((v - exact_mean[-1]) ** 2 for v in values) / len(values))
    assert mean.shape == var.shape == (width,)
    np.testing.assert_allclose(mean, np.array(exact_mean, dtype=float), rtol=1e-14, atol=0)
    np.testing.assert_allclose(var, np.array(exact_var, dtype=float), rtol=1e-14, atol=0)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_agg_weight_equals_the_variances_of_the_materialized_training_rows():
    # The CLI's SMALL profile at seed 4, plus four main columns whose
    # encoded variance a std alone does not give: a constant whose mean
    # rounds (std about 1e-16), a column with 0 < std < STD_FLOOR, one near
    # +-1e200, whose squares overflow, and a categorical with one training
    # category. The closed forms equal the variances of the training rows
    # the join block and the main block materialize.
    from test_cli import SMALL

    cfg = config_from_dict({**SMALL, "master_seed": 4, "rows_main": 600})
    dataset = generate_relational(
        build_schema(cfg), cfg.rows_main, cfg.rows_add, cfg.noise, cfg.num_presamples, cfg.master_seed
    )
    main, gen = dataset.main_table, rng(9)
    one_category = np.where(np.arange(main.row_count) < 540, 3, 4)
    main.columns += [
        Column("E0", "numeric", "feature", np.full(main.row_count, 0.7)),
        Column("E1", "numeric", "feature", 1e-14 * gen.normal(size=main.row_count)),
        Column("E2", "numeric", "feature", 1e200 * gen.choice([-1.0, 1.0], main.row_count)),
        Column("E3", "categorical", "feature", one_category),
    ]
    train, _ = split(main, EvalConfig().test_fraction)
    key = dataset.schema.merged.node(dataset.schema.coupling_index).name
    agg = build_key_aggregates(dataset.add_table, key)
    row = map_aggregates(main.column(key).values, agg)[0]
    counts = np.bincount(row[: train.row_count], minlength=len(agg.table))
    fit_agg_norms(agg, counts)
    stats = fit_feature_stats(train)
    X, A = dense_features(featurize_main_only(train, stats)), agg.table[row[: train.row_count]]
    assert X[:, stats.spans["E0"][0]].std() == 0.0 < np.std(train.column("E0").values)
    assert 0.0 < stats.numeric["E1"][1] < evaluate.STD_FLOOR and stats.numeric["E2"][1] == np.inf
    assert len(stats.categories["E3"]) == 1
    expected = min(1.0, np.sqrt(AGG_SHARE * X.var(axis=0).sum() / A.var(axis=0).sum()))
    assert stats.variance == pytest.approx(X.var(axis=0).sum(), rel=1e-13)
    assert expected < 1.0
    assert evaluate.fit_agg_weight(stats, agg, counts) == pytest.approx(expected, rel=1e-13)


def test_joined_concatenates_main_and_aggregates():
    main = make_main_table()
    main.columns.append(Column("C", "categorical", "feature", np.array([1, 2, 1, 2])))
    add = make_add_table(keys=[1, 2], a_num=[0.0, 4.0], a_cat=[0, 1])
    stats = fit_feature_stats(main)
    agg = build_key_aggregates(add, "C")
    row = map_aggregates(main.column("C").values, agg)[0]
    fit_agg_norms(agg, np.bincount(row, minlength=len(agg.table)))
    base = featurize_main_only(main, stats)
    fm = featurize_joined(base, agg, row)
    width = base.values.shape[1]
    assert fm.values.shape[1] == width + agg.table.shape[1]
    assert fm.spans == base.spans
    assert np.array_equal(fm.values[:, :width], base.values)
    assert np.array_equal(fm.values[:, width:], agg.table[row])
    # Rows past the first gather chunk, weighted, each IEEE product as a
    # product of the gathered rows would round it.
    many = np.arange(2 * evaluate._PAIR_CHUNK + 5) % len(agg.table)
    no_main = evaluate.FeatureMatrix(np.zeros((len(many), 0)), {}, {})
    assert np.array_equal(featurize_joined(no_main, agg, many, 0.3).values, 0.3 * agg.table[many])


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


@pytest.mark.parametrize("labels", [[True, True, True], [False, False, False]], ids=["all-positive", "all-negative"])
def test_auc_of_single_class_labels_is_undefined(labels):
    with pytest.raises(UndefinedMetricError, match="both classes"):
        auc_binary(np.array([0.2, 0.5, 0.9]), np.array(labels))


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


def test_report_states_fallback_share():
    ds = small_dataset(rows_add=3)
    report = run_comparison(ds)
    train, test = split(ds.main_table, EvalConfig().test_fraction)
    present = set(ds.add_table.column("C").values.tolist())
    for side, rows in (("train", train), ("test", test)):
        expected = np.mean([key not in present for key in rows.column("C").values.tolist()])
        assert report.fallback_share[side] == expected
    assert 0.0 < report.fallback_share["train"] < 1.0
    assert report_to_dict(report)["fallback_share"] == report.fallback_share
    assert run_comparison(small_dataset(rows_add=0)).fallback_share == {"train": 1.0, "test": 1.0}


@pytest.mark.parametrize("kwargs", [{}, {"latent_count": 0, "seed": 7}])
def test_one_neighbor_search_per_condition(monkeypatch, kwargs):
    from relgen import evaluate

    calls = []
    search = evaluate._select_neighbors

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(evaluate, "_select_neighbors", counted)
    ds = small_dataset(**kwargs)
    report = run_comparison(ds)
    assert len(report.targets) > 1
    # One search serves both conditions: the joined rows and their main width.
    assert len(calls) == 1 and len(report.feature_widths) == 2
    train_X, test_X, _, main_width, spans, codes = calls[0]
    start, stop = spans[0]
    # The plain columns and the blocks at their spans make the joined width.
    assert train_X.shape[1] == test_X.shape[1]
    assert train_X.shape[1] + sum(b - a for a, b in spans) == report.feature_widths["joined"]
    assert main_width == report.feature_widths["main_only"]
    # The search is given the coupling key's one-hot block.
    keys = split(ds.main_table, EvalConfig().test_fraction)[0].column("C").values
    assert stop - start == len(np.unique(keys)) > 1
    dense = dense_columns(train_X, spans, codes[: len(train_X)])
    assert np.array_equal(dense[:, start:stop], keys[:, None] == np.unique(keys))


def test_report_metrics_pinned():
    # Fixed reference values: a change to eval results that keeps them
    # finite, and so passes every other eval test, fails here. They depend on
    # the generated data too, so they are pinned at random stream version 2.
    expected = [
        ("M5", "RMSE", 0.09534400723864363, 0.09208216829179582),
        ("M6", "RMSE", 0.41350299242380095, 0.3884576233632534),
        ("M7", "AUC", 0.9733333333333334, 0.9706666666666667),
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


def test_feature_width_mismatch_rejected():
    from relgen.errors import ContractViolationError

    with pytest.raises(ContractViolationError):
        knn_predict(np.zeros((5, 3)), np.zeros(5), np.zeros((2, 4)), k=2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["train", "test"])
def test_non_finite_features_rejected(value, side):
    from relgen.errors import ContractViolationError

    X = {"train": rng(4).normal(size=(30, 3)), "test": rng(5).normal(size=(4, 3))}
    X[side][1, 2] = value
    with pytest.raises(ContractViolationError, match="non-finite"):
        knn_predict(X["train"], np.zeros(30), X["test"], k=10)


def reference_aggregate_block(ds, train_keys, test_keys, main_train):
    """Independent per-row reference of the weighted, standardized join block.

    Each row averages the additional rows with its key (all rows if none),
    numeric columns are standardized by the training rows' mapped mean and
    std, and the block is weighted by min(1, sqrt(AGG_SHARE * v_main / v_agg)).
    """
    add = ds.add_table
    key = ds.schema.merged.node(ds.schema.coupling_index).name
    add_keys = add.column(key).values
    blocks, numeric = [], []
    for col in add.columns:
        if col.name == key:
            continue
        if col.kind == "numeric":
            blocks.append(np.asarray(col.values, dtype=float).reshape(-1, 1))
            numeric.append(True)
        else:
            cats = sorted(set(col.values.tolist()))
            onehot = [[float(v == c) for c in cats] for v in col.values.tolist()]
            blocks.append(np.array(onehot).reshape(-1, len(cats)))
            numeric.extend([False] * len(cats))
    encoded = np.concatenate(blocks, axis=1)

    def row(key):
        match = encoded[add_keys == key]
        return match.mean(axis=0) if len(match) else encoded.mean(axis=0)

    raw_train = np.array([row(k) for k in train_keys])
    raw_test = np.array([row(k) for k in test_keys])
    mean, std = raw_train.mean(axis=0), raw_train.std(axis=0)
    for raw in (raw_train, raw_test):
        for j in np.flatnonzero(numeric):
            raw[:, j] = (raw[:, j] - mean[j]) / max(std[j], 1e-12)
    v_main = main_train.var(axis=0).sum()
    v_agg = raw_train.var(axis=0).sum()
    weight = min(1.0, np.sqrt(AGG_SHARE * v_main / v_agg)) if v_main > 0 and v_agg > 0 else 1.0
    return weight * raw_train, weight * raw_test


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("rows_add", [60, 400, 3])
def test_joined_values_match_per_row_reference(monkeypatch, seed, rows_add):
    from relgen import evaluate

    searched = []
    search = evaluate.knn_predict

    def captured(train_X, train_y, test_X, **kwargs):
        searched.append((train_X, test_X, kwargs["main_width"]))
        return search(train_X, train_y, test_X, **kwargs)

    monkeypatch.setattr(evaluate, "knn_predict", captured)
    ds = small_dataset(seed=seed, rows_add=rows_add)
    cfg = evaluate.EvalConfig()
    run_comparison(ds, cfg)
    ((joined_train, joined_test, main_width),) = searched
    train, test = split(ds.main_table, cfg.test_fraction)
    stats = fit_feature_stats(train)
    assert main_width == stats.width
    # The search's rows lead with the main plain columns.
    main_train = featurize_main_only(train, stats)
    width = main_train.values.shape[1]
    assert np.array_equal(joined_train[:, :width], main_train.values)
    assert np.array_equal(joined_test[:, :width], featurize_main_only(test, stats).values)
    ref_train, ref_test = reference_aggregate_block(
        ds, train.column("C").values, test.column("C").values, dense_features(main_train)
    )
    assert np.allclose(joined_train[:, width:], ref_train, rtol=1e-12, atol=1e-12)
    assert np.allclose(joined_test[:, width:], ref_test, rtol=1e-12, atol=1e-12)


def test_main_table_is_featurized_once_per_eval(monkeypatch):
    # Every evaluate function the benchmark traces still runs in an eval,
    # and the main table is featurized, mapped and joined once for both
    # splits.
    from test_bench_names import LAYERS, patched_names

    from relgen import evaluate

    names = [attr for module, attr in patched_names(LAYERS.read_text(encoding="utf-8")) if module == "evaluate"]
    calls = {name: 0 for name in names}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(evaluate, name, counted(name, getattr(evaluate, name)))
    evaluate.run_comparison(small_dataset())
    assert [name for name, count in calls.items() if count == 0] == []
    for name in ("run_comparison", "fit_feature_stats", "featurize_main_only", "build_key_aggregates",
                 "map_aggregates", "fit_agg_norms", "fit_agg_weight", "featurize_joined", "knn_predict"):
        assert calls[name] == 1, name


def test_no_main_only_matrix_outlives_featurization(monkeypatch):
    # The main features are written into the leading columns of the one
    # joined matrix, and the search reads both conditions from it: the
    # main block is a view of the matrix the search is handed.
    from relgen import evaluate

    made = []
    featurize, search = evaluate.featurize_main_only, evaluate.knn_predict

    def tracked(*args, **kwargs):
        features = featurize(*args, **kwargs)
        made.append(features.values)
        return features

    def checked(train_X, train_y, test_X, **kwargs):
        (values,) = made
        assert np.shares_memory(values, train_X) and np.shares_memory(values, test_X)
        assert values.base is train_X.base is test_X.base
        assert values.base.shape == (len(train_X) + len(test_X), train_X.shape[1])
        return search(train_X, train_y, test_X, **kwargs)

    monkeypatch.setattr(evaluate, "featurize_main_only", tracked)
    monkeypatch.setattr(evaluate, "knn_predict", checked)
    run_comparison(small_dataset())


def captured_search(monkeypatch, dataset):
    """The arguments and the result of the one neighbour search an eval of
    ``dataset`` makes."""
    from relgen import evaluate

    searches = []
    search = evaluate._select_neighbors

    def kept(*args):
        searches.append((args, search(*args)))
        return searches[-1][1]

    monkeypatch.setattr(evaluate, "_select_neighbors", kept)
    run_comparison(dataset)
    (args, result), = searches
    return args, result


def test_search_with_the_key_settle_equals_the_search_without(monkeypatch):
    # Eight keys over 900 training rows: most test rows settle inside their
    # own key and the rest take the block screen. Both conditions must equal
    # the search without a key span, which settles none.
    from relgen import evaluate

    cfg = config_from_dict(
        {"master_seed": 5, "main_graph": {"num_nodes": 8}, "add_graph": {"num_nodes": 5}, "coupling_categories": [8, 0]}
    )
    dataset = generate_relational(build_schema(cfg), 1000, 60, cfg.noise, 200, 1)
    args, (got, work) = captured_search(monkeypatch, dataset)
    train_X, test_X, k, main_width, spans, codes = args
    assert spans[0][1] - spans[0][0] == 8 and 0.3 <= (work.stage < 3).mean() < 1.0
    n = len(train_X)
    dense_train, dense_test = dense_columns(train_X, spans, codes[:n]), dense_columns(test_X, spans, codes[n:])
    plain, plain_work = evaluate._select_neighbors(dense_train, dense_test, k, main_width)
    assert (plain_work.stage == 3).all()
    for (idx, dist), (ref_idx, ref_dist) in zip(got, plain):
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)


def exact_neighbours(train_X, test_X, k):
    """Brute force: each test row's k nearest training rows, d^2 summed
    from explicit differences, ranked by distance, ties by training index."""
    idx = np.empty((len(test_X), k), dtype=np.intp)
    dist = np.empty((len(test_X), k))
    for i, row in enumerate(test_X):
        d = np.sqrt(((train_X - row) ** 2).sum(axis=1))
        idx[i] = np.lexsort((np.arange(len(d)), d))[:k]
        dist[i] = d[idx[i]]
    return idx, dist


@pytest.mark.parametrize("unseen", [False, True], ids=["as-generated", "unseen-categories"])
def test_search_on_a_generated_dataset_equals_brute_force(monkeypatch, unseen):
    # The CLI's SMALL profile at seed 4 with 600 main rows: 540 training
    # rows over 84 keys, most of them with fewer than k rows, three other
    # one-hot spans, and one test row whose key training never saw. Every
    # stage ranks some test row. The variant gives a test row its cell
    # settled an unseen code in another span, and one the key range settled
    # an unseen key: an all-zero block, and the block's width as its code.
    from test_cli import SMALL

    from relgen import evaluate

    cfg = config_from_dict({**SMALL, "master_seed": 4, "rows_main": 600})
    dataset = generate_relational(
        build_schema(cfg), cfg.rows_main, cfg.rows_add, cfg.noise, cfg.num_presamples, cfg.master_seed
    )
    args, (out, work) = captured_search(monkeypatch, dataset)
    train_X, test_X, k, main_width, spans, codes = args
    (key_span, *other_spans), n = spans, len(train_X)
    assert len(other_spans) == 3 and (work.stage[:, None] == [1, 2, 3]).any(axis=0).all()
    if unseen:
        cell_row, key_row = np.flatnonzero(work.stage == 1)[0], np.flatnonzero(work.stage == 2)[0]
        codes = codes.copy()
        for row, j, (start, stop) in [(cell_row, 1, other_spans[0]), (key_row, 0, key_span)]:
            codes[n + row, j] = stop - start
        out, work = evaluate._select_neighbors(train_X, test_X, k, main_width, spans, codes)
        assert work.stage[cell_row] > 1 and work.stage[key_row] == 3
        assert (work.stage[:, None] == [1, 2, 3]).any(axis=0).all()
    # The brute force reads the dense rows, an unseen code's block all zero.
    dense_train, dense_test = dense_columns(train_X, spans, codes[:n]), dense_columns(test_X, spans, codes[n:])
    for (idx, dist), width in zip(out, [main_width, dense_train.shape[1]]):
        ref_idx, ref_dist = exact_neighbours(dense_train[:, :width], dense_test[:, :width], k)
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)


@pytest.mark.parametrize("split_side", ["all-rows", "test-split"])
def test_featurizer_codes_equal_the_span_codes_of_its_matrix(split_side):
    # The search takes the featurizer's codes as its one-hot blocks, and
    # nothing checks them at run time. The matrix must hold the standardized
    # numerics alone, in span order, and each code must be the position of
    # the row's category among the training ones; an unseen category gets
    # the block's width. The CLI's SMALL profile at seed 4 has four
    # categorical features, and its test split a key training never saw.
    from test_cli import SMALL

    cfg = config_from_dict({**SMALL, "master_seed": 4, "rows_main": 600})
    dataset = generate_relational(
        build_schema(cfg), cfg.rows_main, cfg.rows_add, cfg.noise, cfg.num_presamples, cfg.master_seed
    )
    train, test = split(dataset.main_table, EvalConfig().test_fraction)
    stats = fit_feature_stats(train)
    rows = dataset.main_table if split_side == "all-rows" else test
    features = featurize_main_only(rows, stats)
    assert len(stats.categories) == 4
    numeric = [name for name in features.spans if name in stats.numeric]
    assert features.values.shape[1] == len(numeric) == len(features.spans) - 4
    for column, name in enumerate(numeric):
        standardized = evaluate._standardize(rows.column(name).values, *stats.numeric[name])
        assert np.array_equal(features.values[:, column], standardized)
    unseen = 0
    for name, cats in stats.categories.items():
        start, stop = features.spans[name]
        code, values = features.codes[name], rows.column(name).values
        assert stop - start == len(cats) and ((0 <= code) & (code <= len(cats))).all()
        missing = code == len(cats)
        assert np.array_equal(cats[code[~missing]], values[~missing])
        assert not np.isin(values[missing], cats).any()
        unseen += missing.sum()
    assert unseen > 0


def test_eval_peak_memory_is_the_plain_matrix_plus_a_few_blocks():
    # A 20,000-row eval of the benchmark's pinned profile. Eval holds one
    # matrix of the plain columns, the main numerics and the aggregate
    # block (3.5 MB), and no one-hot column: the search takes each block as
    # codes. Past that matrix it holds a few blocks of at most the value
    # budget: the screen's copy of the non-key main columns, a block of
    # screen values, one dense chunk of pair differences and their
    # temporaries. Five budgets leave about 25% headroom; a dense one-hot
    # matrix (23.7 MB at the joined width) would exceed them.
    cfg = config_from_dict(
        {
            "master_seed": 0,
            "main_graph": {"num_nodes": 12},
            "add_graph": {"num_nodes": 6},
            "coupling_categories": [100, 0],
        }
    )
    dataset = generate_relational(build_schema(cfg), 20_000, 500, cfg.noise, cfg.num_presamples, 0)
    tracemalloc.start()
    try:
        report = run_comparison(dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.feature_widths == {"main_only": 130, "joined": 148}
    main = dataset.main_table.columns
    plain = sum(col.kind == "numeric" and col.role != "target" for col in main) + 148 - 130
    assert plain == 22
    assert peak <= dataset.main_table.row_count * plain * 8 + 5 * evaluate._BLOCK_VALUES * 8
