"""Property tests: ``knn_predict`` against a brute-force sorted-distance oracle.

The inputs are the hard cases for an expanded-square search: duplicate
training rows, exact distance ties (small-integer lattices), a large common
offset on every feature, exact matches, and k equal to the training size.
The joined form is checked on main rows plus a per-key block, the shape of
the joined features: equal aggregate rows under distinct keys, the fallback
row and an all-zero block. Its main condition must equal the plain call on
the leading columns. The screen by key code is checked on main rows
holding a one-hot key block, handed to the search with each row's code as
eval hands them, against the same search without the block, with own-key
k-th values at and just below the threshold below which a test row settles
inside its key.
"""

import tracemalloc

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from relgen.errors import ContractViolationError  # noqa: E402
from relgen import evaluate  # noqa: E402
from relgen.evaluate import _select_neighbors, knn_predict  # noqa: E402

from test_evaluate import assert_brute_force, brute_force_knn, dense_columns, plain_columns  # noqa: E402

OFFSETS = [0.0, 1.0, -3e3, 1e5, 1e7, -1e7]


def one_hot(spans, codes):
    """The search's ``_one_hot`` for the dense blocks at ``spans``: each
    block's size, and ``codes``, each training row's and then each test
    row's code per block, -1 for a row without a one there, which the
    search reads as the block's size."""
    sizes, codes = [stop - start for start, stop in spans], np.asarray(codes).reshape(-1, len(spans))
    return sizes, np.where(codes < 0, sizes, codes)


def plain_form(train_J, test_J, width, spans=(), codes=None):
    """What the search takes for the dense rows ``train_J`` and ``test_J``,
    whose main rows are their leading ``width`` columns and whose one-hot
    blocks at ``spans`` lie among those: the plain columns, the main width
    counted in them, and ``_one_hot``, empty without spans."""
    blocks = one_hot(spans, codes) if len(spans) else ()
    width -= sum(blocks[0]) if blocks else 0
    return plain_columns(train_J, spans), plain_columns(test_J, spans), width, blocks


def searched(train_J, test_J, k, width, spans=(), codes=None):
    """``_select_neighbors`` of the dense rows ``train_J`` and ``test_J``,
    handed the blocks as eval hands them (``plain_form``)."""
    train_P, test_P, main_width, blocks = plain_form(train_J, test_J, width, spans, codes)
    return _select_neighbors(train_P, test_P, k, main_width, *blocks)


def assert_searched_brute_force(out, train_J, test_J, k, width, spans=(), codes=None):
    """``assert_brute_force`` of what ``searched`` returned for the dense rows."""
    train_P, test_P, main_width, blocks = plain_form(train_J, test_J, width, spans, codes)
    assert_brute_force(out, train_P, test_P, k, main_width, *blocks)


@st.composite
def knn_cases(draw):
    """Training rows from a small pool, test rows with exact copies, and targets.

    The values, the targets and the pool and training sizes come from a
    drawn seed, as in :func:`joined_cases`. Value-by-value draws are mostly
    zeros and Hypothesis favours the smallest sizes, so most cases would
    have one distinct training row or a constant target, where a wrong
    neighbour set changes no prediction.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 4))
    lattice = draw(st.booleans())

    def rows(count):
        if lattice:
            return rng.integers(-3, 4, size=(count, width)).astype(float)
        return rng.uniform(-10.0, 10.0, size=(count, width))

    # Training rows drawn with replacement from a small pool: duplicates.
    distinct = rows(int(rng.integers(1, 13)))
    n = int(rng.integers(1, 31))
    train_X = distinct[rng.integers(0, len(distinct), size=n)]
    copies = train_X[rng.integers(0, n, size=draw(st.integers(0, 3)))]
    test_X = np.concatenate([rows(draw(st.integers(1, 6))), copies])
    offset = draw(st.sampled_from(OFFSETS))
    k = n if draw(st.integers(0, 4)) == 0 else draw(st.integers(1, n))
    y_reg, y_cls = rng.uniform(-5.0, 5.0, size=n), rng.integers(0, 4, size=n)
    return train_X + offset, test_X + offset, k, y_reg, y_cls


@settings(max_examples=300, deadline=None)
@given(knn_cases())
def test_knn_matches_brute_force_oracle(case):
    train_X, test_X, k, y_reg, y_cls = case
    got = knn_predict(train_X, y_reg, test_X, k=k, task="regression")
    ref = brute_force_knn(train_X, y_reg, test_X, k, "regression")
    assert np.allclose(got, ref, atol=1e-9, rtol=0)

    scores, classes = knn_predict(train_X, y_cls, test_X, k=k, task="classification")
    ref_scores, ref_classes = brute_force_knn(train_X, y_cls, test_X, k, "classification")
    assert np.array_equal(classes, ref_classes)
    assert np.allclose(scores, ref_scores, atol=1e-9, rtol=0)


@settings(max_examples=100, deadline=None)
@given(knn_cases())
def test_multi_target_equals_single_target_calls(case):
    train_X, test_X, k, y_reg, y_cls = case
    multi = knn_predict(
        train_X, [y_reg, y_cls, y_reg], test_X, k=k, task=["regression", "classification", "regression"]
    )
    assert len(multi) == 3
    assert np.array_equal(multi[0], knn_predict(train_X, y_reg, test_X, k=k, task="regression"))
    assert np.array_equal(multi[2], multi[0])
    scores, classes = knn_predict(train_X, y_cls, test_X, k=k, task="classification")
    assert np.array_equal(multi[1][0], scores) and np.array_equal(multi[1][1], classes)


@st.composite
def joined_cases(draw):
    """Main rows plus a per-key block: the joined matrices ``featurize_joined`` builds,
    and the main width.

    Hypothesis draws the structure; the values come from a drawn seed, since
    value-by-value draws are mostly zeros and would seldom let the block
    reorder the neighbours. Training rows repeat, lattice values tie, and
    training keys index a small aggregate table whose last row is the
    fallback. Table rows come from a small pool, so distinct keys can share
    an aggregate row, and the whole table may be zero, as for an empty
    additional table.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 4))
    lattice = draw(st.booleans())

    def rows(count):
        if lattice:
            return rng.integers(-3, 4, size=(count, width)).astype(float)
        return rng.uniform(-10.0, 10.0, size=(count, width))

    distinct = rows(draw(st.integers(1, 12)))
    n = draw(st.integers(1, 40))
    train_X = distinct[rng.integers(0, len(distinct), size=n)]
    copies = train_X[rng.integers(0, n, size=draw(st.integers(0, 3)))]
    test_X = np.concatenate([rows(draw(st.integers(1, 6))), copies])
    k = n if draw(st.integers(0, 4)) == 0 else draw(st.integers(1, n))

    n_keys = draw(st.integers(1, 4))
    pool = rng.integers(-8, 9, size=(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    table = draw(st.sampled_from([1.0, 0.3, 0.05])) * pool[rng.integers(0, len(pool), size=n_keys + 1)]
    if draw(st.integers(0, 4)) == 0:
        table = np.zeros_like(table)
    offset = draw(st.sampled_from(OFFSETS))
    train_J = np.concatenate([train_X, table[rng.integers(0, n_keys + 1, size=n)]], axis=1) + offset
    test_J = np.concatenate([test_X, table[rng.integers(0, n_keys + 1, size=len(test_X))]], axis=1) + offset
    # Distinct targets, so a wrong neighbour set shows in the predictions.
    y_reg, y_cls = rng.normal(size=n), rng.integers(0, 4, size=n)
    return train_J, test_J, width, k, y_reg, y_cls


@settings(max_examples=300, deadline=None)
@given(joined_cases())
def test_joined_search_matches_brute_force_oracle(case):
    train_J, test_J, width, k, y_reg, y_cls = case
    train_X, test_X = train_J[:, :width], test_J[:, :width]
    main, got = knn_predict(train_J, y_reg, test_J, k=k, task="regression", main_width=width)
    assert np.array_equal(main, knn_predict(train_X, y_reg, test_X, k=k, task="regression"))
    assert np.allclose(got, brute_force_knn(train_J, y_reg, test_J, k, "regression"), atol=1e-9, rtol=0)

    (main_scores, main_classes), (scores, classes) = knn_predict(
        train_J, y_cls, test_J, k=k, task="classification", main_width=width
    )
    single_scores, single_classes = knn_predict(train_X, y_cls, test_X, k=k, task="classification")
    assert np.array_equal(main_scores, single_scores) and np.array_equal(main_classes, single_classes)
    ref_scores, ref_classes = brute_force_knn(train_J, y_cls, test_J, k, "classification")
    assert np.array_equal(classes, ref_classes)
    assert np.allclose(scores, ref_scores, atol=1e-9, rtol=0)


def test_identical_training_rows_stay_within_one_training_matrix():
    # Every training row and key is the same, so every (test, training)
    # pair is a candidate of both conditions; the pair distances must still
    # be gathered in bounded chunks. In the second case the main rows end in
    # a 100-wide one-hot key block, as at K_C = 100, shared by every
    # training row; the test rows hold that key, another one and none.
    n, rest_width, block_width, k = 3000, 8, 56, 10
    rng = np.random.default_rng(0)
    for key_width in (0, 100):
        keys = np.eye(key_width)[[3, 3, 7]] if key_width else np.zeros((3, 0))
        keys[2] = 0.0
        row = np.concatenate([rng.normal(size=rest_width), keys[0]])
        block = rng.normal(size=block_width)
        train_X = np.tile(row, (n, 1))
        train_J = np.tile(np.concatenate([row, block]), (n, 1))
        rest = np.stack([row[:rest_width], row[:rest_width] + 0.5, rng.normal(size=rest_width)])
        test_X = np.concatenate([rest, keys], axis=1)
        test_J = np.concatenate([test_X, np.stack([block, 0 * block, block])], axis=1)
        y = rng.normal(size=n)
        spans = [(rest_width, rest_width + key_width)] if key_width else []
        train_P, test_P, main_width, blocks = plain_form(
            train_J, test_J, train_X.shape[1], spans, [3] * n + [3, 7, -1]
        )
        tracemalloc.start()
        try:
            main, joined = knn_predict(
                train_P, y, test_P, k=k, task="regression", main_width=main_width, _one_hot=blocks
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * train_J.shape[1] * 8
        if key_width:
            # The screen holds the non-key columns only: no full-width,
            # key-sorted copy of the training rows sits beside the pairs.
            assert peak <= n * (train_J.shape[1] + train_X.shape[1]) * 8
        assert np.allclose(main, brute_force_knn(train_X, y, test_X, k, "regression"), atol=1e-9, rtol=0)
        assert np.allclose(joined, brute_force_knn(train_J, y, test_J, k, "regression"), atol=1e-9, rtol=0)


def test_main_width_must_lie_in_the_columns():
    # Three main columns, the last two a one-hot key, then two joined
    # columns that repeat the key block.
    rng = np.random.default_rng(1)
    keys = np.eye(2)[rng.integers(0, 2, size=24)]
    train_J = np.concatenate([rng.normal(size=(24, 1)), keys, keys], axis=1)
    train_J, test_J = train_J[:20], train_J[20:]
    y = rng.normal(size=20)
    for width in (1, 3, 5):
        knn_predict(train_J, y, test_J, k=3, main_width=width)
    for width in (0, -1, 6):
        with pytest.raises(ContractViolationError, match="main width"):
            knn_predict(train_J, y, test_J, k=3, main_width=width)
    # A main table whose every feature is categorical: blocks of 4 and 3
    # columns and no plain main column, then two joined columns. Main width
    # 0 is its main rows; past the two plain columns lies none.
    codes = np.column_stack([rng.integers(0, 5, size=24), rng.integers(0, 4, size=24)])
    plain = rng.normal(size=(24, 2))
    blocks = one_hot([(0, 4), (4, 7)], codes)
    main, joined = knn_predict(plain[:20], y, plain[20:], k=3, main_width=0, _one_hot=blocks)
    dense = dense_columns(plain, [(0, 4), (4, 7)], codes)
    for got, width in [(main, 7), (joined, 9)]:
        ref = brute_force_knn(dense[:20, :width], y, dense[20:, :width], 3, "regression")
        assert np.allclose(got, ref, atol=1e-9, rtol=0)
    for width in (-1, 3, 9):
        with pytest.raises(ContractViolationError, match="main width"):
            knn_predict(plain[:20], y, plain[20:], k=3, main_width=width, _one_hot=blocks)


def test_joined_tie_at_the_upper_bound_stays_a_candidate():
    # Test row at the origin, k = 1. Row 1 is the main-nearest (main d^2 1,
    # block d^2 9), so the joined bound is 10. Row 0 ties it in the joined
    # metric with main d^2 10 and an equal block, and wins on index; the far
    # rows move the centre so its expanded square rounds above 10.
    X = np.array([[1.0, 3.0], [1.0, 0.0], [999.0, 1003.0], [1003.0, 999.0], [997.0, 1001.0]])
    E = np.array([[0.0], [3.0], [0.0], [0.0], [0.0]])
    train_J, test_J = np.hstack([X, E]), np.zeros((1, 3))
    y = np.arange(5.0)
    main, joined = knn_predict(train_J, y, test_J, k=1, task="regression", main_width=2)
    assert main.tolist() == [1.0] and joined.tolist() == [0.0]



@st.composite
def keyed_cases(draw):
    """Joined rows whose main part holds a one-hot key block, the main width,
    and the block's span with each row's key code, -1 for none (``one_hot``).

    The shape ``run_comparison`` searches: the appended block is the key's
    aggregate row, and a row without a key (an all-zero block) gets the
    fallback row. The values come from a drawn seed, as in
    :func:`joined_cases`. The training rows share one key, or are sorted by
    key and value, or come in runs of one key around one value: there every
    fourth row of the key-sorted training rows misses most of the nearest
    ones. Lattice values and a small pool of rows make exact ties across key
    boundaries (two keys differ by exactly 2 in d^2), training sets of up to
    60 rows often put k above n // 4, and ``OFFSETS`` move every column but
    the key block. In the "edge" layout the fresh test rows hold key 0 at one
    point, every other training row lies at that point, and key 0's rows lie
    at main d^2 exactly the settle threshold from it, or just below: 2, or 1
    where some training row has no key. A jittered appended block differs
    row by row, so a row's joined k-th can lie beyond the threshold where
    its main k-th does not.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["random", "shared", "sorted", "runs", "edge"]))
    width = draw(st.integers(2 if layout == "edge" else 1, 3))
    n_keys = draw(st.integers(1, 5))
    lattice = layout == "edge" or draw(st.booleans())

    def rows(count):
        if lattice:
            return rng.integers(-2, 3, size=(count, width)).astype(float)
        return rng.uniform(-3.0, 3.0, size=(count, width))

    n = int(rng.integers(1, 61))
    pool = rows(int(rng.integers(1, 13)))
    train_rest = pool[rng.integers(0, len(pool), size=n)]
    # Key -1 is a row without a key: an all-zero block.
    train_keys = rng.integers(-1, n_keys, size=n)
    if layout == "shared":
        train_keys[:] = rng.integers(0, n_keys)
    elif layout == "sorted":
        by = np.lexsort((train_rest[:, 0], train_keys))
        train_rest, train_keys = train_rest[by], train_keys[by]
    elif layout == "runs":
        run = np.arange(n) // int(rng.integers(1, 9))
        train_keys = rng.integers(0, n_keys, size=run[-1] + 1)[run]
        train_rest = rows(run[-1] + 1)[run]
        if not lattice:
            train_rest += rng.uniform(-0.1, 0.1, size=train_rest.shape)
    copies = rng.integers(0, n, size=draw(st.integers(0, 3)))
    fresh = draw(st.integers(1, 6))
    test_rest = np.concatenate([rows(fresh), train_rest[copies]])
    test_keys = np.concatenate([rng.integers(-1, n_keys, size=fresh), train_keys[copies]])
    k = [n, int(rng.integers(1, n + 1)), int(rng.integers(1, n // 4 + 2))][draw(st.integers(0, 2))]
    if layout == "edge":
        # Over the key block, main d^2 is 0 within key 0, 2 to another key
        # and 1 to a row without one; key 0's rows add the rest of the
        # threshold along (1, 1) or (1, 0), or just less.
        train_keys = rng.integers(-draw(st.integers(0, 1)), n_keys, size=n)
        step = np.zeros(width)
        step[: 1 if (train_keys == -1).any() else 2] = draw(st.sampled_from([1.0, 1.0 - 2.0**-20]))
        test_rest[:fresh], test_keys[:fresh] = rows(1), 0
        train_rest = test_rest[0] + (train_keys == 0)[:, None] * step
        test_rest[fresh:], test_keys[fresh:] = train_rest[copies], train_keys[copies]
        k = int(rng.integers(1, max(1, (train_keys == 0).sum()) + 1))

    at = draw(st.integers(0, width))
    offset = draw(st.sampled_from(OFFSETS))
    agg_pool = rng.integers(-8, 9, size=(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    table = draw(st.sampled_from([1.0, 0.3, 0.05])) * agg_pool[rng.integers(0, len(agg_pool), size=n_keys + 1)]
    jitter = draw(st.sampled_from([0.0, 0.0, 1.0]))

    def joined(rest, keys):
        onehot = (keys[:, None] == np.arange(n_keys)).astype(float)
        block = table[keys] + jitter * rng.integers(-1, 2, size=(len(keys), table.shape[1]))
        return np.concatenate([rest[:, :at] + offset, onehot, rest[:, at:] + offset, block + offset], axis=1)

    train_J, test_J = joined(train_rest, train_keys), joined(test_rest, test_keys)
    y_reg, y_cls = rng.normal(size=n), rng.integers(0, 4, size=n)
    blocks = [(at, at + n_keys)], np.concatenate([train_keys, test_keys])
    return train_J, test_J, width + n_keys, k, blocks, y_reg, y_cls


def pairs_by_stage(work):
    """Each stage's measured (test row, training row) pairs, read from the
    search's record of its work.

    Asserts that every test row was ranked, that no stage measures a pair
    twice, and that every row a stage measures is ranked last by that stage
    or a later one: a pair measured in two stages is a row's that the
    earlier stage handed on.
    """
    stages = {}
    for stage, rows, cand in work.pairs:
        stages.setdefault(stage, []).extend(zip(rows.tolist(), cand.tolist()))
    assert set(work.stage.tolist()) <= {1, 2, 3}
    for stage, pairs in stages.items():
        assert len(set(pairs)) == len(pairs)
        assert all(work.stage[row] >= stage for row, _ in pairs)
    return stages


def measured_calls(work):
    """The stage and the sorted training rows of each full-width measurement."""
    pairs_by_stage(work)
    return [(stage, sorted(cand.tolist())) for stage, _, cand in work.pairs]


@settings(max_examples=300, deadline=None)
@given(keyed_cases())
def test_key_screen_matches_the_plain_search_and_the_oracle(case):
    # The search with and without the key block each equal the brute force
    # by their pair distance, and so lie within rounding of each other.
    train_J, test_J, width, k, blocks, y_reg, y_cls = case
    train_X, test_X = train_J[:, :width], test_J[:, :width]
    for given in [(), blocks]:
        out, work = searched(train_J, test_J, k, width, *given)
        pairs_by_stage(work)
        assert_searched_brute_force(out, train_J, test_J, k, width, *given)

    train_P, test_P, main_width, one_hot_blocks = plain_form(train_J, test_J, width, *blocks)
    kwargs = {"main_width": main_width, "_one_hot": one_hot_blocks}
    main, got = knn_predict(train_P, y_reg, test_P, k=k, task="regression", **kwargs)
    assert np.allclose(main, brute_force_knn(train_X, y_reg, test_X, k, "regression"), atol=1e-9, rtol=0)
    assert np.allclose(got, brute_force_knn(train_J, y_reg, test_J, k, "regression"), atol=1e-9, rtol=0)
    for (scores, classes), (X, T) in zip(
        knn_predict(train_P, y_cls, test_P, k=k, task="classification", **kwargs),
        [(train_X, test_X), (train_J, test_J)],
    ):
        ref_scores, ref_classes = brute_force_knn(X, y_cls, T, k, "classification")
        assert np.array_equal(classes, ref_classes)
        assert np.allclose(scores, ref_scores, atol=1e-9, rtol=0)


@st.composite
def spanned_cases(draw):
    """Joined rows whose main part holds a one-hot key block, one to three
    other one-hot blocks and up to two numeric columns, in a drawn order;
    the main width, and the blocks' spans, the key's first, with each row's
    codes (``one_hot``).

    The shape ``run_comparison`` searches, with every categorical feature's
    span. The values come from a drawn seed, as in :func:`joined_cases`.
    Codes come from alphabets of one to three, so many training rows share
    every code but the key and the other-code ranges are long. A code of -1
    is an all-zero block: in a training row it lowers the least cost of a
    differing code to 1, in a test row it is an unseen category. Keys have
    as few as one training row, fewer than k. Lattice numerics put main d^2
    on exact integers, so the k-th often ties at the thresholds 2 and 4.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_keys = draw(st.integers(1, 4))
    widths = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))]
    n_num = draw(st.integers(0, 2))
    lattice = draw(st.booleans())
    unseen = draw(st.sampled_from([0.0, 0.0, 0.1]))
    n = int(rng.integers(1, 81))

    def codes(count, width):
        code = rng.integers(0, width, size=count)
        code[rng.random(count) < unseen] = -1
        return code

    def numeric(count):
        if lattice:
            return rng.integers(-1, 2, size=(count, n_num)).astype(float)
        return rng.uniform(-1.5, 1.5, size=(count, n_num))

    fresh, copies = draw(st.integers(1, 6)), rng.integers(0, n, size=draw(st.integers(0, 3)))
    train = [codes(n, n_keys), *(codes(n, w) for w in widths)]
    test = [np.concatenate([codes(fresh, w), c[copies]]) for w, c in zip([n_keys, *widths], train)]
    train_num = numeric(n)
    test_num = np.concatenate([numeric(fresh), train_num[copies]])
    k = [n, int(rng.integers(1, n + 1)), int(rng.integers(1, min(n, 12) + 1))][draw(st.integers(0, 2))]

    offset = draw(st.sampled_from(OFFSETS))
    table = rng.integers(-2, 3, size=(n_keys + 1, draw(st.integers(1, 2)))) * draw(st.sampled_from([1.0, 0.3]))
    jitter = draw(st.sampled_from([0.0, 0.0, 1.0]))
    order = rng.permutation(1 + len(widths) + n_num)
    spans, start = {}, 0
    for block in order:
        stop = start + ([n_keys, *widths][block] if block <= len(widths) else 1)
        spans[block], start = (start, stop), stop

    def joined(blocks, num):
        keys = blocks[0]
        main = np.empty((len(keys), start))
        for block, (a, b) in spans.items():
            if block <= len(widths):
                main[:, a:b] = blocks[block][:, None] == np.arange(b - a)
            else:
                main[:, a] = num[:, block - len(widths) - 1] + offset
        agg = table[keys] + jitter * rng.integers(-1, 2, size=(len(keys), table.shape[1]))
        return np.concatenate([main, agg + offset], axis=1)

    y_reg, y_cls = rng.normal(size=n), rng.integers(0, 4, size=n)
    row_codes = np.concatenate([np.column_stack(train), np.column_stack(test)])
    blocks = [spans[j] for j in range(len(widths) + 1)], row_codes
    return joined(train, train_num), joined(test, test_num), start, k, blocks, y_reg, y_cls


@settings(max_examples=300, deadline=None)
@given(spanned_cases())
def test_other_spans_match_the_plain_search_and_the_oracle(case):
    # The search without blocks, with the key's and with every block each
    # equal the brute force by their pair distance, and so lie within
    # rounding of each other.
    train_J, test_J, width, k, (spans, codes), y_reg, y_cls = case
    train_X, test_X = train_J[:, :width], test_J[:, :width]
    for given in [(), (spans[:1], codes[:, :1]), (spans, codes)]:
        out, work = searched(train_J, test_J, k, width, *given)
        pairs_by_stage(work)
        assert_searched_brute_force(out, train_J, test_J, k, width, *given)

    train_P, test_P, main_width, blocks = plain_form(train_J, test_J, width, spans, codes)
    kwargs = {"main_width": main_width, "_one_hot": blocks}
    main, got = knn_predict(train_P, y_reg, test_P, k=k, task="regression", **kwargs)
    assert np.allclose(main, brute_force_knn(train_X, y_reg, test_X, k, "regression"), atol=1e-9, rtol=0)
    assert np.allclose(got, brute_force_knn(train_J, y_reg, test_J, k, "regression"), atol=1e-9, rtol=0)
    for (scores, classes), (X, T) in zip(
        knn_predict(train_P, y_cls, test_P, k=k, task="classification", **kwargs),
        [(train_X, test_X), (train_J, test_J)],
    ):
        ref_scores, ref_classes = brute_force_knn(X, y_cls, T, k, "classification")
        assert np.array_equal(classes, ref_classes)
        assert np.allclose(scores, ref_scores, atol=1e-9, rtol=0)


# The key's and the other code's columns in ``coded_rows``.
CODED_SPANS = [(2, 4), (4, 6)]


def coded_rows(rows):
    """Joined rows [num, num, key (2 columns), other code (2 columns), appended 0]
    from (key, other code, num, num) tuples; a code of -1 is an all-zero block."""
    out = np.zeros((len(rows), 7))
    for i, (key, other, a, b) in enumerate(rows):
        out[i, :2] = a, b
        if key >= 0:
            out[i, 2 + key] = 1.0
        if other >= 0:
            out[i, 4 + other] = 1.0
    return out


@pytest.mark.parametrize(
    "test_row, train_rows, k, stages, settles",
    [
        # Own-key rows at main d^2 2 (another code) and other-key rows
        # sharing the code at 2: the cell is empty, the row settles on both
        # ranges, and the rows differing in both, at 4, are never measured.
        ((0, 0, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 1, 0, 0)] * 4 + [(1, 0, 0, 0)] * 3, 4, (1, 2), True),
        # The k-th over both ranges is exactly 4, the threshold: rows 0 and
        # 1, which differ in both codes, tie with it and win on index.
        ((0, 0, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 1, 1, 1)] * 4, 4, (1, 2), False),
        # The same where the k-th reads one rounding step below 4: only the
        # rounding margin keeps the row unsettled.
        ((0, 0, 0, 2.5), [(1, 1, 0, 2.5)] + [(0, 1, 1, 3.5)] * 4, 4, (1, 2), False),
        # Rows 0 and 1 lack the other code, so they are at 3, and the
        # threshold is 3: a k-th at 3 does not settle.
        ((0, 0, 0, 0), [(1, -1, 0, 0)] * 2 + [(0, 1, 1, 0)] * 2 + [(1, 0, 1, 0)], 2, (1, 2), False),
        # The test row's other code is unseen, so it has no cell, and a row
        # differing in the key and the code is at 3, below the own key's
        # k-th, 3.5; the row keeps the full screen.
        ((0, -1, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 0, 1.5, 0.5)] * 2, 2, (2,), False),
        # The cell holds one row at 0, fewer than k: the row settles on both
        # ranges, with its cell's row and the first two at 2.
        ((0, 0, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 1, 0, 0)] * 2 + [(1, 0, 0, 0)] * 2 + [(0, 0, 0, 0)], 3, (1, 2), True),
        # The cell's k-th is exactly 2, the cell's threshold: row 2, of the
        # own key and another code, ties with it and wins on index, so the
        # cell must not settle the row; both ranges do.
        ((0, 0, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 1, 0, 0)] + [(0, 0, 1, 1)] * 2, 2, (1, 2), True),
        # An empty cell, and an own key of one row, fewer than k: neither
        # stage settles the row.
        ((0, 0, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 1, 0, 0)] + [(1, 0, 0, 0)] * 2, 2, (1,), False),
        # The cell's k-th is 0.25: the row settles there, and every pair
        # measured is of the cell.
        ((0, 0, 0, 0), [(1, 1, 0, 0)] * 2 + [(0, 1, 0, 0)] * 2 + [(1, 0, 0, 0)] * 2 + [(0, 0, 0, 0.5)] * 3, 2, (1,), True),
        # The cell's ties at main d^2 1 read a rounding step apart, as the
        # training mean is inexact: only the rounding margin keeps rows 2 and
        # 3, the lower indices, among the cell's candidates.
        ((0, 0, 0, 0), [(1, 1, 0, 1), (1, 1, 0, 0)] + [(0, 0, 0, 1)] * 2 + [(0, 0, 0, -1)] * 2 + [(0, 0, 0, 0)], 3, (1,), True),
    ],
    ids=[
        "tie-at-2",
        "kth-at-4",
        "kth-rounded-below-4",
        "row-without-code",
        "unseen-code",
        "cell-below-k",
        "cell-kth-at-2",
        "empty-cell-small-key",
        "settled-in-cell",
        "cell-ties-rounded-apart",
    ],
)
def test_other_code_range_settles_below_its_threshold_only(test_row, train_rows, k, stages, settles):
    train_J, test_J = coded_rows(train_rows), coded_rows([test_row])
    codes = [row[:2] for row in [*train_rows, test_row]]
    got, work = searched(train_J, test_J, k, 6, CODED_SPANS, codes)
    # A settled row is ranked last by the last stage it read, any other by
    # the block screen.
    assert work.stage.tolist() == [stages[-1] if settles else 3]
    assert tuple(stage for stage, _ in work.reads) == stages
    # Stage 1 reads the cell; stage 2 the rows sharing the key or, for a row
    # with a code, the other code.
    cell = {i for i, row in enumerate(train_rows) if row[:2] == test_row[:2]}
    near = {i for i, row in enumerate(train_rows) if row[0] == test_row[0] or row[1] == test_row[1] >= 0}
    assert [read for _, read in work.reads] == [[len(cell), len(near)][stage - 1] for stage, _ in work.reads]
    measured = [row for pairs in pairs_by_stage(work).values() for _, row in pairs]
    d2 = ((train_J - test_J) ** 2).sum(axis=1)
    nearest = np.lexsort((np.arange(len(d2)), d2))[:k]
    for idx, dist in got:
        assert idx.tolist() == [nearest.tolist()] and dist.tolist() == [np.sqrt(d2[nearest]).tolist()]
    if settles:
        assert not {0, 1} & set(measured)
    if settles and stages == (1,):
        assert set(measured) <= cell


def test_key_screen_measures_no_row_beyond_the_bound():
    # The test row has key 0 and value 0, and forty training rows equal it,
    # so with k = 5 both conditions' bound is 0. The same key at value 1, no
    # key at value 0 (d^2 1 each) and key 1 at value 0 (d^2 2) lie beyond
    # it, and the search measures only the forty pairs within it.
    train_J = np.concatenate(
        [
            np.repeat([0.0, 1.0, 0.0, 0.0], 40)[:, None],
            np.repeat([[1, 0], [1, 0], [0, 0], [0, 1]], 40, axis=0),
            np.zeros((160, 1)),
        ],
        axis=1,
    )
    test_J = np.array([[0.0, 1.0, 0.0, 0.0]])
    blocks = [(1, 3)], [*np.repeat([0, 0, -1, 1], 40), 0]
    ((idx, dist), (joined_idx, joined_dist)), work = searched(train_J, test_J, 5, 3, *blocks)
    assert idx.tolist() == joined_idx.tolist() == [[0, 1, 2, 3, 4]]
    assert dist.tolist() == joined_dist.tolist() == [[0.0] * 5]
    assert work.stage.tolist() == [2]
    assert sorted(row for _, row in pairs_by_stage(work)[2]) == list(range(40))


def test_lex_code_orders_rows_past_the_int64_range():
    # Eight digits below 1,000 span 10^24 codes, past int64: the codes are
    # ranked before they overflow, and still order the rows as their digit
    # tuples do, equal tuples alike, with the last digit last.
    rng = np.random.default_rng(4)
    columns = rng.integers(0, 1000, size=(8, 300))
    columns[:, 150:] = columns[:, :150]
    columns[7, 200:] = rng.integers(0, 1000, size=100)
    code = evaluate._lex_code(list(columns), [1000] * 8)
    order = np.lexsort(columns[::-1])
    assert (np.diff(code[order]) >= 0).all()
    same = (np.diff(columns[:, order], axis=1) == 0).all(axis=0)
    assert np.array_equal(np.diff(code[order]) == 0, same)
    assert np.array_equal(code % 1000, columns[7])


def test_own_key_bound_measures_only_the_keys_nearest_rows():
    # Forty training rows at value 0, sorted by key: key 0 once, key 1 three
    # times, key 2 the rest. Every fourth of them holds key 0 or 2, d^2 2
    # from the test row of key 1, so the strided bound is 2 and would admit
    # all forty; the own key's third smallest is 0, and only its three rows
    # are measured. The appended block repeats per key, as the join's does.
    keys = np.repeat([0, 1, 2], [1, 3, 36])
    train_J = np.concatenate([np.zeros((40, 1)), np.eye(3)[keys], 0.5 * keys[:, None]], axis=1)
    test_J = np.array([[0.0, 0.0, 1.0, 0.0, 0.5]])
    blocks = [(1, 4)], [*keys, 1]
    ((idx, dist), (joined_idx, joined_dist)), work = searched(train_J, test_J, 3, 4, *blocks)
    assert idx.tolist() == joined_idx.tolist() == [[1, 2, 3]]
    assert dist.tolist() == joined_dist.tolist() == [[0.0] * 3]
    assert measured_calls(work) == [(2, [1, 2, 3]), (2, [])]


@pytest.mark.parametrize(
    "far, shifts, joined, joined_dist, measured",
    [
        (False, [0.0], [[0, 1]], [[np.sqrt(2.0), 2.0]], [(2, [1, 2, 3]), (2, []), (3, [1, 2, 3]), (3, [0])]),
        (True, [0.0], [[0, 4]], [[np.sqrt(2.0), 1.5]], [(2, [1, 2, 3]), (2, []), (3, [1, 2, 3]), (3, [0, 4])]),
        (True, [0.0, 0.05, -0.05, 0.1] * 10, None, None, None),
    ],
    ids=["other-key", "own-key-past-threshold", "many-far-rows"],
)
def test_joined_neighbour_between_the_own_and_the_strided_limit(far, shifts, joined, joined_dist, measured):
    # Keys as above, k = 2. The own key's rows are at main d^2 0 and joined
    # d^2 4, so the key range ranks the test row with joined limit 4, past
    # the settle threshold 2, and hands it on to the block screen. The key-0
    # row, main d^2 2 and joined d^2 2, lies beyond the main limit, 6 from
    # the key-2 rows, and is the joined nearest; only the block screen reads
    # it. With ``far``, a fourth key-1 row (training index 4) has rest 1.5
    # and an appended block of 0: main d^2 2.25, beyond the threshold, and
    # joined d^2 2.25. Both stages read it from their values, but only the
    # block screen measures it: the key range leaves the joined candidates
    # of a row it hands on unread. Many test rows, their rest shifted by up to 0.1, are
    # all ranked in one block by each stage; they match the search without a
    # key span.
    keys = np.repeat([0, 1, 2], [1, 4, 35] if far else [1, 3, 36])
    rest = np.where(keys == 2, 2.0, 0.0)
    block = np.where(keys == 1, 2.0, 0.0)
    if far:
        rest[4], block[4] = 1.5, 0.0
    train_J = np.concatenate([rest[:, None], np.eye(3)[keys], block[:, None]], axis=1)
    test_J = np.zeros((len(shifts), 5))
    test_J[:, 0], test_J[:, 2] = shifts, 1.0
    plain, _ = _select_neighbors(train_J, test_J, 2, 4)
    got, work = searched(train_J, test_J, 2, 4, [(1, 4)], [*keys, *[1] * len(shifts)])
    # One ranking of the block by each stage: a main and a joined
    # measurement apiece.
    calls = measured_calls(work)
    assert [stage for stage, _ in calls] == [2, 2, 3, 3] and (work.stage == 3).all()
    for (idx, dist), (ref_idx, ref_dist) in zip(got, plain):
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)
    if measured is not None:
        (idx, _), (joined_idx, got_dist) = got
        assert idx.tolist() == [[1, 2]] and joined_idx.tolist() == joined
        assert got_dist.tolist() == joined_dist
        assert calls == measured


def test_joined_bound_from_the_main_candidates_rescreens_nothing():
    # Test row at the origin, k = 2. Row 0 is the main-nearest but far in
    # the appended block (joined d^2 100); rows 1 and 2 are main candidates
    # at d^2 1 with an equal block, so the second smallest joined d^2 among
    # the candidates is 1. The largest over the main neighbours, rows 0 and
    # 1, is 100 and would screen rows 3 to 5 (main d^2 4, 9, 16) again.
    main = np.array([0.0, 1.0, -1.0, 2.0, 3.0, 4.0])
    train_J = np.stack([main, [10.0, 0, 0, 0, 0, 0]], axis=1)
    ((idx, dist), (joined_idx, joined_dist)), work = _select_neighbors(train_J, np.zeros((1, 2)), 2, 1)
    assert idx.tolist() == [[0, 1]] and joined_idx.tolist() == [[1, 2]]
    assert joined_dist.tolist() == [[1.0, 1.0]]
    assert measured_calls(work) == [(3, [0, 1, 2]), (3, [])]


def test_rows_beyond_the_main_limit_are_screened_without_a_block_copy():
    # Training rows 0, 1, ..., n - 1 on a line and 128 test rows, one full
    # test block, between them; the appended block adds 32^2 to every
    # joined d^2, so each row's joined limit exceeds its main limit and the
    # strided one. Copying the block's screen values for those rows would
    # add n * 128 * 8 bytes to the buffer of as many.
    n, k = 4096, 10
    train_J = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    test_J = np.stack([100.5 + 30.0 * np.arange(128), np.full(128, 32.0)], axis=1)
    y = np.arange(n, dtype=float)
    tracemalloc.start()
    try:
        main, joined = knn_predict(train_J, y, test_J, k=k, task="regression", main_width=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 128 * n * 8
    assert np.allclose(main, brute_force_knn(train_J[:, :1], y, test_J[:, :1], k, "regression"), atol=1e-9, rtol=0)
    assert np.allclose(joined, brute_force_knn(train_J, y, test_J, k, "regression"), atol=1e-9, rtol=0)


def test_settled_rows_measure_no_pair_outside_their_key():
    # Five keys of forty training rows within main d^2 of about 0.1 of
    # each other, whatever the key, and an appended block equal within a
    # key: every test row of those keys settles in both conditions, and
    # must measure only rows of its key. Key 5 has two training rows, fewer
    # than k, and one test row has no key; both take the block screen.
    rng = np.random.default_rng(5)
    train_keys = np.repeat([0, 1, 2, 3, 4, 5], [40, 40, 40, 40, 40, 2])
    test_keys = np.array([0, 1, 2, 3, 4, 0, 3, -1, 5])
    table = rng.normal(size=(7, 2))

    def joined(keys):
        rest = rng.normal(scale=0.1, size=(len(keys), 2))
        return np.concatenate([rest, keys[:, None] == np.arange(6), table[keys]], axis=1)

    train_J, test_J = joined(train_keys), joined(test_keys)
    got, work = searched(train_J, test_J, 5, 8, [(2, 8)], [*train_keys, *test_keys])
    assert work.stage.tolist() == [2] * 7 + [3, 3]
    pairs = [
        (test_keys[row], train_keys[cand]) for pairs in pairs_by_stage(work).values() for row, cand in pairs
    ]
    settled = [(test, train) for test, train in pairs if 0 <= test < 5]
    assert len(settled) >= 7 * 5 and all(test == train for test, train in settled)
    assert any(test != train for test, train in pairs if test in (-1, 5))
    for (idx, dist), (ref_idx, ref_dist) in zip(got, _select_neighbors(train_J, test_J, 5, 8)[0]):
        assert np.array_equal(idx, ref_idx) and np.array_equal(dist, ref_dist)


def dense_pair_sq(train_X, test_X, spans, codes, rows, cand):
    """The pairs' squared differences over the dense rows of the plain rows
    and the blocks at ``spans``: the plain columns', row-major (count, plain
    width), and each pair's sum over the one-hot columns, an exact integer."""
    n = len(train_X)
    sq = (dense_columns(train_X, spans, codes[:n])[cand] - dense_columns(test_X, spans, codes[n:])[rows]) ** 2
    plain = np.ones(sq.shape[1], dtype=bool)
    for start, stop in spans:
        plain[start:stop] = False
    return np.ascontiguousarray(sq[:, plain]), sq[:, ~plain].sum(axis=1)


@pytest.mark.parametrize("n", [3_000, 60_000])
def test_pair_gather_is_bounded_by_the_chunk(n):
    # 30,000 pairs over a 64-wide dense matrix whose blocks of 32 and 8
    # columns leave 24 plain ones, 8 of them main: the pairs are measured
    # 2,048 at a time, so the peak is the outputs and a few gathers of the
    # plain columns and the codes, whether the training matrix is small or
    # large. The sums are the dense rows' plain sums plus their one-hot
    # sums, bit for bit.
    plain, count = 24, 30_000
    spans = [(8, 40), (40, 48)]
    rng = np.random.default_rng(6)
    codes = np.column_stack([rng.integers(0, 33, size=n + 5), rng.integers(0, 9, size=n + 5)])
    train_X, test_X = rng.normal(size=(n, plain)), rng.normal(size=(5, plain))
    rows, cand = rng.integers(0, 5, size=count), rng.integers(0, n, size=count)
    plain_sq, block_sq = dense_pair_sq(train_X, test_X, spans, codes, rows, cand)
    # The main and joined widths at once, then the joined extras' tail alone.
    for widths, start in [([8, plain], None), ([plain], 8)]:
        tracemalloc.start()
        try:
            pairs = evaluate._Pairs(train_X, test_X, np.array([32, 8]), codes[:n], codes[n:])
            got = evaluate._pair_sq(pairs, rows, cand, widths, start)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * count * 8 + evaluate._PAIR_CHUNK * (3 * plain + 8 * len(spans)) * 8
        assert len(got) == len(widths)
        for sums, stop in zip(got, widths):
            expected = plain_sq[:, start or 0 : stop].sum(axis=1) + (block_sq if start is None else 0)
            assert sums.tobytes() == expected.tobytes()


# Dense rows of ``pair_cases``: numerics at 0, 4, 5, 7 and, past the main
# width 12, at 12 to 14; blocks of 3, 1 and 4 columns, the last just before
# the main width. The plain rows hold 4 main columns and 7 in all.
PAIR_SPANS, PAIR_MAIN = [(1, 4), (6, 7), (8, 12)], 4


@pytest.mark.parametrize("n, count", [(7, 40), (50, 130), (5_000, 4_500)])
@pytest.mark.parametrize("offset", [0.0, 1e8, -1e8])
def test_pair_sums_equal_the_dense_rows_bit_for_bit(n, count, offset):
    # Each pair's sum is its plain columns' squared differences summed in
    # column order, plus, over the whole rows, its count of differing codes:
    # bit for bit the dense rows' plain sum plus their one-hot sum. A tail,
    # from a given start, even from 0, sums plain columns alone.
    # Codes come from alphabets of one more than each block's width, so
    # unseen codes (the width) fall on either side and many pairs share a
    # code; some test rows copy a training row, exact zeros. The pairs span
    # several chunks.
    rng = np.random.default_rng(n + count)
    sizes = [stop - start for start, stop in PAIR_SPANS]
    codes = np.column_stack([rng.integers(0, size + 1, size=n + 9) for size in sizes])
    train_X = rng.normal(size=(n, 7)) + offset
    test_X = np.concatenate([rng.normal(size=(5, 7)) + offset, train_X[:4]])
    codes[n + 5 :] = codes[:4]
    rows, cand = rng.integers(0, 9, size=count), rng.integers(0, n, size=count)
    rows[:4], cand[:4] = range(5, 9), range(4)
    pairs = evaluate._Pairs(train_X, test_X, np.array(sizes), codes[:n], codes[n:])
    plain_sq, block_sq = dense_pair_sq(train_X, test_X, PAIR_SPANS, codes, rows, cand)
    assert (plain_sq[:4] == 0.0).all() and (block_sq[:4] == 0.0).all()
    assert (block_sq > 0).any() and (block_sq % 2 == 1).any()
    for widths, start in [([PAIR_MAIN, 7], None), ([7], PAIR_MAIN), ([PAIR_MAIN], None), ([7], 0)]:
        got = evaluate._pair_sq(pairs, rows, cand, widths, start)
        for sums, stop in zip(got, widths):
            expected = plain_sq[:, start or 0 : stop].sum(axis=1) + (block_sq if start is None else 0)
            assert sums.tobytes() == expected.tobytes()
