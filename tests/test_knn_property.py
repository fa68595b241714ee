"""Property tests: ``knn_predict`` against a brute-force sorted-distance oracle.

The inputs are the hard cases for an expanded-square search: duplicate
training rows, exact distance ties (small-integer lattices), a large common
offset on every feature, exact matches, and k equal to the training size.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from relgen.evaluate import knn_predict  # noqa: E402

from test_evaluate import brute_force_knn  # noqa: E402

OFFSETS = [0.0, 1.0, -3e3, 1e5, 1e7, -1e7]


@st.composite
def knn_cases(draw):
    width = draw(st.integers(1, 4))
    lattice = draw(st.booleans())
    value = (
        st.integers(-3, 3).map(float)
        if lattice
        else st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    )

    def rows(count):
        return np.array(
            draw(st.lists(st.lists(value, min_size=width, max_size=width), min_size=count, max_size=count)),
            dtype=float,
        ).reshape(count, width)

    distinct = rows(draw(st.integers(1, 12)))
    # Training rows drawn with replacement from a small pool: duplicates.
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=30))
    train_X = distinct[picks]
    n = len(train_X)
    copies = draw(st.lists(st.integers(0, n - 1), max_size=3))
    test_X = np.concatenate([rows(draw(st.integers(0, 6))), train_X[copies]])
    if len(test_X) == 0:
        test_X = rows(1)
    offset = draw(st.sampled_from(OFFSETS))
    k = n if draw(st.booleans()) else draw(st.integers(1, n))
    y_reg = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    y_cls = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
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
