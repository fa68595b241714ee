"""Evaluation harness: does the additional table carry usable information?

For every target column of the main table we run the same prediction task
twice: once on features built from the main table alone, and once with
key-matched aggregates of the additional table appended. The predictor is
kNN-10 with inverse-distance weighting; regression targets score RMSE,
categorical targets score (macro one-vs-rest) AUC.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidParameterError,
    UndefinedMetricError,
)
from .prerun import group_means
from .relational import RelationalDataset, latently_affected_targets
from .tables import KIND_CATEGORICAL, KIND_NUMERIC, Table

STD_FLOOR = 1e-12
DISTANCE_EPS = 1e-12
# Share of the main block's total feature variance granted to the aggregate
# block. Keeps the joined metric a bounded perturbation of the main-only
# metric regardless of how many aggregate columns exist.
AGG_SHARE = 0.02


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (rows, d)
    spans: dict[str, tuple[int, int]]  # feature name -> (start, stop) of its columns
    # categorical name -> each row's column within its span, the span's width
    # for a category unseen in training
    codes: dict[str, np.ndarray]


@dataclass(frozen=True)
class EvalConfig:
    test_fraction: float = 0.1
    k: int = 10


@dataclass
class TargetResult:
    column: str
    task: str  # regression | classification
    metric: str  # RMSE | AUC
    main_only: float
    joined: float
    latently_affected: bool


@dataclass
class EvalReport:
    """Fields in the order eval_report.json lists them."""

    k: int
    test_fraction: float
    rows_main: int
    rows_add: int
    generation_seed: int
    schema_fingerprint: str | None
    feature_widths: dict
    # Share of the train and of the test rows whose key the additional
    # table lacks, so their join block is the fallback row.
    fallback_share: dict
    targets: list[TargetResult]


def split(table: Table, test_fraction: float) -> tuple[Table, Table]:
    """Contiguous head/tail split; rows are i.i.d. so no shuffle is needed."""
    if not 0.0 < test_fraction < 1.0:
        raise InvalidParameterError(f"test_fraction must lie in (0,1), got {test_fraction}")
    rows = table.row_count
    n_test = int(rows * test_fraction)
    if n_test < 1 or n_test >= rows:
        raise InvalidParameterError(
            f"split of {rows} rows at {test_fraction} leaves an empty side"
        )
    return table.slice(0, rows - n_test), table.slice(rows - n_test, rows)


@dataclass
class FeatureStats:
    """Encoding state fitted on training rows only."""

    numeric: dict[str, tuple[float, float]]  # name -> (mean, std)
    categories: dict[str, np.ndarray]  # name -> sorted training-observed values
    # non-target column name, in table order -> (start, stop) of its encoded
    # columns: one for a numeric, one per training category for a categorical
    spans: dict[str, tuple[int, int]]
    # summed per-column variance of the encoded training rows
    variance: float

    @property
    def width(self) -> int:
        """Columns of the encoded features."""
        return max((stop for _, stop in self.spans.values()), default=0)


def fit_feature_stats(train: Table) -> FeatureStats:
    """Fit the encoding, and the variance of the training rows it encodes.

    A one-hot block whose categories take the shares p of the training rows
    has variance 1 - sum(p^2). A standardized column's variance is measured
    on the column itself, as its std does not give it: a constant column
    whose mean rounds has a std of a few ulps, and a column whose squares
    overflow has a std of inf, yet both standardize to a constant.
    """
    numeric: dict[str, tuple[float, float]] = {}
    categories: dict[str, np.ndarray] = {}
    spans: dict[str, tuple[int, int]] = {}
    variance, stop = 0.0, 0
    for col in train.columns:
        if col.role == "target":
            continue
        if col.kind == KIND_NUMERIC:
            mean, std = numeric[col.name] = float(col.values.mean()), float(col.values.std())
            variance += float(_standardize(col.values, mean, std).var())
        else:
            categories[col.name], counts = np.unique(col.values, return_counts=True)
            variance += 1.0 - float(np.square(counts / train.row_count).sum())
        start, stop = stop, stop + (1 if col.kind == KIND_NUMERIC else len(categories[col.name]))
        spans[col.name] = (start, stop)
    return FeatureStats(numeric=numeric, categories=categories, spans=spans, variance=variance)


def _standardize(values, mean, std):
    """``values`` less ``mean``, over ``std`` or ``STD_FLOOR`` if larger."""
    return (values - mean) / np.maximum(std, STD_FLOOR)


def featurize_main_only(rows: Table, stats: FeatureStats, _out: np.ndarray | None = None) -> FeatureMatrix:
    """Standardized numerics plus one-hot categoricals; targets excluded.

    The columns are laid out as ``stats.spans`` says. Each categorical
    value's code, the column of its one within the span, is found once and
    kept in ``codes``; a category unseen during training gets the span's
    width as its code and encodes as an all-zero block, keeping test rows
    finite without touching the training geometry. The features go to a
    new matrix or, given ``_out``, to the leading columns of that matrix of
    the rows, which ``values`` then views.
    """
    values = np.empty((rows.row_count, stats.width)) if _out is None else _out[:, : stats.width]
    # One pass zeroes every one-hot block; the numeric columns are overwritten.
    values[...] = 0.0
    codes: dict[str, np.ndarray] = {}
    for name, (start, stop) in stats.spans.items():
        col = rows.column(name).values
        if name in stats.numeric:
            values[:, start] = _standardize(col, *stats.numeric[name])
            continue
        code = _sorted_position(stats.categories[name], col)
        seen = np.flatnonzero(code < stop - start)
        values[seen, start + code[seen]] = 1.0
        codes[name] = code
    return FeatureMatrix(values=values, spans=dict(stats.spans), codes=codes)


def _sorted_position(sorted_values, values):
    """Position of each of ``values`` among the distinct ``sorted_values``,
    or ``len(sorted_values)`` for a value not among them."""
    position = np.searchsorted(sorted_values, values)
    found = position < len(sorted_values)
    found[found] = sorted_values[position[found]] == values[found]
    position[~found] = len(sorted_values)
    return position


@dataclass
class KeyAggregates:
    """Per-key aggregation of the additional table, one dense row per key.

    Numeric columns aggregate by mean, categorical columns by normalized
    one-hot frequency. ``table`` has one row per entry of the sorted
    ``keys`` plus a last row, the table-global means and frequencies, for
    keys absent from the additional table.
    """

    keys: np.ndarray  # sorted int64
    table: np.ndarray  # (len(keys) + 1, width)
    numeric_mask: np.ndarray  # True where the aggregate column is a mean


def build_key_aggregates(add_table: Table, key_column: str) -> KeyAggregates:
    key = add_table.column(key_column)
    if key.kind != KIND_CATEGORICAL:
        raise ContractViolationError(f"key column {key_column!r} must be categorical")
    agg_cols = [c for c in add_table.columns if c.name != key_column]
    numeric_flags: list[bool] = []
    encoded: list[np.ndarray] = []
    for col in agg_cols:
        if col.kind == KIND_NUMERIC:
            encoded.append(col.values.reshape(-1, 1).astype(float))
            numeric_flags.append(True)
        else:
            cats = np.unique(col.values)
            encoded.append((col.values[:, None] == cats[None, :]).astype(float))
            numeric_flags.extend([False] * len(cats))
    rows = np.concatenate(encoded, axis=1) if encoded else np.zeros((add_table.row_count, 0))
    keys, key_rows = np.unique(key.values, return_inverse=True)
    table = group_means(rows, key_rows, np.zeros((len(keys) + 1, rows.shape[1])))
    if len(rows):
        table[-1] = rows.mean(axis=0)
    return KeyAggregates(keys.astype(np.int64), table, np.array(numeric_flags, dtype=bool))


def map_aggregates(keys: np.ndarray, agg: KeyAggregates) -> tuple[np.ndarray, np.ndarray]:
    """Row of ``agg.table`` each key reads, and a mask of the keys the
    additional table lacks, which read the fallback row."""
    row = _sorted_position(agg.keys, np.asarray(keys, dtype=np.int64))
    return row, row == len(agg.keys)


def _weighted_moments(table: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population variance of each column of ``table`` with row i
    weighted by ``counts[i]``: those of ``np.repeat(table, counts, axis=0)``.

    Each sum adds the weighted rows in order, so its bits do not depend on
    the machine's BLAS.
    """
    weights, n = counts[:, None], counts.sum()
    mean = (table * weights).sum(axis=0) / n
    return mean, (np.square(table - mean) * weights).sum(axis=0) / n


def fit_agg_norms(agg: KeyAggregates, counts: np.ndarray) -> None:
    """Standardize the mean-aggregated columns of ``agg.table`` in place.

    ``counts`` holds, per table row, the training rows that read it, so the
    mean and std are those of the training rows' aggregates. Frequency
    columns stay raw like every other one-hot block.
    """
    numeric = agg.table[:, agg.numeric_mask]
    mean, var = _weighted_moments(numeric, counts)
    agg.table[:, agg.numeric_mask] = _standardize(numeric, mean, np.sqrt(var))


def fit_agg_weight(stats: FeatureStats, agg: KeyAggregates, counts: np.ndarray) -> float:
    """Block weight granting the aggregates a fixed share of the metric.

    The weight w solves w^2 * var(agg block) = AGG_SHARE * var(main block),
    summed per-column variances of the training rows: the main block's as
    ``stats`` fitted it, the aggregate block's from the standardized table
    with each row weighted by its ``counts``. It is capped at 1 so sparse
    aggregate blocks are never inflated.
    """
    v_agg = float(_weighted_moments(agg.table, counts)[1].sum())
    if v_agg <= 0.0 or stats.variance <= 0.0:
        return 1.0
    return min(1.0, float(np.sqrt(AGG_SHARE * stats.variance / v_agg)))


def featurize_joined(
    main: FeatureMatrix, agg: KeyAggregates, row: np.ndarray, agg_weight: float = 1.0, _out: np.ndarray | None = None
) -> FeatureMatrix:
    """Main-table features with each row's standardized aggregate row appended.

    ``row`` is the row of ``agg.table`` each main row reads; ``agg_weight``
    multiplies the whole aggregate block. The spans and codes are the main
    features', which lead the joined columns. Given ``_out``, the matrix
    whose leading columns ``featurize_main_only`` wrote, the weighted block
    is written into its tail in place; otherwise both go to a new matrix.
    The table is weighted before the gather, which copies ``_PAIR_CHUNK``
    rows at a time: a gather into the strided tail in one call would go
    through a buffer of every row.
    """
    width = main.values.shape[1]
    if _out is None:
        _out = np.empty((len(row), width + agg.table.shape[1]))
        _out[:, :width] = main.values
    table = agg_weight * agg.table
    for start in range(0, len(row), _PAIR_CHUNK):
        stop = start + _PAIR_CHUNK
        np.take(table, row[start:stop], axis=0, out=_out[start:stop, width:])
    return FeatureMatrix(_out, main.spans, main.codes)


# Most values a block of screen values holds: a block of the settle pass
# counts its padded ``_scan`` cells, one of the block screen its rows times
# the training rows. A block takes one test row at least.
_BLOCK_VALUES = 2**19
# The strided bound is the k-th smallest screen value over every fourth
# training row. It is read from a basic strided view: a fancy-indexed
# gather of those columns comes out column-major and partitions about five
# times slower.
_SCREEN_STRIDE = 4
# Most rows a gather copies at a time, of the pairs ``_pair_sq`` measures
# and of the aggregate rows ``featurize_joined`` writes: 2,048 rows of the
# joined width are a few MB, and as fast as larger gathers.
_PAIR_CHUNK = 2048
_EPS = np.finfo(float).eps


def _pair_sq(train_X, test_X, rows, cand, widths, start=0):
    """Squared exact distances of (test row, training row) pairs.

    One array per entry of ``widths``, measuring the pairs over the columns
    from ``start`` up to that width. Distances come from explicit
    differences, so exact matches are exact zeros. Pairs are gathered
    ``_PAIR_CHUNK``, or half a training matrix, at a time, whichever is
    less: the gathered copies never hold more rows than ``train_X`` or grow
    with the number of pairs.
    """
    out = [np.empty(len(rows)) for _ in widths]
    step = max(1, min(_PAIR_CHUNK, len(train_X) // 2))
    for s in range(0, len(rows), step):
        diff = train_X[cand[s : s + step], start:]
        diff -= test_X[rows[s : s + step], start:]
        diff *= diff
        for sq, width in zip(out, widths):
            sq[s : s + step] = diff[:, : width - start].sum(axis=1)
    return out


def _rank_pairs(rows, cand, dist, n_rows, k):
    """Positions of the k pairs of each row nearest by ``dist``, ties by training index.

    Each of the ``n_rows`` rows has at least k pairs, in any order; the
    pairs at the returned (n_rows, k) positions are the (idx, dist) of a
    brute-force search. The pairs are sorted by ``dist``, then stably by
    row (a radix sort for fewer than 2^16 rows); only if a row holds two
    equal distances are they sorted by training index as well.
    """
    order = np.argsort(dist)
    order = order[np.argsort(rows[order].astype(np.uint16 if n_rows <= 2**16 else np.intp), kind="stable")]
    by_row, by_dist = rows[order], dist[order]
    if ((by_row[1:] == by_row[:-1]) & (by_dist[1:] == by_dist[:-1])).any():
        order = np.lexsort((cand, dist, rows))
    first = np.searchsorted(rows[order], np.arange(n_rows))
    return order[first[:, None] + np.arange(k)]


def _lex_code(columns, dims):
    """One int64 per row of the code ``columns``, column j in [0, dims[j]),
    ordered as the rows are lexicographically: ``c * dims[-1] +
    columns[-1]``, where c orders the rows by the other columns."""
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for column, dim in zip(columns, dims):
        if code.max(initial=0) >= np.iinfo(np.int64).max // dim:
            # Ranking the codes keeps their order and bounds them by the row count.
            code = np.unique(code, return_inverse=True)[1]
        code = code * dim + column
    return code


class _Screen(NamedTuple):
    """What the screen multiplies: the main training rows, sorted by key
    code, and the test rows (see ``_select_neighbors``)."""

    values: np.ndarray  # [rest - centre, |rest - centre|^2 + key count] per training row
    order: np.ndarray  # training index of each sorted row
    key_ends: np.ndarray  # the sorted rows of key code c are key_ends[c] : key_ends[c + 1]
    max_norm: float  # the largest entry of the norm column
    factors: np.ndarray  # [-2 * (rest - centre), 1] per test row
    consts: np.ndarray  # the row constant that product leaves out, |rest - centre|^2 + key count
    codes: np.ndarray  # the key code of each test row

    def full(self, rows, out):
        """Screen values, less the row constants, of the test ``rows`` over
        every key-sorted training row, written to ``out``: the product, then
        2 off each row's own key range. A row without a key (code
        ``len(key_ends) - 1``) has no range."""
        values = np.matmul(self.factors[rows], self.values.T, out=out)
        for row, code in zip(values, self.codes[rows].tolist()):
            if code < len(self.key_ends) - 1:
                row[self.key_ends[code] : self.key_ends[code + 1]] -= 2.0
        return values


class _Work(NamedTuple):
    """What one search did: where each test row was ranked, and what each
    screen read and measured. Stage 1 is the code cell, 2 the key and
    other-code range, 3 the block screen."""

    stage: np.ndarray  # int8 per test row: the stage that ranked it last
    reads: list  # (stage, screen values read) per block of test rows ``_scan`` reads
    pairs: list  # (stage, test rows, training rows) per full-width ``_pair_sq`` call


def _cells(screen, plain, spans, codes, seen):
    """The key-sorted training rows in a second order, by their codes in the
    other one-hot spans and then by key, and each test row's ranges in it.

    A training row that shares every other code with a test row differs
    from it in the key and in the plain columns, those outside every span,
    alone; its screen value is read from those columns, with 2 off in the
    test row's code cell, the rows that share its key as well. ``plain``
    are the screen columns outside every span; ``codes`` and ``seen`` are
    each row's codes and whether it has one, training rows first (see
    ``_select_neighbors``).

    Returns four things:

    - the ``_scan`` part of each test row's code cell, the training rows
      that share its every code;
    - a list of the two parts of its other-code range around the cell, the
      rows that share its every other code, both empty for a row without a
      one in every other span;
    - the mask of the test rows with a one in every other span;
    - the cost, the least main d^2 a differing other code adds: 2, or 1 if
      some training row lacks one.

    Each part holds [plain - centre, |plain - centre|^2 + key count, 1] per
    training row, [-2 * (plain - centre), 1, |plain - centre|^2 + 1 - const]
    per test row and the key-sorted position of each training row.
    """
    n = len(screen.order)
    # The key is the last digit, so a row's code less its key code is the
    # first code of its other-code range.
    dims = [stop - start + 1 for start, stop in [*spans[1:], spans[0]]]
    code = _lex_code([*codes[:, 1:].T, codes[:, 0]], dims)
    train_code, test_code = code[:n][screen.order], code[n:]
    pos = np.argsort(train_code, kind="stable")
    ordered, first = train_code[pos], test_code - codes[n:, 0]
    values = np.ones((n, len(plain) + 2))
    values[:, :-2] = screen.values[:, plain][pos]
    np.einsum("ij,ij->i", values[:, :-2], values[:, :-2], out=values[:, -2])
    values[:, -2] += seen[screen.order[pos], 0]
    test = np.ones((len(screen.codes), len(plain) + 2))
    test[:, :-2] = screen.factors[:, plain]
    # Halving undoes the factor's exact scaling by -2.
    np.einsum("ij,ij->i", test[:, :-2], test[:, :-2], out=test[:, -1])
    test[:, -1] = test[:, -1] / 4.0 + 1.0 - screen.consts
    own_start = np.searchsorted(ordered, test_code)
    own_stop = np.searchsorted(ordered, test_code, side="right")
    eligible = seen[n:, 1:].all(axis=1)
    start = np.where(eligible, np.searchsorted(ordered, first), own_start)
    stop = np.where(eligible, np.searchsorted(ordered, first + dims[-1]), own_stop)
    by_codes = (values, test, pos)
    return (
        (*by_codes, own_start, own_stop),
        [(*by_codes, start, own_start), (*by_codes, own_stop, stop)],
        eligible,
        2.0 if seen[:n, 1:].all() else 1.0,
    )


def _bound(kth, norms, width):
    """``kth``, a k-th smallest squared distance read at ``width`` columns,
    plus its rounding margin; ``norms`` is the row constant plus the
    largest entry of the norm column.

    Centring and the expanded square of the non-key columns, whose matmul
    sums at most width + 1 terms with the folded norm column, err by under
    about (width + 7) * eps * (|test row|^2 + |train row|^2), the centred
    norms. The key term is an exact integer; adding the key counts to the
    norm column and to the row constant ``const``, subtracting 2, forming
    ``kth + const`` and comparing against ``limit - const`` round five
    values, each by at most eps / 2 of ``norms + |kth|``. Explicit squared
    distances err by about (width + 3) * eps relative, and the square root
    taken before ranking lets a d^2 up to 2 * eps larger tie. A main row
    that ties the k-th nearest has a screen value within those errors of
    the k-th smallest, and so of every k-th the search reads: each is the
    k-th smallest screen value over k or more training rows, so at least
    that large, and adds no error of its own, whichever product it was read
    from. Over a code cell or an other-code range the product takes the
    plain columns alone, with the key term folded into the norm column (and
    2 subtracted in the cell, as on a key range): in exact arithmetic the
    same values, from fewer rounded terms. A joined
    neighbour has exact main d^2 <= exact joined d^2 (the joined rows lead
    with the main ones); U is the k-th smallest explicit joined d^2 over k
    or more rows, so the neighbour's exact joined d^2 is at most U plus the
    relative errors at the joined width, and its screen value lies within
    the first errors of its exact main d^2, its screen value plus the
    explicit d^2 of its appended block within those of its exact joined
    d^2. The margin ``4 * (width + 8) * eps * (norms + |kth|)`` is twice what
    keeps every such row a candidate, so the bound also exceeds the exact
    d^2 of every neighbour: below a settle threshold, no row outside the
    ranges read is one.
    """
    return kth + 4.0 * (width + 8) * _EPS * (norms + np.abs(kth))


def _rank(train_X, test_X, k, widths, screen, out, work, stage, rows, values, at, main_limit, cover, const):
    """Write both conditions' neighbours of the test ``rows`` to ``out``, and
    return the mask of the rows whose joined limit passes their cover.

    ``values`` is a screen's block of values of the rows, less the row
    constants ``const``, and ``at(test_rows, col)`` maps its cells to
    key-sorted positions. A training row without a cell in a row's values
    lies beyond the row's ``cover``, and ``main_limit`` is at most it. The
    main candidates are the cells within ``main_limit``, and the joined ones
    beyond them the cells within the joined limit, the bound of U, which
    this computes. A masked row may have a joined neighbour beyond its
    cover, outside its values: a later screen, whose values do cover the
    limit, ranks it again, so its joined candidates here are left unread,
    and the joined neighbours written for it, from its main candidates
    alone, are not final. Each
    full-width measurement is logged in ``work.pairs`` under ``stage``. See
    ``_select_neighbors``.
    """
    main_rows, col = np.divmod(np.flatnonzero(values <= main_limit[:, None]), values.shape[1])
    main_test = rows[main_rows]
    cand = screen.order[at(main_test, col)]
    pair_sq = _pair_sq(train_X, test_X, main_test, cand, widths)
    work.pairs.append((stage, main_test, cand))
    dist = np.sqrt(pair_sq[0])
    pick = _rank_pairs(main_rows, cand, dist, len(rows), k)
    out[0][0][rows], out[0][1][rows] = cand[pick], dist[pick]
    if len(widths) == 1:
        return np.zeros(len(rows), dtype=bool)
    # U: the joined d^2 of each row's k-th main candidate ranked by joined d^2.
    upper = pair_sq[1][_rank_pairs(main_rows, cand, pair_sq[1], len(rows), k)[:, k - 1]]
    joined_limit = _bound(upper, const + screen.max_norm, widths[1]) - const
    far = joined_limit > cover
    near = values <= joined_limit[:, None]
    near[main_rows, col] = False
    near[far] = False
    more_rows, col = np.divmod(np.flatnonzero(near), values.shape[1])
    more_test = rows[more_rows]
    more_cand = screen.order[at(more_test, col)]
    # A joined d^2 is the main d^2 plus the appended columns' part, and the
    # screen value plus that part must lie within the joined limit too;
    # measuring the part alone first leaves most of these pairs out.
    (tail_sq,) = _pair_sq(train_X, test_X, more_test, more_cand, widths[1:], widths[0])
    near = values[more_rows, col] + tail_sq <= joined_limit[more_rows]
    more_rows, more_test, more_cand = more_rows[near], more_test[near], more_cand[near]
    (more_sq,) = _pair_sq(train_X, test_X, more_test, more_cand, widths[1:])
    work.pairs.append((stage, more_test, more_cand))
    pair_rows, cand = np.concatenate([main_rows, more_rows]), np.concatenate([cand, more_cand])
    dist = np.sqrt(np.concatenate([pair_sq[1], more_sq]))
    pick = _rank_pairs(pair_rows, cand, dist, len(rows), k)
    out[1][0][rows], out[1][1][rows] = cand[pick], dist[pick]
    return far


def _blocks(cost):
    """Consecutive (start, stop) blocks of rows, each of one row or of at
    most ``_BLOCK_VALUES`` values counted at its last row's ``cost``.
    ``cost``, values per row, is positive and never falls from one row to
    the next, so the last row's is the block's largest."""
    start = 0
    while start < len(cost):
        count = min(len(cost) - start, max(1, _BLOCK_VALUES // cost[start]))
        if count * cost[start + count - 1] > _BLOCK_VALUES:
            count = max(1, _BLOCK_VALUES // cost[start + count - 1])
        yield start, start + count
        start += count


def _scan(rows, parts, k):
    """Screen values, less the row constants, of each test row of ``rows``
    over its ranges of training rows, and the map of their cells to
    key-sorted positions, ``at(test_rows, col)`` of each cell's test row
    and column.

    Each part is (values, factors, positions, starts, stops): a test row
    reads the products of its factor with ``values[start:stop]``, whose
    key-sorted positions are ``positions[start:stop]``. The first part's
    rows share the test row's key, so 2 comes off its products. Each part
    takes a band of columns as wide as its widest range; the rest of a band,
    and any columns added to make 2k, hold inf.
    """
    bands = np.cumsum([0, *((stops[rows] - starts[rows]).max() for *_, starts, stops in parts)])
    values = np.full((len(rows), max(bands[-1], 2 * k)), np.inf)
    for (table, factors, _, starts, stops), band in zip(parts, bands):
        for value, factor, a, b in zip(values[:, band:], factors[rows], starts[rows].tolist(), stops[rows].tolist()):
            np.dot(table[a:b], factor, out=value[: b - a])
    values[:, : bands[1]] -= 2.0

    def at(test_rows, col):
        pos = np.empty(len(col), dtype=np.intp)
        for (_, _, positions, starts, _), a, b in zip(parts, bands, bands[1:]):
            inside = (a <= col) & (col < b)
            pos[inside] = positions[starts[test_rows[inside]] + col[inside] - a]
        return pos

    return values, at


def _settle_in_key(rank, screen, k, main_width, cells, work):
    """Rank the test rows whose neighbours all lie in their own key or,
    given ``cells``, what ``_cells`` returns, in their code cell or their
    own key and its other-code range.

    Each block of test rows ``_scan`` reads, of at most ``_BLOCK_VALUES``
    padded cells or of one row, hands the rows whose main
    neighbours it holds, with their values, to ``rank``, which writes both
    conditions' neighbours of them; the rows whose joined neighbours it
    holds too are settled, at their stage in ``work.stage``. Returns the
    k-th smallest screen value over the training rows each test row read
    (inf for a row without a key or whose key has fewer than k training
    rows). See ``_select_neighbors``.
    """
    n, m = len(screen.order), len(screen.codes)
    ends = screen.key_ends
    # Every training row of another key is at main d^2 >= 2, one without a
    # key at main d^2 >= 1, and a joined d^2 is at least the main one.
    threshold = 2.0 if ends[-1] == n else 1.0
    own = np.full(m, np.inf)

    def settle(stage, rows, parts, thresholds):
        """Rank each of the test ``rows`` whose bound of the k-th over its
        ranges lies below its threshold, and settle those ``rank`` does
        not hand on."""
        # Rows of like range length share a padded block. Each part's band
        # is at most as wide as the block's last row reads in all of them.
        reads = sum(stops[rows] - starts[rows] for *_, starts, stops in parts)
        rows, reads = rows[np.argsort(reads, kind="stable")], np.sort(reads)
        for s, e in _blocks(np.maximum(len(parts) * reads, 2 * k)):
            block = rows[s:e]
            work.reads.append((stage, int(reads[s:e].sum())))
            const, below = screen.consts[block], thresholds[block]
            values, at = _scan(block, parts, k)
            # Each row's 2k smallest values, without the rest of the partitioned copy.
            nearest = np.partition(values, 2 * k - 1, axis=1)[:, : 2 * k].copy()
            own[block] = kth = np.partition(nearest, k - 1, axis=1)[:, k - 1]
            norms = const + screen.max_norm
            bound = _bound(kth + const, norms, main_width)
            # A row read past its own key takes main candidates up to the
            # bound of the 2k-th, capped at its threshold: a U over more of
            # them is tighter and admits fewer joined ones.
            second = np.minimum(_bound(nearest[:, 2 * k - 1] + const, norms, main_width), below)
            limit = np.where(below > threshold, second, bound) - const
            ok = np.flatnonzero(bound < below)
            # Only the ranked rows' values stay alive while they are ranked.
            values = values[ok]
            far = rank(stage, block[ok], values, at, limit[ok], below[ok] - const[ok], const[ok])
            work.stage[block[ok[~far]]] = stage

    keyed = screen.codes < len(ends) - 1
    # A row without a key is given the keyless training rows, and reads nothing.
    key_ranges = np.append(ends, n)
    lo, hi = key_ranges[screen.codes], key_ranges[screen.codes + 1]
    parts = [(screen.values, screen.factors, np.arange(n), lo, hi)]
    thresholds = np.full(m, threshold)
    if cells is not None:
        cell, around, eligible, cost = cells
        # Stage 1: a row with a one in every span reads its code cell. A
        # training row outside it differs in the key, at main d^2 >= the
        # threshold, or in another code, at >= the cost.
        settle(1, np.flatnonzero(keyed & eligible), [cell], np.full(m, min(threshold, cost)))
        # Stage 2 widens such a row to Hamming radius 1 over the codes: the
        # other keys' rows that share its every other code, its other-code
        # range with the cell left out. Every training row outside it and
        # the own key differs in the key and in one more code.
        parts += around
        thresholds[eligible] += cost
    # Stage 2: every row left whose key has k training rows reads that key.
    settle(2, np.flatnonzero(keyed & (work.stage == 0) & (hi - lo >= k)), parts, thresholds)
    return own


def _select_neighbors(train_X, test_X, k, main_width=None, spans=(), codes=None):
    """Indices and exact distances of the k nearest training rows per test row.

    Returns ``(out, work)``: ``out`` is a list holding one (idx, dist) pair
    for ``train_X``/``test_X`` or, given ``main_width``, one pair for the
    main rows, their leading ``main_width`` columns, and a second for the
    joined rows, all of them, both from one pass; ``work`` is the
    ``_Work`` record of what the search did. ``spans`` are the (start,
    stop) column spans of disjoint one-hot blocks among the main columns,
    the key's first, and ``codes`` an int array of each training row's and
    then each test row's code in each of them: the column of the row's one
    within the block, or the block's width for a row without one. They
    change the cost of the search, not its result. Without spans the key
    has no columns, and no row has one.

    Candidates are screened by the expanded square of the main rows. Over a
    one-hot block d^2 is exactly ``seen_test + seen_train - 2 * [same code]``,
    so the training rows are sorted by key code once, the key's columns
    stay out of the matmul, and 2 is subtracted on each test row's own key
    range. The other columns are centred on the training mean (centring
    keeps a large common offset from cancelling), and the training norms
    and key counts form one more column of the matmul.

    Two screens feed one ranking routine, ``_rank``, and every bound comes
    with its rounding margin from ``_bound``. The first screen settles test
    rows near their own codes (``_settle_in_key``) in two stages, each a
    scan of a few contiguous ranges of training rows per test row
    (``_scan``; an inverted-file search, Jegou, Douze & Schmid, TPAMI 2011).
    Every training row of another key is at main d^2 >= 2, and at >= 1 if
    some training row has no key, which sets the threshold. Given further
    spans, a second training order sorts the rows by their other codes and
    then by key (``_cells``). Stage 1 takes each row with a key and a one
    in every other span to its code cell, the training rows that share its
    every code, one range of that order. A row outside the cell differs in
    the key or in another code, so lies at main d^2 >= the smaller of the
    threshold and the cost, 2, or 1 if some training row lacks a code in
    some other span. If the bound of the k-th smallest screen value over
    the cell lies below that, all of the row's main neighbours lie in the
    cell and the row is ranked there. Stage 2 takes every row left whose
    key has k training rows to that key, and, if the row has a one in every
    other span, widens it to Hamming radius 1 over the categorical codes
    (multi-index hashing, Norouzi, Punjani & Fleet, CVPR 2012): the other
    keys' rows that share every other code, the rest of the cell's range in
    the second order. Every row outside both differs in the key and in one
    more code, so lies at main d^2 >= the wide threshold, the threshold
    plus the cost. If the bound of the k-th smallest value over what the
    row read lies below its threshold, the row is ranked there; a widened
    row's main candidates go up to the bound of the 2k-th, capped at the
    wide threshold. Without other spans only stage 2 runs, on the own key.
    The second screen takes the other rows against every training row,
    blocked over test rows into one preallocated buffer of at most
    ``_BLOCK_VALUES`` values, or one row. Its main bound is
    the smaller of the k-th the first screen read and the k-th smallest
    screen value over every ``_SCREEN_STRIDE``-th training row, the strided
    k-th.

    Each screen hands its block of values to ``_rank`` as it computes it.
    The main candidates are the values within the main bound. A joined d^2
    is the main d^2 plus that of the appended block, so main d^2 is a lower
    bound of it (multi-step kNN, Seidl & Kriegel, SIGMOD 1998), and the
    k-th smallest joined d^2 U over the main candidates, measured at full
    width, bounds the joined k-th d^2 from above. The joined candidates
    beyond the main ones are the values within the bound of U whose screen
    value plus the appended block's explicit d^2 lies within it too. The
    second screen's block holds every training row. A first-screen row's
    holds only the ranges it read, and every training row outside them lies
    beyond its cover, its settle threshold: a row whose joined limit passes
    its cover is not settled but handed on, to stage 2 or the second
    screen, which ranks it again. No stage measures a pair twice; a pair
    two stages measure is a handed-on row's. Each condition ranks its
    candidates by exact distance, ties by training index, which is the order
    of a brute-force search.
    """
    (n, width), m = train_X.shape, len(test_X)
    widths = [width] if main_width is None else [main_width, width]
    if not spans:
        spans, codes = [(0, 0)], np.zeros((n + m, 1), dtype=np.intp)
    key_start, key_stop = spans[0]
    rest = np.r_[0:key_start, key_stop : widths[0]]
    # Adding a bool adds exactly 0.0 or 1.0, a row's count of ones in a block.
    seen = codes < [stop - start for start, stop in spans]
    order = np.argsort(codes[:n, 0], kind="stable")
    values = np.empty((n, len(rest) + 1))
    train_c = values[:, :-1]
    # Two slices of gathered rows: an np.ix_ gather is about three times slower.
    train_c[:, :key_start] = train_X[order, :key_start]
    train_c[:, key_start:] = train_X[order, key_stop : widths[0]]
    center = train_c.mean(axis=0)
    train_c -= center
    np.einsum("ij,ij->i", train_c, train_c, out=values[:, -1])
    values[:, -1] += seen[order, 0]
    key_ends = np.searchsorted(codes[order, 0], np.arange(key_stop - key_start + 1))
    factors = np.ones((m, len(rest) + 1))
    factors[:, :-1] = test_X[:, rest] - center
    consts = np.einsum("ij,ij->i", factors[:, :-1], factors[:, :-1]) + seen[n:, 0]
    # Scaling by -2 is exact, so scaling the block is scaling the product.
    factors[:, :-1] *= -2.0
    screen = _Screen(values, order, key_ends, values[:, -1].max(initial=0.0), factors, consts, codes[n:, 0])
    out = [(np.empty((m, k), dtype=np.intp), np.empty((m, k))) for _ in widths]
    cells = None
    if len(spans) > 1:
        plain = np.ones(widths[0], dtype=bool)
        for start, stop in spans[1:]:
            plain[start:stop] = False
        plain = np.flatnonzero(plain[rest])
        cells = _cells(screen, plain, spans, codes, seen)
    work = _Work(np.zeros(m, dtype=np.int8), [], [])
    rank = partial(_rank, train_X, test_X, k, widths, screen, out, work)
    own = _settle_in_key(rank, screen, k, widths[0], cells, work)
    # The block screen reads no cell: freeing them lowers its peak memory.
    del cells
    hard = np.flatnonzero(work.stage == 0)
    # One buffer for the blocks, sized for the rows left.
    step = max(1, _BLOCK_VALUES // n)
    block_sq = np.empty((min(step, len(hard)), n))
    for start in range(0, len(hard), step):
        rows = hard[start : start + step]
        const = consts[rows]
        sq = screen.full(rows, block_sq[: len(rows)])
        strided = sq[:, ::_SCREEN_STRIDE] if n // _SCREEN_STRIDE >= k else sq
        # The strided k-th one row at a time: partitioning the whole strided
        # block would copy a quarter of the buffer.
        kth = np.minimum(const + [np.partition(row, k - 1)[k - 1] for row in strided], const + own[rows])
        # The block holds every training row's value: no row lies beyond it.
        rank(3, rows, sq, lambda _, col: col, _bound(kth, const + screen.max_norm, widths[0]) - const, np.inf, const)
    work.stage[hard] = 3
    return out, work


def _predict(idx, dist, train_y, task):
    """Every target's prediction from one neighbour set, weighted as ``knn_predict`` says."""
    weights = 1.0 / (dist + DISTANCE_EPS)
    exact = dist == 0.0
    has_exact = exact.any(axis=1)
    weights[has_exact] = exact[has_exact].astype(float)
    denom = weights.sum(axis=1, keepdims=True)

    predictions = []
    for y, t in zip(train_y, task):
        neighbor_y = y[idx]
        if t == "regression":
            predictions.append((weights * neighbor_y).sum(axis=1) / denom[:, 0])
            continue
        classes = np.unique(y)
        scores = np.empty((len(idx), len(classes)))
        for j, cls in enumerate(classes):
            scores[:, j] = (weights * (neighbor_y == cls)).sum(axis=1)
        scores /= denom
        predictions.append((scores, classes))
    return predictions


def knn_predict(
    train_X: np.ndarray,
    train_y: np.ndarray | list[np.ndarray],
    test_X: np.ndarray,
    k: int = 10,
    task: str | list[str] = "regression",
    main_width: int | None = None,
    _one_hot=(),
):
    """Inverse-distance weighted k-nearest-neighbor prediction.

    Weights are 1/(d + 1e-12). Any exact match short-circuits to the plain
    average (or label frequencies) over the zero-distance neighbors only.
    Regression returns predictions; classification returns (scores, classes)
    where scores rows sum to one and the hard label is the argmax, ties going
    to the lowest class id.

    Multi-target form: with ``train_y`` a list of 1-D arrays and ``task`` a
    list of the same length, one neighbour search serves every target and
    the result is a list holding, in order, what the single-target call
    would return for each.

    Joined form: ``main_width=w`` reads the main rows as the leading w
    columns of ``train_X`` and ``test_X`` and the joined rows as all of
    them, and makes the call return (main predictions, joined predictions)
    from one neighbour search. Main d^2 is a lower bound of joined d^2, so
    the joined neighbours lie among the rows whose main d^2 is within a
    rounding margin of an upper bound (see ``_select_neighbors``).

    Eval hands over its one-hot blocks through ``_one_hot``, as ``(spans,
    codes)``: the (start, stop) main columns of each categorical feature's
    block, the key's first, and an int array of each training row's and
    then each test row's code in each block, the column of its one there
    or the block's width where it has none, as its featurizer found them.
    The search then screens the key's block by code and settles what test
    rows it can inside their own code cell or key. The blocks change the
    cost of the search, not the predictions.

    Every feature value must be finite: a NaN or infinite distance ranks no
    neighbour.
    """
    single = isinstance(task, str)
    if single:
        train_y, task = [train_y], [task]
    elif len(train_y) != len(task):
        raise InvalidParameterError(f"{len(train_y)} targets but {len(task)} tasks")
    for t in task:
        if t not in ("regression", "classification"):
            raise InvalidParameterError(f"unknown task {t!r}")
    if k < 1 or k > len(train_X):
        raise InvalidParameterError(f"k must lie in [1, {len(train_X)}], got {k}")
    if train_X.shape[1] != test_X.shape[1]:
        raise ContractViolationError("train and test feature widths differ")
    width = train_X.shape[1]
    if main_width is not None and not 0 < main_width <= width:
        raise ContractViolationError(f"main width {main_width} lies outside (0, {width}]")
    if not (np.isfinite(train_X).all() and np.isfinite(test_X).all()):
        raise ContractViolationError("feature matrices hold a non-finite value")
    predictions = [
        _predict(idx, dist, train_y, task)
        for idx, dist in _select_neighbors(train_X, test_X, k, main_width, *_one_hot)[0]
    ]
    if single:
        predictions = [p[0] for p in predictions]
    return tuple(predictions) if main_width is not None else predictions[0]


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    if len(predictions) != len(truth):
        raise InvalidParameterError("prediction/truth length mismatch")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)
    return ((last - counts + 1 + last) / 2.0)[group]


def auc_binary(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank (Mann-Whitney) AUC of the positive-class score, ties count 0.5."""
    labels = np.asarray(labels, dtype=bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present in the truth")
    ranks = _average_ranks(np.asarray(scores, dtype=float))
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_macro(scores: np.ndarray, classes: np.ndarray, truth: np.ndarray) -> float:
    """Macro one-vs-rest AUC over the classes present in the truth."""
    present = np.unique(truth)
    if len(present) < 2:
        raise UndefinedMetricError("AUC undefined: single-class truth")
    class_pos = {int(c): j for j, c in enumerate(classes)}
    values = []
    for cls in present:
        j = class_pos.get(int(cls))
        col = scores[:, j] if j is not None else np.zeros(len(truth))
        values.append(auc_binary(col, truth == cls))
    return float(np.mean(values))


def score(predictions, truth: np.ndarray, task: str) -> float:
    if task == "regression":
        return rmse(np.asarray(predictions, dtype=float), np.asarray(truth, dtype=float))
    if task == "classification":
        scores, classes = predictions
        return auc_macro(scores, classes, truth)
    raise InvalidParameterError(f"unknown task {task!r}")


def run_comparison(dataset: RelationalDataset, cfg: EvalConfig = EvalConfig()) -> EvalReport:
    """Score every main-table target under the main-only and joined conditions.

    The main table is featurized once, with statistics fitted on the
    training rows; the training and test rows are the head and tail of that
    one joined matrix, split where ``split`` splits the table.
    """
    train, test = split(dataset.main_table, cfg.test_fraction)
    n_train = train.row_count
    key = dataset.schema.merged.node(dataset.schema.coupling_index).name
    stats = fit_feature_stats(train)
    agg = build_key_aggregates(dataset.add_table, key)
    row, fallback = map_aggregates(dataset.main_table.column(key).values, agg)
    # The aggregate block is fitted on the key table, each row weighted by
    # the training rows that read it, and expanded to every main row once.
    counts = np.bincount(row[:n_train], minlength=len(agg.table))
    fit_agg_norms(agg, counts)
    # Both conditions read one matrix: the main features lead, written in
    # place, and the weighted aggregates follow. No main-only copy exists.
    main_width = stats.width
    joined = np.empty((len(row), main_width + agg.table.shape[1]))
    main = featurize_main_only(dataset.main_table, stats, _out=joined)
    featurize_joined(main, agg, row, fit_agg_weight(stats, agg, counts), _out=joined)
    # The search takes every categorical feature's block with its codes, the key's first.
    names = [key, *(name for name in main.spans if name in stats.categories and name != key)]
    one_hot = [main.spans[name] for name in names], np.column_stack([main.codes[name] for name in names])
    del main, row
    affected = latently_affected_targets(dataset.schema)
    name_to_affected = {
        dataset.schema.merged.node(i).name: flag for i, flag in affected.items()
    }

    targets = [
        (col.name, "classification" if col.kind == KIND_CATEGORICAL else "regression")
        for col in dataset.main_table.columns
        if col.role == "target"
    ]
    tasks = [task for _, task in targets]
    y_train = [train.column(name).values for name, _ in targets]
    main_preds, joined_preds = knn_predict(
        joined[:n_train],
        y_train,
        joined[n_train:],
        k=cfg.k,
        task=tasks,
        main_width=main_width,
        _one_hot=one_hot,
    )
    main_scores, joined_scores = (
        [score(p, test.column(name).values, task) for p, (name, task) in zip(preds, targets)]
        for preds in (main_preds, joined_preds)
    )
    results = [
        TargetResult(
            column=name,
            task=task,
            metric="AUC" if task == "classification" else "RMSE",
            main_only=main_score,
            joined=joined_score,
            latently_affected=bool(name_to_affected.get(name, False)),
        )
        for (name, task), main_score, joined_score in zip(targets, main_scores, joined_scores)
    ]
    return EvalReport(
        k=cfg.k,
        test_fraction=cfg.test_fraction,
        rows_main=dataset.main_table.row_count,
        rows_add=dataset.add_table.row_count,
        generation_seed=dataset.seed,
        schema_fingerprint=dataset.schema_fingerprint,
        feature_widths={"main_only": main_width, "joined": joined.shape[1]},
        fallback_share={"train": float(fallback[:n_train].mean()), "test": float(fallback[n_train:].mean())},
        targets=results,
    )
