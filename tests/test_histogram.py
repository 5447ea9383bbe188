import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rulewatch import (
    DataTable,
    HitHistogram,
    HitMatrix,
    InsufficientDataError,
    NonNumericValueError,
    Split,
    hit_histogram,
    hit_matrix,
    make_splits,
    parse_ruleset,
)
from rulewatch.histogram import operational_splits
from tests.conftest import hit_bits
from tests.test_rules import rulesets


def _table(rows, columns=("x1", "x2")):
    return DataTable(tuple(columns), np.asarray(rows, dtype=float))


def test_make_splits_exact_partition():
    table = _table([[i, i] for i in range(10)])
    splits = make_splits(table, n_s=5, n_splits=2, seed=7)
    assert splits.shape == (2, 5) and splits.dtype.kind == "i"
    assert not splits.flags.writeable
    assert [len(s) for s in splits] == [5, 5]
    seen = sorted(
        int(v) for s in splits for v in table.X[s, 0]
    )
    assert seen == list(range(10))  # disjoint and covering


def test_make_splits_insufficient_data():
    table = _table([[i, i] for i in range(10)])
    with pytest.raises(InsufficientDataError, match="15"):
        make_splits(table, n_s=5, n_splits=3, seed=7)
    with pytest.raises(InsufficientDataError, match="need 15"):
        operational_splits(table, 5, 3)


def test_make_splits_deterministic():
    table = _table([[i, -i] for i in range(30)])
    a = make_splits(table, n_s=6, n_splits=4, seed=123)
    b = make_splits(table, n_s=6, n_splits=4, seed=123)
    for sa, sb in zip(a, b):
        assert np.array_equal(table.X[sa], table.X[sb])
    c = make_splits(table, n_s=6, n_splits=4, seed=124)
    assert any(not np.array_equal(table.X[sa], table.X[sc]) for sa, sc in zip(a, c))


def test_operational_splits_are_the_leading_rows():
    rows = operational_splits(_table([[i, i] for i in range(10)]), 3, 2)
    assert rows.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert not rows.flags.writeable


def test_hit_histogram_counts():
    rs = parse_ruleset("if x1 <= 0.5 then a\nif x1 > 10 then b\n")
    split = Split(_table([[0.1, 0], [0.2, 0], [0.3, 0], [0.9, 0]]))
    h = hit_histogram(rs, split)
    assert h.counts.tolist() == [3, 0]
    assert (h.counts / h.split_size).tolist() == [0.75, 0.0]
    assert h.split_size == 4


def test_hit_histogram_matches_double_loop(rng):
    rs = parse_ruleset(
        "if x1 <= 0.2 and x2 > -0.5 then a\n"
        "if x2 in [0, 1) then b\n"
        "if x1 > -2 then c\n"
    )
    X = rng.normal(0, 1, size=(50, 2))
    split = Split(_table(X))
    h = hit_histogram(rs, split)
    from rulewatch import ruleset_hits

    expected = [0] * rs.n_rules
    for i in range(50):
        mask = hit_bits(ruleset_hits(rs, {"x1": X[i, 0], "x2": X[i, 1]}), rs.n_rules)
        for j, bit in enumerate(mask):
            expected[j] += int(bit)
    assert list(h.counts) == expected


def test_histogram_values_are_scaled_counts(rng):
    h = HitHistogram((0, 3, 7), split_size=7)
    assert np.allclose(h.counts / h.split_size, [0, 3 / 7, 1.0])
    total = sum(h.counts)
    assert 0 <= total <= h.n_rules * h.split_size


def test_histogram_rejects_count_above_split_size():
    with pytest.raises(ValueError):
        HitHistogram((8,), split_size=7)


def test_from_values_requires_exact_multiples():
    HitHistogram.from_values([0.25, 0.5], 4)
    with pytest.raises(ValueError):
        HitHistogram.from_values([0.3], 4)


def test_sample_order_invariance(rng):
    rs = parse_ruleset("if x1 <= 0 then a\nif x2 > 0.3 then b\n")
    X = rng.normal(0, 1, size=(30, 2))
    h1 = hit_histogram(rs, Split(_table(X)))
    h2 = hit_histogram(rs, Split(_table(X[rng.permutation(30)])))
    assert h1.counts.tolist() == h2.counts.tolist()


def test_concatenation_averages_histograms(rng):
    rs = parse_ruleset("if x1 <= 0 then a\nif x2 > 0.3 then b\n")
    Xa = rng.normal(0, 1, size=(20, 2))
    Xb = rng.normal(0, 1, size=(20, 2))
    ha = hit_histogram(rs, Split(_table(Xa)))
    hb = hit_histogram(rs, Split(_table(Xb)))
    hcat = hit_histogram(rs, Split(_table(np.vstack([Xa, Xb]))))
    values = [h.counts / h.split_size for h in (hcat, ha, hb)]
    assert np.allclose(values[0], (values[1] + values[2]) / 2)


def test_hit_matrix_shapes(rng):
    rs = parse_ruleset("if x1 <= 0 then a\nif x2 > 0 then b\n")
    table = _table(rng.normal(0, 1, size=(60, 2)))
    tr = make_splits(table, n_s=10, n_splits=4, seed=1)
    m = hit_matrix(rs, table, tr)
    assert m.n_splits == 4
    assert m.n_rules == 2


def test_hit_matrix_requires_training():
    with pytest.raises(ValueError):
        HitMatrix(np.zeros((0, 2), dtype=np.int64), 4)


def test_hit_matrix_rejects_mixed_rule_counts():
    with pytest.raises(ValueError):
        HitMatrix([[1, 2], [1]], 4)


@pytest.mark.parametrize(
    "splits",
    [
        pytest.param([[0, 1, 2, 3], [4, 5, 6, 7, 8]], id="ragged"),
        pytest.param(np.arange(4), id="1-D"),
        pytest.param(np.zeros((0, 4), dtype=np.int64), id="empty"),
        pytest.param(np.zeros((2, 0), dtype=np.int64), id="empty-splits"),
        pytest.param(np.zeros((2, 4)), id="non-integer"),
    ],
)
def test_hit_matrix_rejects_bad_partitions(splits):
    rs = parse_ruleset("if x1 <= 0 then a\nif x2 > 0 then b\n")
    with pytest.raises(ValueError):
        hit_matrix(rs, _table([[0, 0]] * 9), splits)


def test_hit_matrix_names_the_lowest_table_row_holding_a_nan():
    # The shuffled splits list row 7 first, but row 3 is the lowest row
    # holding a NaN a rule reads; in it, x1 comes before x2 among the
    # ruleset's features. Row 1 is in no split and x3 is read by no rule.
    rs = parse_ruleset("if x1 <= 0 then a\nif x2 > 0 then b\n")
    X = np.zeros((12, 3))
    X[7, 0] = X[3, 1] = X[3, 0] = X[1, 0] = X[0, 2] = np.nan
    table = _table(X, ("x2", "x1", "x3"))
    splits = np.array([[7, 0, 5, 9], [2, 11, 3, 4]])
    with pytest.raises(NonNumericValueError, match=r"^row 3: feature 'x1' is NaN$"):
        hit_matrix(rs, table, splits)
    with pytest.raises(NonNumericValueError, match=r"^row 3: feature 'x1' is NaN$"):
        hit_matrix(rs, table, splits[::-1, ::-1])


@settings(max_examples=200, deadline=None)
@given(
    rulesets(),
    st.integers(1, 6),
    st.integers(1, 5),
    st.integers(0, 7),
    st.sampled_from(["shuffled", "leading"]),
    st.data(),
)
def test_hit_matrix_equals_per_split_tables(ruleset, n_s, n_splits, spare, kind, data):
    # Counting a row of the index partition equals counting a copied table
    # of that split's rows; rows outside every split are NaN and never read.
    columns = ("x1", "x2", "x3", "x4")
    n_rows = n_s * n_splits + spare
    halves = st.integers(-10, 10).map(lambda v: v / 2)
    X = data.draw(hnp.arrays(np.float64, (n_rows, len(columns)), elements=halves))
    drawn = _table(X.copy(), columns)
    if kind == "shuffled":
        rows = make_splits(drawn, n_s, n_splits, data.draw(st.integers(0, 2**32 - 1)))
    else:
        rows = operational_splits(drawn, n_s, n_splits)
    X[np.setdiff1d(np.arange(n_rows), rows)] = np.nan
    table = _table(X, columns)
    m = hit_matrix(ruleset, table, rows)
    assert m.counts.shape == (n_splits, ruleset.n_rules) and m.split_size == n_s
    for i in range(n_splits):
        reference = hit_histogram(ruleset, Split(DataTable(table.columns, table.X[rows[i]])))
        assert m.counts[i].tolist() == reference.counts.tolist()


def test_hit_matrix_training_counts():
    m = HitMatrix(np.array([[1, 2], [3, 0]]), 4)
    counts = m.counts
    assert counts.dtype == np.int64
    assert counts.tolist() == [[1, 2], [3, 0]]
    assert not counts.flags.writeable
    assert m.counts is counts


# -- the count checker shared by HitHistogram and HitMatrix -------------------

@st.composite
def count_arrays(draw):
    """(counts, split_size): a 1-d or 2-d integer array of any integer dtype in range."""
    split_size = draw(st.integers(1, 60))
    ndim = draw(st.sampled_from([1, 2]))
    shape = draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, min_side=1, max_side=6))
    dtype = draw(st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint64]))
    counts = draw(hnp.arrays(dtype, shape, elements=st.integers(0, split_size)))
    return counts, split_size


def _count_type(counts):
    return HitHistogram if np.ndim(counts) == 1 else HitMatrix


@settings(max_examples=200, deadline=None)
@given(count_arrays(), st.booleans())
def test_count_types_hold_a_read_only_int64_copy(case, as_list):
    counts, split_size = case
    source = counts.tolist() if as_list else counts.copy()
    held = _count_type(counts)(source, split_size)
    assert held.counts.dtype == np.int64
    assert held.counts.tolist() == counts.tolist()
    assert held.split_size == split_size and type(held.split_size) is int
    assert not held.counts.flags.writeable
    if not as_list:
        assert not np.shares_memory(held.counts, source)
        source += 1  # writing to the source afterwards leaves the copy as it was
    assert held.counts.tolist() == counts.tolist()


_BAD_COUNTS = ("above", "below", "float", "bool", "ndim", "no rows", "split size")


@settings(max_examples=200, deadline=None)
@given(count_arrays(), st.sampled_from(_BAD_COUNTS), st.data())
def test_count_types_reject_bad_counts(case, kind, data):
    counts, split_size = case
    cls = _count_type(counts)
    counts = counts.astype(np.int64)
    where = tuple(data.draw(st.integers(0, n - 1)) for n in counts.shape)
    if kind == "above":
        counts[where] = split_size + data.draw(st.integers(1, 10))
    elif kind == "below":
        counts[where] = -data.draw(st.integers(1, 10))
    elif kind == "float":
        counts = counts.astype(np.float64)
    elif kind == "bool":
        counts = counts > 0
    elif kind == "ndim":
        counts = data.draw(st.sampled_from([counts[None], counts[(0,) * counts.ndim]]))
    elif kind == "no rows":
        counts = counts[:0]
    else:
        split_size = data.draw(
            st.sampled_from([0, -3, 4.7, np.float64(4.0), True, "4", None])
        )
    with pytest.raises(ValueError):
        cls(counts, split_size)
