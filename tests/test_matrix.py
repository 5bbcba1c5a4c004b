from functools import partial

import numpy as np
import pytest
from conftest import SameHash, entries, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from ecomplex import (
    BinaryMatrix,
    EmptyMatrix,
    ExportMatrix,
    ZeroMarginal,
    binarize,
    prune_degenerate,
    rca_binarize,
    read_matrix,
    write_matrix,
)
from ecomplex import matrix


class TestBinarize:
    def test_thresholds_positive_cells(self):
        x = ExportMatrix.from_dense([[0.5, 0], [0, 0]])
        m = binarize(x)
        assert entries(m) == {(0, 0)}
        assert_array_equal(m.diversification, [1, 0])
        assert_array_equal(m.ubiquity, [1, 0])

    def test_all_positive(self):
        m = binarize(ExportMatrix.from_dense([[3, 7], [2, 9]]))
        assert entries(m) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert_array_equal(m.diversification, [2, 2])
        assert_array_equal(m.ubiquity, [2, 2])

    def test_empty(self):
        m = binarize(ExportMatrix.from_dense(np.zeros((0, 0))))
        assert entries(m) == frozenset()
        assert m.diversification.shape == (0,)
        assert m.ubiquity.shape == (0,)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_counts_match_naive_recount(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.random((rng.integers(1, 8), rng.integers(1, 8)))
        dense[dense < 0.5] = 0.0
        m = binarize(ExportMatrix.from_dense(dense))
        for i in range(dense.shape[0]):
            assert m.diversification[i] == int((dense[i] > 0).sum())
        for j in range(dense.shape[1]):
            assert m.ubiquity[j] == int((dense[:, j] > 0).sum())
        assert m.diversification.sum() == m.ubiquity.sum() == len(entries(m))


def _dense_rca(dense: np.ndarray) -> np.ndarray:
    """RCA ratio of every cell, zero where nothing is exported. Totals are
    summed one entry at a time in (i, j) order, and the world total over
    the positive cells in that order, as rca_binarize sums them, so the
    ratios are its own bit for bit."""
    row_tot = np.cumsum(dense, axis=1)[:, -1]
    col_tot = np.cumsum(dense, axis=0)[-1]
    world = dense[dense > 0].sum()
    return (dense / row_tot[:, None]) / (col_tot / world)


def _kept_between(x: ExportMatrix, low: float, high: float) -> frozenset:
    """The cells rca_binarize keeps at threshold low but not at high."""
    return entries(rca_binarize(x, low)) - entries(rca_binarize(x, high))


class TestRca:
    """The ratios rca_binarize thresholds, read off by the cells kept
    between two thresholds."""

    def test_hand_example(self):
        # row shares / world column shares, worked out by hand:
        # totals row=[10,20], col=[20,10], world=30.
        x = ExportMatrix.from_dense([[10, 0], [10, 10]])
        assert _kept_between(x, 1.5 - 1e-12, 1.5 + 1e-12) == {(0, 0), (1, 1)}
        assert _kept_between(x, 0.75 - 1e-12, 0.75 + 1e-12) == {(1, 0)}
        assert entries(rca_binarize(x, 1.5 + 1e-12)) == set()

    def test_single_cell_is_unity(self):
        x = ExportMatrix.from_dense([[5.0]])
        assert _kept_between(x, 1.0 - 1e-12, 1.0 + 1e-12) == {(0, 0)}

    def test_uniform_matrix_is_unity(self):
        x = ExportMatrix.from_dense(np.full((3, 4), 2.5))
        assert len(_kept_between(x, 1.0 - 1e-12, 1.0 + 1e-12)) == 12

    def test_zero_marginal_raises(self):
        with pytest.raises(ZeroMarginal, match="country 'C1' has zero total exports"):
            rca_binarize(ExportMatrix.from_dense([[1, 1], [0, 0]]))

    def test_shares_reconstruct(self):
        """Each country's ratios average to 1 under the world column
        shares, and each product's under the world row shares, so at
        threshold 1 every country and every product keeps a cell."""
        rng = np.random.default_rng(4)
        dense = rng.random((5, 7)) + 0.1
        dense[dense < 0.4] = 0.0
        dense[:, 0] = dense[0, :] = 0.5  # no zero marginals
        ratios = _dense_rca(dense)
        world = dense.sum()
        assert_allclose(ratios @ (dense.sum(axis=0) / world), 1.0)
        assert_allclose(dense.sum(axis=1) / world @ ratios, 1.0)
        m = rca_binarize(ExportMatrix.from_dense(dense), 1.0)
        assert m.diversification.min() >= 1 and m.ubiquity.min() >= 1


class TestRcaBinarize:
    def test_hand_example(self):
        m = rca_binarize(ExportMatrix.from_dense([[10, 0], [10, 10]]), 1.0)
        assert entries(m) == {(0, 0), (1, 1)}

    def test_uniform_all_kept(self):
        m = rca_binarize(ExportMatrix.from_dense(np.full((3, 4), 1.0)))
        assert len(entries(m)) == 12

    def test_threshold_zero_equals_binarize(self):
        rng = np.random.default_rng(9)
        dense = rng.random((6, 9))
        dense[dense < 0.4] = 0.0
        dense[:, 0] = 0.5  # no zero marginals
        dense[0, :] = 0.5
        x = ExportMatrix.from_dense(dense)
        assert entries(rca_binarize(x, 0.0)) == entries(binarize(x))

    def test_ties_at_threshold_kept(self):
        # uniform matrix: every RCA is exactly 1
        m = rca_binarize(ExportMatrix.from_dense(np.ones((2, 2))), 1.0)
        assert len(entries(m)) == 4

    @pytest.mark.parametrize("seed", range(5))
    def test_keeps_the_cells_of_the_dense_rca(self, seed):
        """The per-entry ratios equal the dense matrix's bit for bit, so a
        threshold equal to a cell's ratio keeps that cell."""
        rng = np.random.default_rng(seed)
        dense = rng.random((8, 11))
        dense[dense < 0.3] = 0.0
        dense[:, 0] = dense[0, :] = 0.5  # no zero marginals
        x = ExportMatrix.from_dense(dense)
        ratios = _dense_rca(dense)
        for t in [1.0, *ratios[x.rows, x.cols][::5]]:
            kept = {(int(i), int(j)) for i, j in zip(*np.nonzero(ratios >= t)) if dense[i, j] > 0}
            assert entries(rca_binarize(x, t)) == kept

    def test_zero_marginal_raises(self):
        with pytest.raises(ZeroMarginal):
            rca_binarize(ExportMatrix.from_dense([[1, 0], [1, 0]]))

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 13])
    def test_blocks_keep_what_one_pass_keeps(self, monkeypatch, block):
        """Blocks of whole rows, some rows longer than a block, keep
        exactly the cells of the ratio computed over all entries at once,
        also at thresholds equal to a cell's ratio."""
        rng = np.random.default_rng(block)
        dense = np.exp(rng.normal(0.0, 2.0, (40, 30))) * (rng.random((40, 30)) < 0.6)
        dense[:, 0] = dense[0, :] = 1.0  # no zero marginals
        x = ExportMatrix.from_dense(dense)
        row_tot, col_tot = np.zeros(x.n_countries), np.zeros(x.n_products)
        np.add.at(row_tot, x.rows, x.vals)
        np.add.at(col_tot, x.cols, x.vals)
        ratios = (x.vals / row_tot[x.rows]) / (col_tot[x.cols] / x.vals.sum())
        monkeypatch.setattr(matrix, "_RCA_BLOCK", block)
        for t in [1.0, *ratios[::9]]:
            kept = ratios >= t
            assert entries(rca_binarize(x, t)) == set(zip(x.rows[kept].tolist(),
                                                          x.cols[kept].tolist()))

    def test_ratios_hold_no_entry_sized_temporary(self, monkeypatch):
        """A block of rows at a time, the ratios need no entry-sized float
        array: up to the constructor of the kept matrix, the call holds a
        byte-per-entry mask, the kept columns and one block's temporaries."""
        rng = np.random.default_rng(7)
        rows, cols = np.divmod(np.flatnonzero(rng.random(200 * 5000) < 0.2), 5000)
        labels = tuple(f"c{i}" for i in range(200)), tuple(f"p{j}" for j in range(5000))
        x = ExportMatrix.from_coordinates(*labels, rows, cols,
                                          np.exp(rng.normal(0.0, 2.0, len(rows))))
        whole = traced_peak(partial(rca_binarize, x))
        monkeypatch.setattr(matrix, "BinaryMatrix", lambda *args: args)
        ratios = traced_peak(partial(rca_binarize, x))
        # about 0.45x 8 bytes per entry; 2.0x when the ratio was computed over all entries
        assert ratios < 0.5 * 8 * x.n_entries
        # the constructor adds its order mask and the product label set, about 0.4x
        assert whole < 1.0 * 8 * x.n_entries

    def test_totals_copy_no_entry_array(self):
        """The row and column totals are summed from the read-only entry
        arrays as they are. A matrix whose last product has no entry is
        rejected right after the totals, so that call allocates next to
        nothing."""
        rng = np.random.default_rng(6)
        rows, cols = np.divmod(np.flatnonzero(rng.random(200 * 5000) < 0.2), 5000)
        present = cols < 4999
        labels = tuple(f"c{i}" for i in range(200)), tuple(f"p{j}" for j in range(5000))
        x = ExportMatrix.from_coordinates(*labels, rows[present], cols[present],
                                          rng.random(present.sum()) + 1.0)

        def reject():
            with pytest.raises(ZeroMarginal, match="'p4999'"):
                rca_binarize(x)

        # about 0.07x 8 bytes per entry, the int32 columns cast to intp a buffer at a
        # time; np.bincount copies a read-only index array and its weights: 2x
        assert traced_peak(reject) < 0.5 * 8 * x.n_entries


class TestPruneDegenerate:
    def test_drops_zero_row_and_column(self):
        m = prune_degenerate(BinaryMatrix.from_dense([[1, 0], [0, 0]]))
        assert m.n_countries == 1 and m.n_products == 1
        assert m.country_labels == ("C0",)
        assert m.product_labels == ("P0",)

    def test_identity_when_clean(self):
        m = BinaryMatrix.from_dense([[1, 1], [1, 1]])
        assert prune_degenerate(m) is m

    def test_all_zero_raises(self):
        with pytest.raises(EmptyMatrix):
            prune_degenerate(BinaryMatrix.from_dense(np.zeros((2, 3))))

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        dense = rng.random((8, 12)) < 0.2
        try:
            once = prune_degenerate(BinaryMatrix.from_dense(dense))
        except EmptyMatrix:
            pytest.skip("draw emptied the matrix")
        twice = prune_degenerate(once)
        assert entries(twice) == entries(once)
        assert twice.country_labels == once.country_labels

    def test_labels_preserved(self):
        m = BinaryMatrix.from_dense(
            [[1, 0, 1], [0, 0, 0], [1, 0, 0]],
            country_labels=("A", "B", "C"),
            product_labels=("x", "y", "z"),
        )
        pruned = prune_degenerate(m)
        assert pruned.country_labels == ("A", "C")
        assert pruned.product_labels == ("x", "z")


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_margin_sums_agree_everywhere(seed):
    """sum(d) == sum(u) == |entries| for any matrix any operation built."""
    rng = np.random.default_rng(seed)
    dense = rng.random((rng.integers(2, 9), rng.integers(2, 9)))
    dense[dense < rng.uniform(0.2, 0.8)] = 0.0
    x = ExportMatrix.from_dense(dense)
    mats = [binarize(x)]
    try:
        mats.append(rca_binarize(x))
    except ZeroMarginal:
        pass
    try:
        mats.append(prune_degenerate(mats[0]))
    except EmptyMatrix:
        pass
    for m in mats:
        assert m.diversification.sum() == m.ubiquity.sum() == len(entries(m))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        BinaryMatrix.from_dense([[1, 1], [1, 1]], country_labels=("A", "A"))
    with pytest.raises(ValueError):
        ExportMatrix.from_dense([[1.0, 2.0]], product_labels=("x", "x"))


class TestFirstRepeat:
    """The one duplicate-label rule: the labels' hashes are sorted, and
    labels are compared only where two hashes collide."""

    @pytest.mark.parametrize("labels, first", [
        ((), -1), (("a",), -1), (("a", "b"), -1), (("a", "a"), 1),
        (("a", "b", "a", "b"), 2), (("a", "b", "b", "a"), 2),
        (tuple(map(SameHash, "abcde")), -1), (tuple(map(SameHash, "abcbe")), 3),
    ])
    def test_first_repeated_position(self, labels, first):
        assert matrix._first_repeat(labels) == first

    @pytest.mark.parametrize("seed", range(20))
    def test_agrees_with_a_set_scan(self, seed):
        rng = np.random.default_rng(seed)
        labels = tuple(f"L{k}" for k in rng.integers(0, 400, rng.integers(0, 300)))
        seen, first = set(), -1
        for k, label in enumerate(labels):  # the reference: one set, in label order
            if label in seen:
                first = k
                break
            seen.add(label)
        assert matrix._first_repeat(labels) == first

    def test_distinct_labels_of_one_hash_are_kept(self):
        labels = tuple(map(SameHash, "abcde"))
        m = BinaryMatrix.from_dense(np.eye(5), country_labels=labels, product_labels=labels)
        assert m.country_labels == m.product_labels == labels

    @pytest.mark.parametrize("earlier", [0, 4_321])
    def test_a_repeat_is_found_however_far_its_first_copy(self, earlier):
        labels = tuple(f"p{j}" for j in range(5_000)) + (f"p{earlier}", "p0")
        assert matrix._first_repeat(labels) == 5_000
        with pytest.raises(ValueError, match="^duplicate product labels$"):
            BinaryMatrix.from_coordinates(("a",), labels, [0], [0])


def test_export_matrix_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        ExportMatrix(("A",), ("x",), np.array([0, 1]), np.array([0]), np.array([-1.0]))


def test_export_matrix_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            ExportMatrix(("A", "B"), ("x",), np.array([0, 1, 2]), np.array([0, 0]),
                         np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        ExportMatrix.from_dense([[np.inf, 1], [1, 2]])
    with pytest.raises(ValueError, match="finite"):
        ExportMatrix.from_dense([[np.nan, 1], [1, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -2.0])
def test_binary_from_dense_rejects_non_finite_and_negative_cells(bad):
    with pytest.raises(ValueError, match="finite and non-negative"):
        BinaryMatrix.from_dense([[bad, 1.0, 0.0], [1.0, 0.0, 1.0]])
    m = BinaryMatrix.from_dense([[2.0, 1.0, 0.0], [True, False, 1]])
    assert m.diversification.tolist() == [2, 2]


def _make(kind, rows, cols, n=2, m=2):
    """A BinaryMatrix or an all-ones ExportMatrix on the given coordinates."""
    labels = tuple(f"c{i}" for i in range(n)), tuple(f"p{j}" for j in range(m))
    if kind is BinaryMatrix:
        return BinaryMatrix.from_coordinates(*labels, rows, cols)
    return ExportMatrix.from_coordinates(*labels, rows, cols, np.ones(len(rows)))


@pytest.mark.parametrize("kind", [BinaryMatrix, ExportMatrix])
class TestEntryInvariant:
    def test_repeated_entry_rejected(self, kind):
        with pytest.raises(ValueError, match="repeated"):
            _make(kind, np.array([0, 0, 1]), np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="repeated"):
            _make(kind, np.array([1, 0, 1]), np.array([1, 0, 1]))  # apart before sorting

    @pytest.mark.parametrize("rows, cols", [
        ([0, 2], [0, 0]), ([0, -1], [0, 0]), ([0, 1], [0, 2]), ([0, 1], [-1, 0]),
    ])
    def test_out_of_range_entry_rejected(self, kind, rows, cols):
        with pytest.raises(ValueError, match="matrix entry out of range"):
            _make(kind, np.array(rows), np.array(cols))

    def test_coordinates_must_be_integer_and_aligned(self, kind):
        with pytest.raises(ValueError, match="integers"):
            _make(kind, np.array([0.0, 1.7]), np.array([0, 1]))
        with pytest.raises(ValueError, match="equal length"):
            _make(kind, np.array([0, 1]), np.array([0]))
        if kind is ExportMatrix:
            with pytest.raises(ValueError, match="equal length"):
                ExportMatrix(("a",), ("x",), np.array([0, 1]), np.array([0]), np.ones(2))

    def test_list_coordinates_accepted(self, kind):
        m = _make(kind, [1, 0], [0, 1])
        assert m.rows.dtype == m.offsets.dtype == np.intp and m.cols.dtype == np.int32
        assert m.rows.tolist() == [0, 1] and m.cols.tolist() == [1, 0]
        b = m if kind is BinaryMatrix else binarize(m)
        assert entries(b) == {(0, 1), (1, 0)}
        empty = _make(kind, [], [])
        assert empty.n_entries == 0 and empty.to_dense().sum() == 0


def test_permuted_export_matrix_equals_sorted():
    rng = np.random.default_rng(3)
    dense = rng.random((7, 11))
    dense[dense < 0.5] = 0.0
    x = ExportMatrix.from_dense(dense)
    perm = rng.permutation(len(x.rows))
    y = ExportMatrix.from_coordinates(x.country_labels, x.product_labels,
                                      x.rows[perm], x.cols[perm], x.vals[perm])
    assert_array_equal(y.rows, x.rows)
    assert_array_equal(y.cols, x.cols)
    assert_array_equal(y.vals, x.vals)
    assert_array_equal(y.to_dense(), dense)
    bx, by = binarize(x), binarize(y)
    assert_array_equal(by.diversification, bx.diversification)
    assert_array_equal(by.ubiquity, bx.ubiquity)
    assert entries(by) == entries(bx) == set(zip(*(a.tolist() for a in np.nonzero(dense))))


def test_stored_entries_are_read_only():
    rows, cols = np.array([0, 1]), np.array([1, 0])
    m = BinaryMatrix.from_coordinates(("a", "b"), ("x", "y"), rows, cols)
    x = ExportMatrix.from_coordinates(("a", "b"), ("x", "y"), rows, cols, np.ones(2))
    for arr in (m.offsets, m.rows, m.cols, x.offsets, x.rows, x.cols, x.vals, binarize(x).rows):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = -1
    rows[0] = 0  # the caller's own arrays stay writable


def test_diversification_and_ubiquity_are_read_only():
    m = BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    for counts in (m.diversification, m.ubiquity):
        with pytest.raises(ValueError, match="read-only"):
            counts[0] = 99
    assert m.diversification.sum() == m.ubiquity.sum() == m.n_entries == 6


def test_caller_arrays_stay_apart_from_stored_entries(tmp_path):
    """Changing an array after handing it to a constructor leaves the
    checked matrix as it was."""
    r, c, v = np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0])
    m = BinaryMatrix.from_coordinates(("a", "b"), ("x", "y"), r, c)
    x = ExportMatrix.from_coordinates(("a", "b"), ("x", "y"), r, c, v)
    r[0], c[1], v[0] = -1, 0, -3.0
    assert m.rows.tolist() == x.rows.tolist() == [0, 1]
    assert m.cols.tolist() == x.cols.tolist() == [0, 1]
    assert x.vals.tolist() == [1.0, 2.0]
    write_matrix(m, tmp_path / "m.txt")
    assert entries(read_matrix(tmp_path / "m.txt")) == {(0, 0), (1, 1)}


def test_sorted_read_only_entries_are_checked_and_counted_in_place():
    rows, cols = np.divmod(np.flatnonzero(np.random.default_rng(5).random(200 * 5000) < 0.5), 5000)
    offsets, cols = np.searchsorted(rows, np.arange(201)), cols.astype(np.int32)
    offsets.flags.writeable = cols.flags.writeable = False
    labels = tuple(f"c{i}" for i in range(200)), tuple(f"p{j}" for j in range(5000))
    m = []
    peak = traced_peak(lambda: m.append(BinaryMatrix(*labels, offsets, cols)))
    assert np.shares_memory(m[0].cols, cols)
    # about 0.16x 8 bytes per entry; int64 columns are cast to int32, 0.63x; an int64
    # (i, j) key alone is 1x, and np.bincount copies a read-only index array
    assert peak < 0.3 * 8 * len(cols)


def test_read_only_entries_are_shared_not_copied():
    x = ExportMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]])
    b = binarize(x)
    assert np.shares_memory(b.offsets, x.offsets) and np.shares_memory(b.cols, x.cols)


_LABELS = ("a", "b", "c"), ("x", "y", "z")


@pytest.mark.parametrize("kind", [BinaryMatrix, ExportMatrix])
class TestRowOffsetLayout:
    """The constructor takes row offsets and columns, checks the layout
    and never sorts; from_coordinates is the path that sorts (its repeats
    are TestEntryInvariant's)."""

    @staticmethod
    def _build(kind, offsets, cols):
        vals = (np.ones(len(cols)),) if kind is ExportMatrix else ()
        return kind(*_LABELS, offsets, cols, *vals)

    @pytest.mark.parametrize("offsets, cols", [
        ([0, 1, 2], [0, 1]),  # one offset short
        ([0, 1, 2, 2, 2], [0, 1]),  # one offset too many
        ([[0, 1, 2, 2]], [0, 1]),  # not 1-d
        ([1, 1, 2, 2], [0, 1]),  # does not start at 0
        ([0, 2, 1, 2], [0, 1]),  # decreases
        ([0, 1, 2, 3], [0, 1]),  # ends past the entries
        ([0, 1, 1, 1], [0, 1]),  # ends before the last entry
        ([0.0, 1.0, 2.0, 2.0], [0, 1]),  # not integers
        ([0, 2, 2, 2], [1, 0]),  # columns out of order within a row
        ([0, 2, 2, 2], [1, 1]),  # a repeated entry
        ([0, 1, 2, 2], [0, 3]),  # a column past the last product
        ([0, 1, 2, 2], [0, -1]),  # a negative column
    ], ids=["short", "long", "2-d", "start", "decrease", "past-end", "before-end", "float",
            "order", "repeat", "column-high", "column-negative"])
    def test_constructor_rejects_a_broken_layout(self, kind, offsets, cols):
        with pytest.raises(ValueError):
            self._build(kind, np.array(offsets), np.array(cols))

    @pytest.mark.parametrize("col", [2**31, 2**32])
    def test_a_column_beyond_int32_is_out_of_range_not_wrapped(self, kind, col):
        """Columns are stored as int32, and the range is checked on the
        int64 array as given: 2**32 would wrap to the valid column 0."""
        with pytest.raises(ValueError, match="matrix entry out of range"):
            self._build(kind, [0, 1, 2, 2], np.array([0, col], dtype=np.int64))
        with pytest.raises(ValueError, match="matrix entry out of range"):
            kind.from_coordinates(*_LABELS, [0, 1], np.array([0, col], dtype=np.int64),
                                  *((np.ones(2),) if kind is ExportMatrix else ()))

    def test_constructor_keeps_a_valid_layout(self, kind):
        # an empty middle row, and a column that falls where a new row starts
        m = self._build(kind, [0, 2, 2, 3], [1, 2, 0])
        assert m.offsets.tolist() == [0, 2, 2, 3] and m.cols.tolist() == [1, 2, 0]
        assert m.rows.tolist() == [0, 0, 2]
        assert entries(m) == {(0, 1), (0, 2), (2, 0)}

    @pytest.mark.parametrize("seed", range(20))
    def test_from_coordinates_equals_from_dense(self, kind, seed):
        """Entries in any order, with empty first, last and consecutive
        middle rows, give the matrix from_dense gives."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(5, 12)), int(rng.integers(1, 9))
        dense = rng.uniform(0.5, 2.0, (n, m)) * (rng.random((n, m)) < 0.6)
        middle = int(rng.integers(1, n - 2))
        dense[[0, middle, middle + 1, n - 1]] = 0.0
        want = kind.from_dense(dense)
        rows, cols = np.nonzero(dense)
        perm = rng.permutation(len(rows))
        vals = (dense[rows, cols][perm],) if kind is ExportMatrix else ()
        got = kind.from_coordinates(want.country_labels, want.product_labels,
                                    rows[perm], cols[perm], *vals)
        assert got.offsets.tolist() == want.offsets.tolist()
        assert got.cols.tolist() == want.cols.tolist()
        if kind is ExportMatrix:
            assert got.vals.tolist() == want.vals.tolist()
        assert_array_equal(got.to_dense() > 0, dense > 0)

    def test_from_coordinates_of_no_entry(self, kind):
        want = kind.from_dense(np.zeros((3, 4)))
        vals = ([],) if kind is ExportMatrix else ()
        got = kind.from_coordinates(want.country_labels, want.product_labels, [], [], *vals)
        assert got.offsets.tolist() == want.offsets.tolist() == [0, 0, 0, 0]
        assert got.n_entries == want.n_entries == 0


@pytest.mark.parametrize("drop_products", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_prune_matches_dense_reference(seed, drop_products):
    """Empty rows at both ends and in the middle, with or without empty
    columns: the labels and entries of the dense matrix with those rows
    and columns deleted."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(6, 14)), int(rng.integers(3, 10))
    dense = rng.random((n, m)) < 0.4
    dense[1] = True  # every column has an entry
    middle = int(rng.integers(2, n - 2))
    dense[[0, middle, middle + 1, n - 1]] = False
    if drop_products:
        dense[:, [0, m - 1]] = False
    labels = tuple(f"c{i}" for i in range(n)), tuple(f"p{j}" for j in range(m))
    pruned = prune_degenerate(BinaryMatrix.from_dense(dense, *labels))
    keep_c, keep_p = dense.any(axis=1), dense.any(axis=0)
    reference = dense[keep_c][:, keep_p]
    assert pruned.country_labels == tuple(np.array(labels[0])[keep_c].tolist())
    assert pruned.product_labels == tuple(np.array(labels[1])[keep_p].tolist())
    assert entries(pruned) == set(zip(*(a.tolist() for a in np.nonzero(reference))))
    assert_array_equal(pruned.diversification, reference.sum(axis=1))


def test_prune_dropping_countries_remaps_no_entry():
    """Dropping empty countries slices the row offsets and shares the
    columns, so the call allocates no entry-sized array."""
    rng = np.random.default_rng(8)
    dense = rng.random((200, 5000)) < 0.5
    dense[[0, 100, 101, 199]] = False
    m = BinaryMatrix.from_dense(dense)
    assert m.ubiquity.min() > 0
    pruned = []
    peak = traced_peak(lambda: pruned.append(prune_degenerate(m)))
    assert np.shares_memory(pruned[0].cols, m.cols)
    # about 0.17x 8 bytes per entry, the constructor's byte-per-entry order mask and the
    # product label set; 1.4x when each entry's row was remapped
    assert peak < 0.3 * 8 * m.n_entries
