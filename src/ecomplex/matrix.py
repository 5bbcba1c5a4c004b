"""Country-product matrices: construction, binarization, RCA filtering.

The two core types are thin immutable wrappers over row offsets and
columns that hold each entry once, inside the matrix, in (i, j) order.
``ExportMatrix`` holds finite, strictly positive export values; ``BinaryMatrix``
holds presence/absence plus the derived diversification and ubiquity
count vectors. Everything downstream (complexity metrics, validation)
consumes a pruned ``BinaryMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, pairwise
from typing import NamedTuple

import numpy as np

from .errors import EmptyMatrix, ZeroMarginal

__all__ = [
    "ExportMatrix",
    "BinaryMatrix",
    "ColumnClasses",
    "binarize",
    "rca_binarize",
    "prune_degenerate",
]


def _first_repeat(labels) -> int:
    """The position of the first label equal to an earlier one, or -1.
    The labels' hash() values are sorted, and real labels are compared
    only where two hashes collide, so no label-sized hash table is built."""
    hashes = np.fromiter(map(hash, labels), np.int64, len(labels))
    hashes.sort()
    shared, first = set(hashes[1:][hashes[1:] == hashes[:-1]].tolist()), {}
    # first: each label of a shared hash, at the position where it first came
    return next((k for k, label in enumerate(labels if shared else ())
                 if hash(label) in shared and first.setdefault(label, k) != k), -1)


@dataclass(frozen=True)
class _CoordinateMatrix:
    """Country and product labels plus the entries as row offsets and
    columns: country i's entries are ``cols[offsets[i]:offsets[i + 1]]``.

    Construction enforces the invariant every consumer relies on: labels
    are unique (``_first_repeat``, with no label-sized set), the offsets
    rise from 0 to the entry count, and each row's columns lie inside the
    matrix and increase strictly. It never sorts; ``from_coordinates``
    does. The offsets are stored as ``intp``, since the entry count may
    pass 2**31, and the columns as 32-bit integers, after their range is
    checked on the array as given, so no column wraps. The stored arrays
    are read-only and shared with no array the caller can still write to.
    """

    country_labels: tuple[str, ...]
    product_labels: tuple[str, ...]
    offsets: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    # the stored arrays and their dtypes; each after the offsets holds one element per entry
    _array_dtypes = {"offsets": np.intp, "cols": np.int32}

    def __post_init__(self):
        for kind, labels in (("country", self.country_labels), ("product", self.product_labels)):
            if _first_repeat(labels) >= 0:
                raise ValueError(f"duplicate {kind} labels")
        for name, dtype in self._array_dtypes.items():
            given = getattr(self, name)
            array = np.asarray(given, order="C")
            if array.size and name != "vals" and array.dtype.kind not in "iu":
                raise ValueError("row offsets and columns must be integers")
            if (name == "cols" and array.size  # checked before the cast, so no column wraps
                    and not (0 <= array.min() and array.max() < self.n_products)):
                raise ValueError("matrix entry out of range")
            array = array.astype(dtype, copy=False)
            if (isinstance(given, np.ndarray) and given.flags.writeable
                    and np.may_share_memory(array, given)):
                array = array.copy()  # the caller could still change it
            array.flags.writeable = False  # read-only, so the entries stay as checked
            object.__setattr__(self, name, array)
        offsets, cols, *vals = (getattr(self, name) for name in self._array_dtypes)
        if cols.ndim != 1 or any(v.shape != cols.shape for v in vals):
            raise ValueError("entry arrays must be 1-d and of equal length")
        if (offsets.shape != (self.n_countries + 1,) or offsets[0] != 0
                or offsets[-1] != len(cols) or np.any(offsets[1:] < offsets[:-1])):
            raise ValueError("row offsets must be n_countries + 1 rising from 0 to n_entries")
        rising = np.empty(len(cols) + 1, dtype=bool)  # rising[k]: entry k follows entry k - 1
        np.greater(cols[1:], cols[:-1], out=rising[1:-1])
        rising[offsets] = True  # a row may start at any column
        if not rising.all():
            raise ValueError("repeated matrix entry, or columns out of order in a row")

    @classmethod
    def from_coordinates(cls, country_labels, product_labels, rows, cols, *vals):
        """The matrix of entries given in any order by coordinates (and
        values): the one path that sorts them into (i, j) order. Raises
        ValueError for a repeated or out-of-range entry, non-integer
        coordinates and entry arrays of different lengths."""
        n, m = len(country_labels), len(product_labels)
        rows, cols, *vals = map(np.asarray, (rows, cols, *vals))
        if rows.ndim != 1 or any(a.shape != rows.shape for a in (cols, *vals)):
            raise ValueError("entry arrays must be 1-d and of equal length")
        if rows.size and not {rows.dtype.kind, cols.dtype.kind} <= set("iu"):
            raise ValueError("matrix coordinates must be integers")
        if rows.size and not (0 <= rows.min() and rows.max() < n
                              and 0 <= cols.min() and cols.max() < m):
            raise ValueError("matrix entry out of range")
        key = rows.astype(np.intp) * m + cols.astype(np.intp, copy=False)
        if not np.all(key[1:] > key[:-1]):  # sorted input is stored as given
            order = np.argsort(key, kind="stable")
            key = key[order]  # a repeated entry repeats its column: the constructor rejects it
            cols, *vals = (array[order] for array in (cols, *vals))
            for array in (cols, *vals):  # fresh, so the constructor stores them uncopied
                array.flags.writeable = False
        offsets = np.searchsorted(key, np.arange(n + 1) * m)
        return cls(country_labels, product_labels, offsets, cols, *vals)

    @staticmethod
    def _dense_labels(dense: np.ndarray, country_labels, product_labels):
        if dense.ndim != 2:
            raise ValueError("expected a 2-d array")
        n, m = dense.shape
        if country_labels is None:
            country_labels = (f"C{i}" for i in range(n))
        if product_labels is None:
            product_labels = (f"P{j}" for j in range(m))
        return tuple(country_labels), tuple(product_labels)

    @property
    def n_countries(self) -> int:
        return len(self.country_labels)

    @property
    def n_products(self) -> int:
        return len(self.product_labels)

    @property
    def n_entries(self) -> int:
        return len(self.cols)

    @property
    def rows(self) -> np.ndarray:
        """Each entry's row: derived from the offsets on each call, never
        stored, and entry-sized, so the model path never asks for it."""
        rows = np.repeat(np.arange(self.n_countries), np.diff(self.offsets))
        rows.flags.writeable = False
        return rows

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_countries, self.n_products))
        dense[self.rows, self.cols] = getattr(self, "vals", 1.0)  # a binary matrix holds ones
        return dense


@dataclass(frozen=True)
class ExportMatrix(_CoordinateMatrix):
    """Sparse country-by-product matrix of finite, strictly positive
    export values.

    ``vals`` holds each entry's value, parallel to ``cols``. Zeros mean
    absence and are never stored.
    """

    vals: np.ndarray = field(repr=False)

    _array_dtypes = {**_CoordinateMatrix._array_dtypes, "vals": np.float64}

    def __post_init__(self):
        vals = np.asarray(self.vals, dtype=float)
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise ValueError("stored export values must be finite and strictly positive")
        super().__post_init__()

    @classmethod
    def from_dense(cls, dense, country_labels=None, product_labels=None) -> "ExportMatrix":
        """Positive cells become entries; a NaN cell is kept, so it is rejected."""
        dense = np.asarray(dense, dtype=float)
        labels = cls._dense_labels(dense, country_labels, product_labels)
        rows, cols = np.nonzero(~(dense <= 0))
        return cls.from_coordinates(*labels, rows, cols, dense[rows, cols])


class ColumnClasses(NamedTuple):
    """A binary matrix's products grouped by their column.

    Products made by exactly the same countries form one class. Classes
    are numbered in order of their first product, so a matrix with no
    repeated column has one class per product, in product order. ECI/PCI
    and fitness both read the class matrix as float 0/1.
    """

    matrix: np.ndarray  # n_countries x n_classes float 0/1: each class's column, unpacked
    counts: np.ndarray  # float number of products in each class
    inverse: np.ndarray  # class of each product, from grouping the packed column keys
    first: np.ndarray  # first product of each class


@dataclass(frozen=True)
class BinaryMatrix(_CoordinateMatrix):
    """Presence/absence matrix with diversification and ubiquity counts.

    ``diversification[i]`` is the number of entries in row i and
    ``ubiquity[j]`` the number in column j; both are computed once at
    construction and read-only, like the entries. The invariant
    sum(d) == sum(u) == number of entries holds by construction.
    """

    diversification: np.ndarray = field(init=False, repr=False)
    ubiquity: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        u = np.zeros(self.n_products, dtype=np.intp)
        np.add.at(u, self.cols, 1)  # np.bincount would copy the read-only column array first
        for name, counts in (("diversification", np.diff(self.offsets)), ("ubiquity", u)):
            counts.flags.writeable = False  # they stay the counts of the entries
            object.__setattr__(self, name, counts)

    @classmethod
    def from_dense(cls, dense, country_labels=None, product_labels=None) -> "BinaryMatrix":
        """Nonzero cells become entries; a NaN, infinite or negative cell is rejected."""
        dense = np.asarray(dense)
        labels = cls._dense_labels(dense, country_labels, product_labels)
        if not np.all(np.isfinite(dense) & (dense >= 0)):
            raise ValueError("binary matrix cells must be finite and non-negative")
        return cls.from_coordinates(*labels, *np.nonzero(dense))

    @cached_property
    def column_classes(self) -> ColumnClasses:
        """Products grouped by column, built once per matrix.

        Each product's column is packed into bytes, one bit per country,
        and the byte strings are compared as opaque keys, which is far
        cheaper than comparing dense columns. The keys are set straight
        from the entries: country i's products are its run of ``cols``,
        and one OR per country sets bit i in each of their keys. A spare
        always-absent country keeps the key at least one byte wide when
        the matrix has no countries.
        """
        n, m = self.n_countries, self.n_products
        packed = np.zeros((m, n // 8 + 1), dtype=np.uint8)  # one key per product, n + 1 bits
        bounds = self.offsets.tolist()
        for i in range(n):  # bit i of a key is bit 7 - i % 8 of byte i // 8, as np.packbits packs
            byte = packed[:, i >> 3]
            # one intp copy of the row's columns, which the read and the write of |= both index
            byte[self.cols[bounds[i]:bounds[i + 1]].astype(np.intp)] |= np.uint8(0x80 >> (i & 7))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)  # from key order to first-occurrence order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first = first[order]
        columns = np.unpackbits(packed[first], axis=1, count=n)
        classes = ColumnClasses(matrix=np.ascontiguousarray(columns.T, dtype=float),
                                counts=counts[order].astype(float),
                                inverse=rank[inverse],
                                first=first)
        for array in classes:  # shared by every kernel that reads the matrix
            array.flags.writeable = False
        return classes


def binarize(x: ExportMatrix) -> BinaryMatrix:
    """m_ij = 1 exactly where x_ij > 0.

    Positivity is enforced at ExportMatrix construction, so the binary
    matrix shares the export matrix's read-only offsets and columns.
    """
    return BinaryMatrix(x.country_labels, x.product_labels, x.offsets, x.cols)


_RCA_BLOCK = 1 << 13  # about this many entries per block of rows in rca_binarize


def rca_binarize(x: ExportMatrix, threshold: float = 1.0) -> BinaryMatrix:
    """Binary matrix keeping cells whose RCA meets the threshold.

    RCA_ij = (x_ij / row_i total) / (column_j total / world total). Ties
    at the threshold are kept (>=). Only cells with positive exports are
    candidates, so threshold 0 reproduces plain binarization. The ratios
    are computed per stored entry, a block of whole rows at a time, with
    no dense matrix and no entry-sized temporary. Raises
    ZeroMarginal when any row or column sums to zero, since the ratio is
    then undefined; prune first.
    """
    if x.n_entries == 0:  # entries lie inside the matrix, so it has rows and columns
        raise ZeroMarginal("matrix has no positive entries")
    sizes = np.diff(x.offsets)  # values are positive, so only an empty row totals zero
    if not sizes.all():
        raise ZeroMarginal(f"country {x.country_labels[sizes.argmin()]!r} has zero total exports")
    col_tot = np.zeros(x.n_products)
    np.add.at(col_tot, x.cols, x.vals)  # as for ubiquity, np.bincount would copy
    if not col_tot.all():
        raise ZeroMarginal(f"product {x.product_labels[col_tot.argmin()]!r} has zero total exports")
    col_share = col_tot / float(x.vals.sum())  # col_tot[x.cols] / world, a product at a time
    keep = np.empty(x.n_entries, dtype=bool)
    bounds = x.offsets.tolist()
    # blocks of whole rows, a new one at each row holding a multiple of _RCA_BLOCK entries,
    # so no temporary is entry-sized
    starts = np.searchsorted(x.offsets, np.arange(0, x.n_entries, _RCA_BLOCK), side="right") - 1
    for r0, r1 in pairwise([*dict.fromkeys(starts.tolist()), x.n_countries]):
        a, b, runs = bounds[r0], bounds[r1], sizes[r0:r1]
        # np.bincount sums each row's values in entry order from 0.0, as np.add.at does
        row_tot = np.bincount(np.repeat(np.arange(r1 - r0), runs), x.vals[a:b], r1 - r0)
        ratio = np.repeat(row_tot, runs)
        np.divide(x.vals[a:b], ratio, out=ratio)
        ratio /= np.take(col_share, x.cols[a:b])
        np.greater_equal(ratio, threshold, out=keep[a:b])
    kept = [np.count_nonzero(keep[a:b]) for a, b in pairwise(bounds)]
    offsets, cols = np.concatenate([[0], np.cumsum(kept, dtype=np.intp)]), x.cols[keep]
    offsets.flags.writeable = cols.flags.writeable = False  # handed over, so stored uncopied
    return BinaryMatrix(x.country_labels, x.product_labels, offsets, cols)


def prune_degenerate(m: BinaryMatrix) -> BinaryMatrix:
    """Drop countries with d = 0 and products with u = 0.

    For a binary matrix one sweep suffices: removing an empty row deletes
    no entries, so no column count can fall to zero as a consequence (and
    vice versa). The surviving labels keep their original names and order.
    Raises EmptyMatrix when nothing survives. Idempotent.
    """
    keep_c = m.diversification > 0
    keep_p = m.ubiquity > 0
    if not keep_c.any() or not keep_p.any():
        raise EmptyMatrix("no countries or products with entries remain")
    if keep_c.all() and keep_p.all():
        return m
    # an axis that loses nothing keeps its labels and read-only arrays as they are
    countries, offsets = m.country_labels, m.offsets
    products, cols = m.product_labels, m.cols
    if not keep_c.all():
        countries = tuple(compress(countries, keep_c))
        offsets = np.append(offsets[:-1][keep_c], offsets[-1])  # an empty row holds no entry
    if not keep_p.all():
        products = tuple(compress(products, keep_p))
        cols = (np.cumsum(keep_p, dtype=np.int32) - 1)[cols]
    offsets.flags.writeable = cols.flags.writeable = False  # handed over, so stored uncopied
    return BinaryMatrix(countries, products, offsets, cols)
