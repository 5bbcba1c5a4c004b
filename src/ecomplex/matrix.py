"""Country-product matrices: construction, binarization, RCA filtering.

The two core types are thin immutable wrappers over coordinate arrays
that hold each entry once, inside the matrix, in (i, j) order.
``ExportMatrix`` holds finite, strictly positive export values; ``BinaryMatrix``
holds presence/absence plus the derived diversification and ubiquity
count vectors. Everything downstream (complexity metrics, validation)
consumes a pruned ``BinaryMatrix``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
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


def _in_entry_order(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether the entries are in strictly increasing (i, j) order, found
    with byte-per-entry masks and no entry-sized integer key."""
    row_up = rows[1:] > rows[:-1]
    same_row = rows[1:] == rows[:-1]
    same_row &= cols[1:] > cols[:-1]
    row_up |= same_row
    return bool(row_up.all())


@dataclass(frozen=True)
class _CoordinateMatrix:
    """Country and product labels plus parallel entry coordinates.

    Construction enforces the invariant every consumer relies on: labels
    are unique, and each entry lies inside the matrix, appears once, and
    is stored in row-major (i, j) order. Entries given in another order
    are sorted once, together with any per-entry values. The stored
    arrays are read-only and shared with no array the caller can still
    write to.
    """

    country_labels: tuple[str, ...]
    product_labels: tuple[str, ...]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    # per-entry arrays, permuted together, and the dtype each is stored in
    _entry_dtypes = {"rows": np.intp, "cols": np.intp}

    def __post_init__(self):
        for kind, labels in (("country", self.country_labels),
                             ("product", self.product_labels)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {kind} labels")
        given = {name: getattr(self, name) for name in self._entry_dtypes}
        arrays = {}
        for name, dtype in self._entry_dtypes.items():
            array = np.asarray(given[name], order="C")
            if (array.size and np.issubdtype(dtype, np.integer)
                    and not np.issubdtype(array.dtype, np.integer)):
                raise ValueError("matrix coordinates must be integers")
            arrays[name] = array.astype(dtype, copy=False)
        rows, cols, n, m = arrays["rows"], arrays["cols"], self.n_countries, self.n_products
        if rows.ndim != 1 or any(a.shape != rows.shape for a in arrays.values()):
            raise ValueError("entry arrays must be 1-d and of equal length")
        if len(rows) and not (0 <= rows.min() and rows.max() < n
                              and 0 <= cols.min() and cols.max() < m):
            raise ValueError("matrix entry out of range")
        order = slice(None)  # sorted input is kept in place
        if not _in_entry_order(rows, cols):
            key = rows * m + cols
            order = np.argsort(key, kind="stable")
            if np.any(np.diff(key[order]) == 0):
                raise ValueError("repeated matrix entry")
        for name, array in arrays.items():  # read-only, so the entries stay as checked
            stored = array[order]
            source = given[name]
            if (isinstance(source, np.ndarray) and source.flags.writeable
                    and np.may_share_memory(stored, source)):
                stored = stored.copy()  # the caller could still change it
            stored.flags.writeable = False
            object.__setattr__(self, name, stored)

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
        return len(self.rows)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_countries, self.n_products))
        dense[self.rows, self.cols] = getattr(self, "vals", 1.0)  # a binary matrix holds ones
        return dense


@dataclass(frozen=True)
class ExportMatrix(_CoordinateMatrix):
    """Sparse country-by-product matrix of finite, strictly positive
    export values.

    ``rows``/``cols`` are parallel int arrays of coordinates, ``vals`` the
    matching values. Zeros mean absence and are never stored.
    """

    vals: np.ndarray = field(repr=False)

    _entry_dtypes = {**_CoordinateMatrix._entry_dtypes, "vals": np.float64}

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
        return cls(*labels, rows, cols, dense[rows, cols])


class ColumnClasses(NamedTuple):
    """A binary matrix's products grouped by their column.

    Products made by exactly the same countries form one class. Classes
    are numbered in order of their first product, so a matrix with no
    repeated column has one class per product, in product order.
    """

    matrix: np.ndarray  # n_countries x n_classes bool: each class's column, unpacked from its key
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
        # the rows are sorted, so each country's entries are one run
        d = np.diff(np.searchsorted(self.rows, np.arange(self.n_countries + 1)))
        # np.bincount would copy the read-only column array first
        u = np.zeros(self.n_products, dtype=np.intp)
        np.add.at(u, self.cols, 1)
        d.flags.writeable = u.flags.writeable = False  # they stay the counts of the entries
        object.__setattr__(self, "diversification", d)
        object.__setattr__(self, "ubiquity", u)

    @classmethod
    def from_dense(cls, dense, country_labels=None, product_labels=None) -> "BinaryMatrix":
        """Nonzero cells become entries; a NaN, infinite or negative cell is rejected."""
        dense = np.asarray(dense)
        labels = cls._dense_labels(dense, country_labels, product_labels)
        if not np.all(np.isfinite(dense) & (dense >= 0)):
            raise ValueError("binary matrix cells must be finite and non-negative")
        return cls(*labels, *np.nonzero(dense))

    @cached_property
    def entries(self) -> frozenset[tuple[int, int]]:
        return frozenset(zip(self.rows.tolist(), self.cols.tolist()))

    @cached_property
    def column_classes(self) -> ColumnClasses:
        """Products grouped by column, built once per matrix.

        Each product's column is packed into bytes, one bit per country,
        and the byte strings are compared as opaque keys, which is far
        cheaper than comparing dense columns. The keys are set straight
        from the (i, j)-sorted entries: country i's products are one run
        of ``cols``, and one OR per country sets bit i in each of their
        keys. A spare always-absent country keeps the key at least one
        byte wide when the matrix has no countries.
        """
        n, m = self.n_countries, self.n_products
        packed = np.zeros((m, n // 8 + 1), dtype=np.uint8)  # one key per product, n + 1 bits
        bounds = np.searchsorted(self.rows, np.arange(n + 1)).tolist()
        for i in range(n):  # bit i of a key is bit 7 - i % 8 of byte i // 8, as np.packbits packs
            packed[self.cols[bounds[i]:bounds[i + 1]], i >> 3] |= np.uint8(0x80 >> (i & 7))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True)
        order = np.argsort(first)  # from key order to first-occurrence order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first = first[order]
        columns = np.unpackbits(packed[first], axis=1, count=n).view(bool)
        classes = ColumnClasses(matrix=np.ascontiguousarray(columns.T),
                                counts=counts[order].astype(float),
                                inverse=rank[inverse],
                                first=first)
        for array in classes:  # shared by every kernel that reads the matrix
            array.flags.writeable = False
        return classes


def binarize(x: ExportMatrix) -> BinaryMatrix:
    """m_ij = 1 exactly where x_ij > 0.

    Positivity is enforced at ExportMatrix construction, so the binary
    matrix shares the export matrix's read-only coordinates.
    """
    return BinaryMatrix(x.country_labels, x.product_labels, x.rows, x.cols)


def rca_binarize(x: ExportMatrix, threshold: float = 1.0) -> BinaryMatrix:
    """Binary matrix keeping cells whose RCA meets the threshold.

    RCA_ij = (x_ij / row_i total) / (column_j total / world total). Ties
    at the threshold are kept (>=). Only cells with positive exports are
    candidates, so threshold 0 reproduces plain binarization. The ratios
    are computed per stored entry, with no dense matrix. Raises
    ZeroMarginal when any row or column sums to zero, since the ratio is
    then undefined; prune first.
    """
    if x.n_entries == 0:  # entries lie inside the matrix, so it has rows and columns
        raise ZeroMarginal("matrix has no positive entries")
    row_tot, col_tot = np.zeros(x.n_countries), np.zeros(x.n_products)
    np.add.at(row_tot, x.rows, x.vals)  # as for ubiquity, np.bincount would copy
    np.add.at(col_tot, x.cols, x.vals)
    if np.any(row_tot == 0):
        i = int(np.argmin(row_tot > 0))
        raise ZeroMarginal(f"country {x.country_labels[i]!r} has zero total exports")
    if np.any(col_tot == 0):
        j = int(np.argmin(col_tot > 0))
        raise ZeroMarginal(f"product {x.product_labels[j]!r} has zero total exports")
    world = float(x.vals.sum())
    keep = (x.vals / row_tot[x.rows]) / (col_tot[x.cols] / world) >= threshold
    rows, cols = x.rows[keep], x.cols[keep]
    rows.flags.writeable = cols.flags.writeable = False  # handed over, so stored uncopied
    return BinaryMatrix(x.country_labels, x.product_labels, rows, cols)


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
    # an axis that loses nothing keeps its labels and read-only coordinates as they are
    countries, rows = m.country_labels, m.rows
    products, cols = m.product_labels, m.cols
    if not keep_c.all():
        countries = tuple(compress(countries, keep_c))
        rows = (np.cumsum(keep_c) - 1)[rows]
    if not keep_p.all():
        products = tuple(compress(products, keep_p))
        cols = (np.cumsum(keep_p) - 1)[cols]
    rows.flags.writeable = cols.flags.writeable = False  # handed over, so stored uncopied
    return BinaryMatrix(countries, products, rows, cols)
