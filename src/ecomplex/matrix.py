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

import numpy as np

from .errors import EmptyMatrix, ZeroMarginal

__all__ = [
    "ExportMatrix",
    "BinaryMatrix",
    "binarize",
    "rca",
    "rca_binarize",
    "prune_degenerate",
]


@dataclass(frozen=True)
class _CoordinateMatrix:
    """Country and product labels plus parallel entry coordinates.

    Construction enforces the invariant every consumer relies on: labels
    are unique, and each entry lies inside the matrix, appears once, and
    is stored in row-major (i, j) order. Entries given in another order
    are sorted once, together with any per-entry values.
    """

    country_labels: tuple[str, ...]
    product_labels: tuple[str, ...]
    rows: np.ndarray = field(repr=False)
    cols: np.ndarray = field(repr=False)

    _entry_arrays = ("rows", "cols")  # per-entry arrays, permuted together

    def __post_init__(self):
        for kind, labels in (("country", self.country_labels),
                             ("product", self.product_labels)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {kind} labels")
        for name in ("rows", "cols"):
            coords = np.asarray(getattr(self, name), order="C")
            if coords.size and not np.issubdtype(coords.dtype, np.integer):
                raise ValueError("matrix coordinates must be integers")
            object.__setattr__(self, name, coords.astype(np.intp, copy=False))
        rows, cols, n, m = self.rows, self.cols, self.n_countries, self.n_products
        if rows.ndim != 1 or any(getattr(self, a).shape != rows.shape for a in self._entry_arrays):
            raise ValueError("entry arrays must be 1-d and of equal length")
        if len(rows) and not (0 <= rows.min() and rows.max() < n
                              and 0 <= cols.min() and cols.max() < m):
            raise ValueError("matrix entry out of range")
        key = rows * m + cols
        order = slice(None)  # sorted input is kept in place
        if not np.all(key[1:] > key[:-1]):
            order = np.argsort(key, kind="stable")
            if np.any(np.diff(key[order]) == 0):
                raise ValueError("repeated matrix entry")
        for name in self._entry_arrays:  # read-only views, so the entries stay as checked
            entry_array = getattr(self, name)[order]
            entry_array.flags.writeable = False
            object.__setattr__(self, name, entry_array)

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

    _entry_arrays = ("rows", "cols", "vals")

    def __post_init__(self):
        vals = np.asarray(self.vals, dtype=float, order="C")
        if not np.all(np.isfinite(vals) & (vals > 0)):
            raise ValueError("stored export values must be finite and strictly positive")
        object.__setattr__(self, "vals", vals)
        super().__post_init__()

    @classmethod
    def from_dense(cls, dense, country_labels=None, product_labels=None) -> "ExportMatrix":
        """Positive cells become entries; a NaN cell is kept, so it is rejected."""
        dense = np.asarray(dense, dtype=float)
        labels = cls._dense_labels(dense, country_labels, product_labels)
        rows, cols = np.nonzero(~(dense <= 0))
        return cls(*labels, rows, cols, dense[rows, cols])


@dataclass(frozen=True)
class BinaryMatrix(_CoordinateMatrix):
    """Presence/absence matrix with diversification and ubiquity counts.

    ``diversification[i]`` is the number of entries in row i and
    ``ubiquity[j]`` the number in column j; both are computed once at
    construction. The invariant sum(d) == sum(u) == number of entries
    holds by construction.
    """

    diversification: np.ndarray = field(init=False, repr=False)
    ubiquity: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        d = np.bincount(self.rows, minlength=self.n_countries)
        u = np.bincount(self.cols, minlength=self.n_products)
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


def binarize(x: ExportMatrix) -> BinaryMatrix:
    """m_ij = 1 exactly where x_ij > 0.

    Positivity is enforced at ExportMatrix construction, so the binary
    matrix shares the export matrix's read-only coordinates.
    """
    return BinaryMatrix(x.country_labels, x.product_labels, x.rows, x.cols)


def rca(x: ExportMatrix) -> np.ndarray:
    """Dense matrix of revealed-comparative-advantage ratios.

    RCA_ij = (x_ij / row_i total) / (column_j total / world total), zero
    where x_ij = 0. Raises ZeroMarginal when any retained row or column
    sums to zero, since the ratio is then undefined; prune first.
    """
    if x.n_entries == 0:  # entries lie inside the matrix, so it has rows and columns
        raise ZeroMarginal("matrix has no positive entries")
    row_tot = np.bincount(x.rows, weights=x.vals, minlength=x.n_countries)
    col_tot = np.bincount(x.cols, weights=x.vals, minlength=x.n_products)
    if np.any(row_tot == 0):
        i = int(np.argmin(row_tot > 0))
        raise ZeroMarginal(f"country {x.country_labels[i]!r} has zero total exports")
    if np.any(col_tot == 0):
        j = int(np.argmin(col_tot > 0))
        raise ZeroMarginal(f"product {x.product_labels[j]!r} has zero total exports")
    world = float(x.vals.sum())
    out = np.zeros((x.n_countries, x.n_products))
    out[x.rows, x.cols] = (x.vals / row_tot[x.rows]) / (col_tot[x.cols] / world)
    return out


def rca_binarize(x: ExportMatrix, threshold: float = 1.0) -> BinaryMatrix:
    """Binary matrix keeping cells whose RCA meets the threshold.

    Ties at the threshold are kept (>=). Only cells with positive exports
    are candidates, so threshold 0 reproduces plain binarization.
    """
    ratios = rca(x)
    keep = ratios[x.rows, x.cols] >= threshold
    return BinaryMatrix(x.country_labels, x.product_labels,
                        x.rows[keep], x.cols[keep])


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
    new_row = np.cumsum(keep_c) - 1
    new_col = np.cumsum(keep_p) - 1
    countries = tuple(lab for lab, k in zip(m.country_labels, keep_c) if k)
    products = tuple(lab for lab, k in zip(m.product_labels, keep_p) if k)
    return BinaryMatrix(countries, products, new_row[m.rows], new_col[m.cols])
