"""File formats: CSV tables in and out, and the canonical matrix file.

Each CSV reader reads a file's header, and searches a rejected file's
records for its first fault, with one csv.reader; write_table writes
every output table as csv.writer would.

The canonical matrix file is plain text, diff-able and bit-reproducible:

    countries=<n> products=<m> entries=<z>
    c <country label>        (n lines, matrix row order)
    p <product label>        (m lines, matrix column order)
    <i> <j>                  (binary matrix)  or
    <i> <j> <value>          (valued matrix)

Entry lines are sorted by (i, j). Values are written with Python's
shortest round-trip float representation, so write-read-write is
byte-stable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import sys
import warnings
from contextlib import contextmanager
from functools import partial
from itertools import chain, count, islice
from typing import NoReturn

import numpy as np

from .errors import DegenerateInput, EmptyMatrix, NegativeValue, ParseError
from .matrix import BinaryMatrix, ExportMatrix, _first_repeat
from .validation import IncomePanel

__all__ = [
    "read_trade_csv",
    "read_income_csv",
    "read_tsi_column",
    "read_matrix",
    "write_matrix",
    "write_table",
    "sha256_file",
]

_ENTRY_BLOCK = 1 << 16  # entry lines formatted per write
_LINE_BLOCK = 1 << 12  # matrix label lines or table rows joined per write
_SCAN_BLOCK = 1 << 18  # characters read at a time when counting lines
_BLOCK_ROWS = 1 << 15  # CSV records tokenized per np.loadtxt call
# Line breaks str.splitlines honours besides "\n"; reading in text mode
# turns "\r\n" and "\r" into "\n".
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _parse_value(text: str, line: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ParseError(f"cannot parse value {text!r}", line) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {text!r}", line)
    return v


def _csv_records(path):
    """Yield a CSV file's header row, then (line, fields) for each
    non-blank record, line being the physical line where it starts, as
    csv.reader reads them. An empty file, or a record csv.reader cannot
    read (a field longer than csv.field_size_limit()), raises ParseError
    at the line where it starts."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError("empty file", 1)
            yield header
            start = reader.line_num + 1
            for row in reader:
                if row:
                    yield start, row
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ParseError(f"cannot read record: {exc}", start) from None


@contextmanager
def _csv_file(path):
    """A CSV file's header row, read with csv.field_size_limit() in force,
    and an iterator of its (line, fields) records after it, read with the
    limit lifted, since numpy's tokenizer has none. Leaving the with block
    closes the file and restores the limit."""
    records, limit = _csv_records(path), csv.field_size_limit()
    try:
        header = next(records)
        csv.field_size_limit(sys.maxsize)
        yield header, records
    finally:
        records.close()
        csv.field_size_limit(limit)


class _Rejected(Exception):
    """The tokenizer or a column check rejected a CSV file."""


def _csv_blocks(path, header: list[str], column: int | None = None):
    """The records after the header as 2-d object arrays of str, tokenized
    by numpy's C parser _BLOCK_ROWS records at a time, with one column
    when ``column`` is given. The first block is yielded even if empty.

    numpy iterates a handle's lines, so each np.loadtxt call reads on from
    where the last stopped. The file is read as csv.reader reads it
    (newline="", so "\\r\\n" and "\\r" end a record and stay as they are
    inside quotes; a leading UTF-8 BOM is dropped); the parser quotes as
    csv.reader does and skips blank lines. Raises _Rejected when it
    rejects a record, when a block is not as wide as the header, or when
    the first record is not ``header``.
    """
    expected = header if column is None else [header[column]]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        skip = 1  # the header, the first block's first record
        while True:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # a block with no records warns
                    block = np.loadtxt(fh, dtype=object, delimiter=",", quotechar='"', comments=None,
                                       ndmin=2, usecols=column, max_rows=_BLOCK_ROWS)
            except ValueError:
                raise _Rejected from None
            if skip and block[:1].tolist() != [expected] or len(block) and block.shape[1] != len(expected):
                raise _Rejected
            if len(block):
                yield block[skip:]
            if len(block) < _BLOCK_ROWS:
                return
            skip = 0


def _finite_floats(cells, size: int = -1) -> np.ndarray:
    """Python's float of each cell; _Rejected unless every one parses
    and is finite."""
    try:
        values = np.fromiter(map(float, cells), float, size)
    except ValueError:
        raise _Rejected from None
    if not np.isfinite(values).all():
        raise _Rejected
    return values


def _codes(cells: np.ndarray, seen: dict[str, int], start: int) -> np.ndarray:
    """Each cell's code in ``seen``, a dict from cell text to the index of
    the record where it first came; the cells are records start, start + 1, ..."""
    return np.fromiter(map(seen.setdefault, cells, count(start)), np.int32, len(cells))


def _sorted_labels(seen: dict[str, int], codes: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct stripped labels of a column in sorted order, and each
    cell's position among them, from the cells' codes (see _codes). Each
    distinct text is stripped and checked once; _Rejected at an empty
    label or one holding a line break."""
    stripped = [text.strip() for text in seen]
    labels = sorted(set(stripped))
    if any(not label or label.splitlines() != [label] for label in labels):
        raise _Rejected
    position = {label: k for k, label in enumerate(labels)}
    remap = np.empty(len(codes), np.intp)
    remap[np.fromiter(seen.values(), np.intp, len(seen))] = list(map(position.__getitem__, stripped))
    return tuple(labels), remap[codes]


def _trade_fault(records) -> NoReturn:
    """Raise the first fault of a rejected trade file's records, at the
    physical line of the first record that fails a check."""
    for lineno, row in records:
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", lineno)
        country, product, raw = (f.strip() for f in row)
        if not country or not product:
            raise ParseError("empty country or product label", lineno)
        if country.splitlines() != [country] or product.splitlines() != [product]:
            raise ParseError("country or product label holds a line break", lineno)
        if _parse_value(raw, lineno) < 0:
            raise NegativeValue(f"negative export value {raw}", lineno)
    raise ParseError("records do not tokenize as CSV")


def read_trade_csv(path) -> ExportMatrix:
    """country,product,value rows -> ExportMatrix with sorted labels.

    Duplicate (country, product) rows are summed. Values must be
    non-negative; cells whose total is zero are treated as absent, and a
    file with no positive cell raises EmptyMatrix. Labels are stripped,
    and a label holding a line break is rejected, since the canonical
    matrix file keeps one label per line. Error line numbers are the
    physical line where the offending record starts.
    """
    with _csv_file(path) as (header, records):
        if [h.strip() for h in header] != ["country", "product", "value"]:
            raise ParseError("expected header country,product,value", 1)
        country_codes, product_codes, rows, cols, vals, start = {}, {}, [], [], [], 0
        try:
            for block in _csv_blocks(path, header):
                rows.append(_codes(block[:, 0], country_codes, start))
                cols.append(_codes(block[:, 1], product_codes, start))
                vals.append(_finite_floats(map(str.strip, block[:, 2]), len(block)))
                if (vals[-1] < 0).any():
                    raise _Rejected
                start += len(block)
            del block  # the last block's strings, freed before the summation
            countries, rows = _sorted_labels(country_codes, np.concatenate(rows))
            products, cols = _sorted_labels(product_codes, np.concatenate(cols))
        except _Rejected:
            _trade_fault(records)
    vals, cells = np.concatenate(vals), rows * len(products) + cols
    del rows, cols
    cells, inverse = np.unique(cells, return_inverse=True)
    # bincount adds each cell's values in file order from 0.0, as a running sum does
    totals = np.bincount(inverse, weights=vals, minlength=len(cells))
    keep = totals > 0
    if not keep.any():
        raise EmptyMatrix("no trade cell has a positive value")
    rows, cols = np.divmod(cells[keep], len(products))
    cols, vals = cols.astype(np.int32), totals[keep]
    for array in (cols, vals):  # handed over, so the constructor stores them uncopied
        array.flags.writeable = False
    return ExportMatrix.from_coordinates(countries, products, rows, cols, vals)


def read_income_csv(path) -> IncomePanel:
    """country,gdp,natural_rents rows -> IncomePanel (file order kept).
    A panel holds one row per country, so each record is checked as
    csv.reader reads it; error line numbers are the physical line where
    the offending record starts."""
    rows: dict[str, tuple[float, float]] = {}  # country -> (gdp, rents), in file order
    with _csv_file(path) as (header, records):
        if [h.strip() for h in header] != ["country", "gdp", "natural_rents"]:
            raise ParseError("expected header country,gdp,natural_rents", 1)
        for lineno, row in records:
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", lineno)
            country, raw_gdp, raw_rents = (f.strip() for f in row)
            if not country:
                raise ParseError("empty country label", lineno)
            if country in rows:
                raise ParseError(f"duplicate country {country!r}", lineno)
            gdp = _parse_value(raw_gdp, lineno)
            if gdp <= 0:
                raise ParseError(f"gdp must be positive, got {raw_gdp}", lineno)
            rents = _parse_value(raw_rents, lineno)
            if rents < 0:
                raise NegativeValue(f"negative natural rents {raw_rents}", lineno)
            rows[country] = gdp, rents
    gdp, rents = np.array(list(rows.values()), dtype=float).reshape(-1, 2).T
    return IncomePanel(tuple(rows), gdp, rents)


def _tsi_fault(column: int, records) -> NoReturn:
    """As _trade_fault, for a products table's tsi column."""
    for lineno, row in records:
        if column >= len(row):
            raise ParseError("short row", lineno)
        if row[column] != "":
            _parse_value(row[column], lineno)
    raise ParseError("records do not tokenize as CSV")


def read_tsi_column(path) -> np.ndarray:
    """The tsi column of a metrics products table, a CSV file tokenized
    for that column only. Blank cells are skipped; every other cell must
    parse as a finite float."""
    with _csv_file(path) as (header, records):
        if "tsi" not in header:
            raise ParseError("no tsi column in header", 1)
        column = header.index("tsi")
        try:
            values = np.concatenate([_finite_floats(block[block[:, 0] != "", 0])
                                     for block in _csv_blocks(path, header, column)])
        except _Rejected:
            _tsi_fault(column, records)
    if len(values) < 2:
        raise DegenerateInput("need at least two tsi values")
    return values


def _distinct_reprs(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The repr of each distinct value of a bool, int or float array, and
    each value's position among them: ``[texts[k] for k in inverse]`` is
    ``[repr(v) for v in values.tolist()]``.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    text, and repr runs once per distinct value.
    """
    bits = values.view(f"u{values.itemsize}")
    distinct, inverse = np.unique(bits, return_inverse=True)
    return list(map(repr, distinct.view(values.dtype).tolist())), inverse


def _cells(column) -> list[str]:
    """A column's CSV cells: numbers as repr text (an int's repr is its
    str), None as a blank cell, and labels as csv.writer writes them."""
    if isinstance(column, np.ndarray):
        texts, inverse = _distinct_reprs(column)
        return np.array(texts, dtype=object)[inverse].tolist()
    cells = ["" if v is None else v for v in column]
    if _csv_special("".join(cells)):
        cells = list(map(_csv_cell, cells))
    return cells


def _csv_special(text: str) -> bool:
    """Whether text holds a character csv.writer may quote a cell for;
    plain substring tests, several times faster than a regex search."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_cell(text: str) -> str:
    """One cell as csv.writer writes it in a row of two or more cells."""
    if not _csv_special(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def write_table(path, header: list[str], columns) -> None:
    """Write the columns (numpy arrays of numbers, or label sequences) as a
    CSV table under its header, a block of rows at a time, byte for byte as
    csv.writer(lineterminator="\n") writes two or more columns. The first
    column sets the row count; a None column (a failed metric family) is blank."""
    columns = [[None] * len(columns[0]) if c is None else c for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_cells(header)) + "\n")
        for start in range(0, len(columns[0]), _LINE_BLOCK):
            block = [_cells(column[start:start + _LINE_BLOCK]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _index_texts(count: int, end: bytes) -> np.ndarray:
    """The bytes b"<k><end>" for k in range(count), as wide as the longest
    (a bare astype("S") is as wide as any int64)."""
    digits = len(str(max(count - 1, 0)))
    return np.strings.add(np.arange(count).astype(f"S{digits}"), end)


def _breaks_line(text: str) -> bool:
    return any(brk in text for brk in "\n\r" + _OTHER_BREAKS)


def write_matrix(m, path) -> None:
    """Write an ExportMatrix (valued) or BinaryMatrix (binary) canonically.

    The matrix types hold their entries in range and in (i, j) order, so
    they are written as stored, a fixed block of label or entry lines at a time.
    Raises ValueError, before the file is opened, when a label holds a line
    break, which would end its label line early.
    """
    valued = isinstance(m, ExportMatrix)
    for kind, labels in (("country", m.country_labels), ("product", m.product_labels)):
        for start in range(0, len(labels), _LINE_BLOCK):  # joined a block at a time
            block = labels[start:start + _LINE_BLOCK]
            if _breaks_line("".join(block)):
                label = next(filter(_breaks_line, block))
                raise ValueError(f"{kind} label {label!r} holds a line break")
    # each line is "<i> <j>\n" or "<i> <j> <value>\n", as bytes built from per-index texts
    row_text = _index_texts(m.n_countries, b" ")
    col_text = _index_texts(m.n_products, b" " if valued else b"\n")
    with open(path, "wb") as fh:
        fh.write(f"countries={m.n_countries} products={m.n_products} entries={m.n_entries}\n"
                 .encode("utf-8"))
        for prefix, labels in (("c ", m.country_labels), ("p ", m.product_labels)):
            for start in range(0, len(labels), _LINE_BLOCK):
                block = labels[start:start + _LINE_BLOCK]
                fh.write((prefix + f"\n{prefix}".join(block) + "\n").encode("utf-8"))
        for start in range(0, m.n_entries, _ENTRY_BLOCK):
            stop = min(start + _ENTRY_BLOCK, m.n_entries)
            runs = np.diff(np.clip(m.offsets, start, stop))  # each country's entries in the block
            lines = np.strings.add(row_text.repeat(runs), col_text[m.cols[start:stop]])
            if valued:
                texts, inverse = _distinct_reprs(m.vals[start:stop])
                values = np.array([text + "\n" for text in texts], dtype="S")[inverse]
                lines = np.strings.add(lines, values)
            # the lines are NUL-padded to one width; they hold no NUL, so dropping NULs leaves the text
            text = lines.view(np.uint8)
            fh.write(text[text != 0])


def _header(line: str, found: int) -> tuple[int, int, int]:
    """The counts n, m, z of a "countries=<n> products=<m> entries=<z>"
    line, the first of a file of ``found`` lines, 1 + n + m + z of them."""
    if not found:
        raise ParseError("empty file", 1)
    try:
        fields = dict(part.split("=", 1) for part in line.split())
        counts = int(fields["countries"]), int(fields["products"]), int(fields["entries"])
    except (ValueError, KeyError):
        counts = (-1,)
    if min(counts) < 0:
        raise ParseError("malformed header", 1)
    if found != 1 + sum(counts):
        raise ParseError(f"expected {1 + sum(counts)} lines per header, found {found}", 1)
    return counts


def _labels(lines, count: int, line: int, prefix: str) -> tuple[str, ...]:
    """The labels of the next ``count`` lines "<prefix> <label>" of the
    iterator ``lines``, the first of them at physical line ``line``;
    each line is checked and stripped on its own."""
    tag, labels = prefix + " ", []
    for text in islice(lines, count):
        if not text.startswith(tag):
            raise ParseError(f"expected a {prefix!r} label line", line + len(labels))
        labels.append(text[len(tag):].removesuffix("\n"))
    return tuple(labels)


def _count_lines(path) -> int:
    """The file's line count, read a block at a time.

    Raises ParseError at the first line ended by a break other than
    "\\n", "\\r\\n" or "\\r", where numpy's parser would not end it.
    """
    count, last = 0, "\n"
    with open(path, encoding="utf-8") as fh:
        for block in iter(partial(fh.read, _SCAN_BLOCK), ""):
            found = [k for k in map(block.find, _OTHER_BREAKS) if k >= 0]
            if found:
                raise ParseError(f"line break {block[min(found)]!r} is not \\n, \\r\\n or \\r",
                                 count + block.count("\n", 0, min(found)) + 1)
            count += block.count("\n")
            last = block[-1]
    return count + (last != "\n")


def _text_lines(fh):
    """Lists of a text file's lines, as ``str.splitlines`` splits its
    text, about a block at a time."""
    parts = []  # the text after the last "\n" read
    for block in iter(partial(fh.read, _SCAN_BLOCK), ""):
        cut = block.rfind("\n") + 1
        if cut:
            yield "".join([*parts, block[:cut]]).splitlines()
            parts = []
        parts.append(block[cut:])
    yield "".join(parts).splitlines()


def read_matrix(path):
    """Read a canonical matrix file back; returns ExportMatrix when the
    entry lines carry values, BinaryMatrix otherwise.

    Only the header and label lines become strings, and the labels are read
    once numpy has parsed the entry block from the file into one table; a
    binary file's columns then move to the front of the table's own buffer,
    which is shrunk to them. One pass checks that the rows do not decrease,
    and the matrix constructor checks the row offsets searched from them
    (which a row outside the matrix breaks), the columns and the values.
    When any of these rejects the file, its lines are checked one by one in
    file order to report the first fault at its line: a repeated label, then
    for each entry line field count, indices, range, order, value. Lines end
    in "\\n", "\\r\\n" or "\\r"; another break that ``str.splitlines``
    honours ends a line in error line numbers, and a file holding one is
    rejected at it.
    """
    try:
        return _read_matrix(path)
    except (ParseError, ValueError) as exc:  # ValueError: the matrix constructor
        rejected = exc.with_traceback(None)  # frees the failed read's labels and table
    _raise_first_fault(path)
    raise rejected


def _read_matrix(path):
    found = _count_lines(path)
    with open(path, encoding="utf-8") as fh:  # reads "\r\n" and "\r" as "\n"
        n, m, z = _header(fh.readline(), found)
        valued = len(next(islice(fh, n + m, None), "").split()) == 3  # the first entry line
    # int32 index fields, as the matrix stores its columns, so that a token such as "1.0"
    # is not an index; a wider index is a parse failure
    dtype = [("i", np.int32), ("j", np.int32)] + ([("v", float)] if valued else [])
    try:
        with warnings.catch_warnings():  # a blank line or an all-blank input warns
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(path, dtype=dtype, comments=None, ndmin=1,
                               skiprows=1 + n + m, max_rows=z, encoding="utf-8")
    except ValueError:
        table = None
    if table is None or len(table) != z:
        raise ParseError("entry block does not parse")
    table = np.require(table, requirements="O")  # owns its buffer, which may be resized below
    if np.any(table["i"][1:] < table["i"][:-1]):
        raise ParseError("entries must be sorted by (i, j) without repeats")
    # int32 keys, so that the int32 rows are searched as they are, with no wider copy
    offsets = np.searchsorted(table["i"], np.arange(n + 1, dtype=np.int32))
    with open(path, encoding="utf-8") as fh:  # labels last: a file rejected above never held them
        fh.readline()
        countries, products = _labels(fh, n, 2, "c"), _labels(fh, m, 2 + n, "p")
    entries = ([table["j"].astype(np.int32), table["v"].astype(float)] if valued
               else [_front_columns(table)])
    del table  # one copy of the entries from here on
    for array in (offsets, *entries):  # handed over, so the constructor stores them uncopied
        array.flags.writeable = False
    return (ExportMatrix if valued else BinaryMatrix)(countries, products, offsets, *entries)


def _front_columns(table: np.ndarray) -> np.ndarray:
    """The j field of a binary entry table that owns its buffer, moved to
    the front of it in doubling chunks, each read from past its own end so
    that numpy needs no temporary; the buffer is then shrunk to them."""
    z, flat = len(table), table.view(np.int32)  # i0 j0 i1 j1 ...
    for k in range(z.bit_length()):  # columns a..b-1, read from flat[2a + 1:2b], past b
        a, b = (1 << k) - 1, min((2 << k) - 1, z)
        flat[a:b] = flat[2 * a + 1:2 * b:2]
    del flat  # no view of the table is left, so its buffer may be resized in place
    table.resize((z + 1) // 2, refcheck=False)
    return table.view(np.int32)[:z]


def _number(kind, token: str):
    """kind(token), int or float, for a token numpy's parser reads too;
    None otherwise. Python also reads "_" between digits and non-ASCII
    digits, which numpy rejects."""
    if token.isascii() and "_" not in token:
        try:
            return kind(token)
        except ValueError:
            pass
    return None


def _raise_first_fault(path) -> None:
    """Raise the first fault of a matrix file, split into lines as
    ``str.splitlines`` splits it and checked line by line in file order;
    return when its lines hold none. The file is read a block at a time,
    once to count its lines and once to check them."""
    with open(path, encoding="utf-8") as fh:
        found = sum(map(len, _text_lines(fh)))
    with open(path, encoding="utf-8") as fh:
        lines = chain.from_iterable(_text_lines(fh))
        n, m, z = _header(next(lines, ""), found)
        start = 2  # physical line of the block's first line
        for kind, prefix, count in (("country", "c", n), ("product", "p", m)):
            labels = _labels(lines, count, start, prefix)
            repeat = _first_repeat(labels)
            if repeat >= 0:
                raise ParseError(f"duplicate {kind} label {labels[repeat]!r}", start + repeat)
            start += count

        width, prev = 0, (-1, -1)  # width: 3 when the first entry line has three fields, else 2
        for lineno, line in enumerate(lines, start):
            parts = line.split()
            width = width or (3 if len(parts) == 3 else 2)
            if len(parts) != width:
                raise ParseError("inconsistent entry line", lineno)
            i, j = _number(int, parts[0]), _number(int, parts[1])
            if i is None or j is None:
                raise ParseError("bad entry indices", lineno)
            if not (0 <= i < n and 0 <= j < m):
                raise ParseError(f"entry ({i}, {j}) out of range", lineno)
            if (i, j) <= prev:
                raise ParseError("entries must be sorted by (i, j) without repeats", lineno)
            prev = (i, j)
            if width == 3:
                v = _number(float, parts[2])
                if v is None:
                    raise ParseError(f"cannot parse value {parts[2]!r}", lineno)
                if not math.isfinite(v):
                    raise ParseError(f"non-finite value {parts[2]!r}", lineno)
                if v <= 0:
                    raise ParseError("stored values must be positive", lineno)
