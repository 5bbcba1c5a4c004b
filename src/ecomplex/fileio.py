"""File formats: trade/income CSV ingestion and the canonical matrix file.

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
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, NegativeValue, ParseError
from .matrix import BinaryMatrix, ExportMatrix
from .validation import IncomePanel

__all__ = [
    "read_trade_csv",
    "read_income_csv",
    "read_tsi_column",
    "read_matrix",
    "write_matrix",
    "sha256_file",
]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_value(text: str | float, line: int | None) -> float:
    try:
        v = float(text)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"cannot parse value {text!r}", line) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {text!r}", line)
    return v


def _csv_records(path):
    """Yield a CSV file's header row, then (line, fields) for each
    non-blank record, line being the physical line where it starts.

    An empty file raises ParseError at line 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", 1)
        yield header
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if row:
                yield lineno, row


def read_trade_csv(path) -> ExportMatrix:
    """country,product,value rows -> ExportMatrix with sorted labels.

    Duplicate (country, product) rows are summed. Values must be
    non-negative; cells whose total is zero are treated as absent.
    Labels are stripped, and a label holding a line break is rejected,
    since the canonical matrix file keeps one label per line. Error line
    numbers are the physical line where the offending record starts.
    """
    totals: dict[tuple[str, str], float] = {}
    records = _csv_records(path)
    if [h.strip() for h in next(records)] != ["country", "product", "value"]:
        raise ParseError("expected header country,product,value", 1)
    for lineno, row in records:
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", lineno)
        country, product, raw = (f.strip() for f in row)
        if not country or not product:
            raise ParseError("empty country or product label", lineno)
        if country.splitlines() != [country] or product.splitlines() != [product]:
            raise ParseError("country or product label holds a line break", lineno)
        v = _parse_value(raw, lineno)
        if v < 0:
            raise NegativeValue(f"negative export value {raw}", lineno)
        key = (country, product)
        totals[key] = totals.get(key, 0.0) + v

    countries = tuple(sorted({c for c, _ in totals}))
    products = tuple(sorted({p for _, p in totals}))
    c_pos = {lab: i for i, lab in enumerate(countries)}
    p_pos = {lab: j for j, lab in enumerate(products)}
    rows = np.fromiter((c_pos[c] for c, _ in totals), np.intp, len(totals))
    cols = np.fromiter((p_pos[p] for _, p in totals), np.intp, len(totals))
    vals = np.fromiter(totals.values(), float, len(totals))
    keep = vals > 0
    return ExportMatrix(countries, products, rows[keep], cols[keep], vals[keep])


def read_income_csv(path) -> IncomePanel:
    """country,gdp,natural_rents rows -> IncomePanel (file order kept)."""
    labels: list[str] = []
    gdp: list[float] = []
    rents: list[float] = []
    seen: set[str] = set()
    records = _csv_records(path)
    if [h.strip() for h in next(records)] != ["country", "gdp", "natural_rents"]:
        raise ParseError("expected header country,gdp,natural_rents", 1)
    for lineno, row in records:
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", lineno)
        country, raw_gdp, raw_rents = (f.strip() for f in row)
        if not country:
            raise ParseError("empty country label", lineno)
        if country in seen:
            raise ParseError(f"duplicate country {country!r}", lineno)
        seen.add(country)
        g = _parse_value(raw_gdp, lineno)
        if g <= 0:
            raise ParseError(f"gdp must be positive, got {raw_gdp}", lineno)
        r = _parse_value(raw_rents, lineno)
        if r < 0:
            raise NegativeValue(f"negative natural rents {raw_rents}", lineno)
        labels.append(country)
        gdp.append(g)
        rents.append(r)
    return IncomePanel(tuple(labels), np.array(gdp), np.array(rents))


def read_tsi_column(path) -> np.ndarray:
    """The tsi column of a metrics products table (csv or json).

    Blank cells (JSON null) are skipped; every other value must parse as
    a finite float. A JSON file must parse, hold a list of row objects
    (bare or under "rows"), and give each tsi as a number (JSON admits
    NaN, so its values are checked too).
    """
    values: list[float] = []
    if str(path).endswith(".json"):
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno) from None
        rows = payload.get("rows", []) if isinstance(payload, dict) else payload
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise ParseError("expected a list of row objects")
        for k, row in enumerate(rows):
            v = row.get("tsi")
            if v is not None:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ParseError(f"row {k}: tsi {v!r} is not a number")
                values.append(_parse_value(v, None))
    else:
        records = _csv_records(path)
        header = next(records)
        if "tsi" not in header:
            raise ParseError("no tsi column in header", 1)
        idx = header.index("tsi")
        for lineno, row in records:
            if idx >= len(row):
                raise ParseError("short row", lineno)
            if row[idx] != "":
                values.append(_parse_value(row[idx], lineno))
    if len(values) < 2:
        raise DegenerateInput("need at least two tsi values")
    return np.asarray(values)


def write_matrix(m, path) -> None:
    """Write an ExportMatrix (valued) or BinaryMatrix (binary) canonically.

    The matrix types hold their entries in range and in (i, j) order, so
    they are written as stored.
    """
    valued = isinstance(m, ExportMatrix)
    # each line is "<i> <j>\n" or "<i> <j> <value>\n", as bytes built from per-index strings
    row_text = np.array([f"{i} " for i in range(m.n_countries)], dtype="S")
    col_end = " " if valued else "\n"
    col_text = np.array([f"{j}{col_end}" for j in range(m.n_products)], dtype="S")
    lines = np.strings.add(row_text[m.rows], col_text[m.cols])
    if valued:
        values = np.array([repr(v) + "\n" for v in m.vals.tolist()], dtype="S")
        lines = np.strings.add(lines, values)
    head = [f"countries={m.n_countries} products={m.n_products} entries={m.n_entries}"]
    head.extend(f"c {lab}" for lab in m.country_labels)
    head.extend(f"p {lab}" for lab in m.product_labels)
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        # the lines are NUL-padded to one width; they hold no NUL, so dropping NULs leaves the text
        text = lines.view(np.uint8)
        fh.write(text[text != 0])


# Line breaks str.splitlines honours besides "\n"; reading in text mode
# has already turned "\r\n" and "\r" into "\n".
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _load_entries(source, dtype, skip: int = 0) -> np.ndarray | None:
    """numpy's C text parser over a file path or a list of lines; None
    when it rejects a line."""
    try:
        with warnings.catch_warnings():  # an all-blank input warns "no data"
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(source, dtype=dtype, comments=None, ndmin=1,
                              skiprows=skip, encoding="utf-8")
    except ValueError:
        return None


def _parse_entries(lines: list[str], dtype) -> tuple[np.ndarray, int | None]:
    """Parse entry lines with numpy's C text parser.

    Returns the table of the lines before the first line the parser
    rejects, and that line's index (None when every line parses). The
    parser skips blank lines, so a prefix parses only if it gives one row
    per line; the first rejected line is found by bisection.
    """
    def load(k: int) -> np.ndarray | None:
        table = _load_entries(lines[:k], dtype) if k else np.zeros(0, dtype)
        return table if table is not None and len(table) == k else None

    table = load(len(lines))
    if table is not None:
        return table, None
    lo, hi, table = 0, len(lines), load(0)  # lines[:lo] parse, lines[:hi] do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        prefix = load(mid)
        if prefix is None:
            hi = mid
        else:
            lo, table = mid, prefix
    return table, lo


def read_matrix(path):
    """Read a canonical matrix file back; returns ExportMatrix when the
    entry lines carry values, BinaryMatrix otherwise.

    Entry faults are reported at the first offending line, in the order a
    line is checked: field count, indices, range, order, value. The entry
    block is parsed straight from the file, past the labels; only a
    faulty block is split into lines to find the line at fault.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text:
        raise ParseError("empty file", 1)
    from_file = not any(brk in text for brk in _OTHER_BREAKS)
    if not from_file:  # lines as str.splitlines gives them, each ended by "\n"
        text = text.translate({ord(brk): "\n" for brk in _OTHER_BREAKS})
    head = text.split("\n", 1)[0].split()
    try:
        fields = dict(part.split("=", 1) for part in head)
        n = int(fields["countries"])
        m = int(fields["products"])
        z = int(fields["entries"])
        if min(n, m, z) < 0:
            raise ValueError
    except (ValueError, KeyError):
        raise ParseError("malformed header", 1) from None
    found = text.count("\n") + (not text.endswith("\n"))
    if found != 1 + n + m + z:
        raise ParseError(f"expected {1 + n + m + z} lines per header, found {found}", 1)
    lines = text.split("\n", 1 + n + m)  # header and label lines, then the entry block
    body = lines.pop() if len(lines) > 1 + n + m else ""

    def label_block(offset: int, count: int, prefix: str) -> tuple[str, ...]:
        block, tag = lines[offset:offset + count], prefix + " "
        if not count:
            return ()
        # one piece per line exactly when every line after the first starts with tag
        labels = "\n".join(block)[len(tag):].split("\n" + tag)
        if not block[0].startswith(tag) or len(labels) != count:
            k = next(k for k, line in enumerate(block) if not line.startswith(tag))
            raise ParseError(f"expected a {prefix!r} label line", offset + k + 1)
        return tuple(labels)

    countries = label_block(1, n, "c")
    products = label_block(1 + n, m, "p")

    first = 2 + n + m  # physical line of entry 0
    valued = z > 0 and len(body.split("\n", 1)[0].split()) == 3
    dtype = [("i", np.int64), ("j", np.int64)] + ([("v", float)] if valued else [])
    table = _load_entries(path, dtype, skip=first - 1) if from_file else None
    bad = None
    if table is None or len(table) != z:  # find the line at fault
        entry_lines = body.splitlines()
        table, bad = _parse_entries(entry_lines, dtype)
    rows, cols = table["i"], table["j"]
    vals = table["v"] if valued else np.ones(len(table))
    late = None  # the first unparsable line's fault, unless an earlier line has one
    if bad is not None:
        parts = entry_lines[bad].split()
        if len(parts) != len(dtype):
            late = "inconsistent entry line"
        else:
            try:
                i, j = np.loadtxt([" ".join(parts[:2])], dtype=np.int64, comments=None)
            except ValueError:
                late = "bad entry indices"
            else:
                # its value failed to parse; range and order are checked first
                rows, cols, vals = np.append(rows, i), np.append(cols, j), np.append(vals, 1.0)
                late = f"cannot parse value {parts[2]!r}"

    prev_i = np.concatenate([[-1], rows[:-1]])
    prev_j = np.concatenate([[-1], cols[:-1]])
    faults = np.stack([
        (rows < 0) | (rows >= n) | (cols < 0) | (cols >= m),
        (rows < prev_i) | ((rows == prev_i) & (cols <= prev_j)),
        ~np.isfinite(vals),
        vals <= 0,
    ])
    if faults.any():
        k = int(np.argmax(faults.any(axis=0)))
        kind = int(np.argmax(faults[:, k]))
        messages = (
            f"entry ({rows[k]}, {cols[k]}) out of range",
            "entries must be sorted by (i, j) without repeats",
            f"non-finite value {body.splitlines()[k].split()[-1]!r}",  # the value field
            "stored values must be positive",
        )
        raise ParseError(messages[kind], first + k)
    if late is not None:
        raise ParseError(late, first + bad)
    if valued:
        return ExportMatrix(countries, products, rows, cols, vals)
    return BinaryMatrix(countries, products, rows, cols)
