"""The CSV readers against a per-record reference.

``read_trade_csv`` and ``read_tsi_column`` tokenize a file with numpy a
block of records at a time and check whole columns of each block;
``read_income_csv`` checks each record as csv.reader reads it. In the
first two a record loop runs only to name a rejected file's first fault.
The reference below is the record-by-record reading they replaced, kept
here as the oracle: on any text the readers return what it returns, bit
for bit, or raise its error with its message and line.

Declared changes against the reference:
- a trade file with no positive cell raises EmptyMatrix (the reference
  returned a matrix with no entries);
- a field longer than csv.field_size_limit() (128 KiB) is read; the
  reference raised csv.Error. In the header such a field is a
  ParseError at line 1.
"""

import csv
import math
import time

import numpy as np
import pytest
from conftest import traced_peak
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecomplex import (
    DegenerateInput,
    EmptyMatrix,
    ExportMatrix,
    IncomePanel,
    NegativeValue,
    ParseError,
    read_income_csv,
    read_trade_csv,
    read_tsi_column,
)
from ecomplex import fileio
from ecomplex.cli import main


# --- the reference: per-record readers ------------------------------------

def _ref_parse_value(text, line):
    try:
        v = float(text)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"cannot parse value {text!r}", line) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {text!r}", line)
    return v


def _ref_records(path):
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


def ref_read_trade_csv(path):
    totals = {}
    records = _ref_records(path)
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
        v = _ref_parse_value(raw, lineno)
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
    return ExportMatrix.from_coordinates(countries, products, rows[keep], cols[keep], vals[keep])


def ref_read_income_csv(path):
    labels, gdp, rents, seen = [], [], [], set()
    records = _ref_records(path)
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
        g = _ref_parse_value(raw_gdp, lineno)
        if g <= 0:
            raise ParseError(f"gdp must be positive, got {raw_gdp}", lineno)
        r = _ref_parse_value(raw_rents, lineno)
        if r < 0:
            raise NegativeValue(f"negative natural rents {raw_rents}", lineno)
        labels.append(country)
        gdp.append(g)
        rents.append(r)
    return IncomePanel(tuple(labels), np.array(gdp), np.array(rents))


def ref_read_tsi_column(path):
    values = []
    records = _ref_records(path)
    header = next(records)
    if "tsi" not in header:
        raise ParseError("no tsi column in header", 1)
    idx = header.index("tsi")
    for lineno, row in records:
        if idx >= len(row):
            raise ParseError("short row", lineno)
        if row[idx] != "":
            values.append(_ref_parse_value(row[idx], lineno))
    if len(values) < 2:
        raise DegenerateInput("need at least two tsi values")
    return np.asarray(values)


# --- generated CSV texts --------------------------------------------------

_CHARS = [",", '"', " ", "\t", "\n", "\r\n", "\r", "\x00", "\x85", "é", "a", "b"]
_LABELS = ["a", "b", " a", "b ", "A", "é", "a b", "a,b", 'a"b', "", " ", "\t", "a\nb", "a\x85",
           "\x00", "a\x1c"]
_VALUES = ["1", "2.5", "0", "0.0", "-0", "1_0", " 3 ", "-1", "inf", "nan", "1e400", "abc",
           "", " ", "1e-320", "0.1", "3\x1c", "\x85", "1 2", "+4"]


def _quoted(text):
    return '"' + text.replace('"', '""') + '"'


_field_text = st.one_of(
    st.sampled_from(_LABELS),
    st.sampled_from(_VALUES),
    st.lists(st.sampled_from(_CHARS), max_size=4).map("".join),
)
_field = st.one_of(
    _field_text,
    _field_text.map(_quoted),
    st.tuples(st.sampled_from([" ", "x"]), _field_text.map(_quoted)).map("".join),  # ' "a"'
    st.tuples(_field_text.map(_quoted), st.sampled_from([" ", "x"])).map("".join),  # '"a"b'
)


def _mostly(usual, other):
    """``usual`` nine draws in ten, ``other`` in the tenth."""
    return st.integers(0, 9).flatmap(lambda k: usual if k else other)


def _csv_texts(header, label, first_value, second_value):
    """Texts with the given header row (sometimes spoiled): mostly
    well-formed records with duplicates and zeros, plus blank,
    whitespace-only and ragged lines and fields of arbitrary characters."""
    well_formed = st.tuples(
        st.one_of(st.sampled_from(label), st.sampled_from(label).map(_quoted)),
        st.sampled_from(first_value),
        st.sampled_from(second_value),
    ).map(list)
    record = _mostly(well_formed, st.one_of(
        st.lists(_field, min_size=3, max_size=3),
        st.lists(_field, min_size=0, max_size=5),
        st.sampled_from([[], [""], ["   "], ["\t"]]),
    ))
    head = _mostly(st.just(header), st.one_of(
        st.just([" " + header[0], header[1] + " ", header[2]]),
        st.just(header[:2]),
        st.just(header[::-1]),
        st.just([_quoted(header[0]), header[1], header[2]]),
        st.lists(_field, max_size=3),
    ))
    return st.tuples(
        head,
        st.lists(record, max_size=8),
        st.sampled_from(["\n", "\r\n", "\r"]),
        st.booleans(),
    ).map(lambda t: t[2].join(",".join(r) for r in [t[0]] + t[1]) + (t[2] if t[3] else ""))


_TRADE_TEXTS = _csv_texts(["country", "product", "value"], ["a", "b", " a", "é", "c c"],
                          ["x", "y", "x "], ["1", "0", "2.5", " 3 ", "1_0", "0.1", "1e-320",
                                             "3\x1c", "\t2\x85"])
_INCOME_TEXTS = _csv_texts(["country", "gdp", "natural_rents"],
                           ["a", "b", "c", "é", "d ", "e\r\nf", "g\rh"],
                           ["1", "2.5", " 3 ", "1_0", "0", "-1", "3\x1c"],
                           ["0", "1", "0.5", "-0", "2"])
_TSI_TEXTS = _csv_texts(["product", "u", "tsi"], ["p", "q", "r"],
                        ["1", "2"], ["0.5", "-1.25", "", " 2 ", "1_0", "3", "-0"])


def _outcome(read, path):
    try:
        return read(path), None
    except (ParseError, DegenerateInput, EmptyMatrix) as exc:
        return None, exc


def _same_error(got, expected):
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    assert getattr(got, "line", None) == getattr(expected, "line", None)


def _bits(array):
    return np.asarray(array, dtype=float).tobytes()


_SETTINGS = settings(max_examples=300, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(params=[1, 2])
def small_blocks(request, monkeypatch):
    """The block tokenizer reads 1 or 2 records per np.loadtxt call, so
    block boundaries fall between the records of a short text."""
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", request.param)


def _check_trade(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    expected, ref_error = _outcome(ref_read_trade_csv, path)
    got, error = _outcome(read_trade_csv, path)
    if ref_error is not None:
        _same_error(error, ref_error)
    elif expected.n_entries == 0:  # declared: no positive cell is an empty matrix
        assert isinstance(error, EmptyMatrix)
    else:
        assert error is None
        assert got.country_labels == expected.country_labels
        assert got.product_labels == expected.product_labels
        assert got.rows.tolist() == expected.rows.tolist()
        assert got.cols.tolist() == expected.cols.tolist()
        assert _bits(got.vals) == _bits(expected.vals)


@_SETTINGS
@given(text=_TRADE_TEXTS)
def test_trade_reader_agrees_with_reference(tmp_path, text):
    _check_trade(tmp_path, text)


@_SETTINGS
@given(text=_TRADE_TEXTS)
def test_trade_reader_agrees_with_reference_in_small_blocks(tmp_path, small_blocks, text):
    _check_trade(tmp_path, text)


@_SETTINGS
@given(text=_INCOME_TEXTS)
def test_income_reader_agrees_with_reference(tmp_path, text):
    path = tmp_path / "i.csv"
    path.write_bytes(text.encode("utf-8"))
    expected, ref_error = _outcome(ref_read_income_csv, path)
    got, error = _outcome(read_income_csv, path)
    if ref_error is not None:
        _same_error(error, ref_error)
    else:
        assert error is None
        assert got.country_labels == expected.country_labels
        assert _bits(got.gdp) == _bits(expected.gdp)
        assert _bits(got.natural_rents) == _bits(expected.natural_rents)


def _check_tsi(tmp_path, text):
    path = tmp_path / "products.csv"
    path.write_bytes(text.encode("utf-8"))
    expected, ref_error = _outcome(ref_read_tsi_column, path)
    got, error = _outcome(read_tsi_column, path)
    if ref_error is not None:
        _same_error(error, ref_error)
    else:
        assert error is None
        assert _bits(got) == _bits(expected)


@_SETTINGS
@given(text=_TSI_TEXTS)
def test_tsi_reader_agrees_with_reference(tmp_path, text):
    _check_tsi(tmp_path, text)


@_SETTINGS
@given(text=_TSI_TEXTS)
def test_tsi_reader_agrees_with_reference_in_small_blocks(tmp_path, small_blocks, text):
    _check_tsi(tmp_path, text)


# --- pinned cases ---------------------------------------------------------

def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("text", [
    "country,product,value\nUSA,phones,0\nNER,wheat,0.0\nUSA,phones,-0\n",
    "country,product,value\n",
    "country,product,value\n\n\n",
])
def test_trade_file_with_no_positive_cell_is_an_empty_matrix(tmp_path, text):
    with pytest.raises(EmptyMatrix, match="no trade cell has a positive value"):
        read_trade_csv(_write(tmp_path / "t.csv", text))


def test_quoted_carriage_returns_are_kept(tmp_path):
    """Records end at \\n, \\r\\n or \\r; inside quotes they stay as written,
    as csv.reader keeps them."""
    panel = read_income_csv(_write(tmp_path / "i.csv",
                                   'country,gdp,natural_rents\r\n"a\r\nb",1,0\r"c\rd",2,1\r\n'))
    assert panel.country_labels == ("a\r\nb", "c\rd")


def test_blank_first_line_is_the_header(tmp_path):
    """csv.reader reads a blank first line as an empty header, and the
    tokenizer, which skips blank lines, does not get to replace it."""
    with pytest.raises(ParseError, match="^line 1: expected header"):
        read_trade_csv(_write(tmp_path / "t.csv", "\ncountry,product,value\nUSA,x,1\n"))
    with pytest.raises(ParseError, match="^line 1: no tsi column"):
        read_tsi_column(_write(tmp_path / "p.csv", "\nproduct,tsi\np,1\nq,2\n"))


def test_field_longer_than_the_csv_module_limit_is_read(tmp_path):
    """Declared widening: the reference's csv.reader stops at a field
    longer than csv.field_size_limit(); the tokenizer has no limit."""
    label = "a" * (csv.field_size_limit() + 1)
    path = _write(tmp_path / "t.csv", f"country,product,value\n{label},x,1\nb,x,2\n")
    with pytest.raises(csv.Error):
        ref_read_trade_csv(path)
    assert read_trade_csv(path).country_labels == (label, "b")


def test_field_longer_than_the_csv_module_limit_before_a_fault(tmp_path):
    """The line-numbered fault search reads the long field, as the
    tokenizer does, and names the fault after it; the process-wide field
    limit is left as it is."""
    limit = csv.field_size_limit()
    label = "a" * 200_000
    path = _write(tmp_path / "t.csv",
                  f"country,product,value\nb,x,1\n\n\"{label}\",x,1\nc,x,-3\n")
    with pytest.raises(NegativeValue, match="^line 5: negative export value -3$") as info:
        read_trade_csv(path)
    # restored before the error left the reader, while its traceback is still held
    assert csv.field_size_limit() == limit
    assert main(["ingest", str(path), "--out-dir", str(tmp_path / "out")]) == 66
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("tail, fields", [("b,x,2\n", 1), ('x","y,1\n', 100_001)])
def test_quote_left_open_before_many_lines(tmp_path, tail, fields):
    """A quote left open on line 2 runs to the end of the file, so its
    record holds the rest of the file, and the fault is named at line 2,
    in time linear in the file's length."""
    path = _write(tmp_path / "t.csv", 'country,product,value\n"Korea, Rep.,x,1\n' + tail * 100_000)
    start = time.perf_counter()
    with pytest.raises(ParseError, match=f"^line 2: expected 3 fields, got {fields}$"):
        read_trade_csv(path)
    assert time.perf_counter() - start < 10


@_SETTINGS
@given(text=st.tuples(st.lists(_field, max_size=4).map(",".join),
                      st.lists(st.lists(_field, max_size=4).map(",".join), max_size=6),
                      st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
       .map(lambda t: t[2].join([t[0], *t[1]]) + (t[2] if t[3] else "")))
def test_records_split_as_csv_reader_splits_them(tmp_path, text):
    """The fault search's record splitter gives csv.reader's records and
    start lines, quotes, blank lines and line breaks included."""
    path = _write(tmp_path / "t.csv", text)
    try:
        expected = list(_ref_records(path))
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            list(fileio._csv_records(path))
        _same_error(info.value, exc)
        return
    assert list(fileio._csv_records(path)) == expected


def test_record_longer_than_the_csv_module_limit_is_a_parse_error(tmp_path):
    """Read with the limit in force, a long field is a ParseError at the
    line where its record starts."""
    path = _write(tmp_path / "t.csv", f"country,product,value\n\n{'a' * 200_000},x,1\n")
    with pytest.raises(ParseError, match="^line 3: cannot read record: field larger than field limit"):
        list(fileio._csv_records(path))


def test_header_field_longer_than_the_csv_module_limit(tmp_path):
    long_name = "v" * 200_000
    for reader in (read_trade_csv, read_income_csv, read_tsi_column):
        path = _write(tmp_path / "t.csv", f"country,product,{long_name}\nb,x,1\n")
        with pytest.raises(ParseError, match="^line 1: cannot read record: field larger"):
            reader(path)


def test_values_are_stripped_before_float(tmp_path):
    """float() rejects "3\\x1c", which str.strip() reduces to "3"."""
    m = read_trade_csv(_write(tmp_path / "t.csv", "country,product,value\na,x,3\x1c\na,x, 1_0 \n"))
    assert m.vals.tolist() == [13.0]


def _matrix_facts(m):
    return m.country_labels, m.product_labels, m.rows.tolist(), m.cols.tolist(), _bits(m.vals)


def test_leading_bom_is_dropped_by_the_trade_reader(tmp_path):
    """Excel's "CSV UTF-8" starts a file with a byte order mark; only a
    leading one is dropped, and line numbers stay where they were."""
    text = "country,product,value\na,x,1\n\ufeffb,y,2.5\n"
    plain = read_trade_csv(_write(tmp_path / "plain.csv", text))
    bom = _write(tmp_path / "bom.csv", "\ufeff" + text)
    assert _matrix_facts(read_trade_csv(bom)) == _matrix_facts(plain)
    assert plain.country_labels == ("a", "\ufeffb")
    assert main(["ingest", str(bom), "--out-dir", str(tmp_path / "out")]) == 0
    with pytest.raises(NegativeValue, match="^line 4: negative export value -1$"):
        read_trade_csv(_write(tmp_path / "bad.csv", "\ufeff" + text + "c,z,-1\n"))


def test_leading_bom_is_dropped_by_the_income_reader(tmp_path):
    text = "country,gdp,natural_rents\na,1.5,0\nb,2,0.25\n"
    plain = read_income_csv(_write(tmp_path / "plain.csv", text))
    bom = read_income_csv(_write(tmp_path / "bom.csv", "\ufeff" + text))
    assert bom.country_labels == plain.country_labels == ("a", "b")
    assert _bits(bom.gdp) == _bits(plain.gdp) and _bits(bom.natural_rents) == _bits(plain.natural_rents)
    with pytest.raises(ParseError, match="^line 3: gdp must be positive, got 0$"):
        read_income_csv(_write(tmp_path / "bad.csv", "\ufeff" + text.replace("2,", "0,")))


def test_leading_bom_is_dropped_by_the_tsi_reader(tmp_path):
    text = "tsi,product\n0.5,p\n,q\n-1.25,r\n"
    plain = read_tsi_column(_write(tmp_path / "plain.csv", text))
    bom = read_tsi_column(_write(tmp_path / "bom.csv", "\ufeff" + text))
    assert _bits(bom) == _bits(plain) == _bits([0.5, -1.25])
    with pytest.raises(ParseError, match="^line 4: cannot parse value 'x'$"):
        read_tsi_column(_write(tmp_path / "bad.csv", "\ufeff" + text.replace("-1.25", "x")))


# --- block boundaries -----------------------------------------------------

@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_quoted_multiline_record_at_a_block_boundary(tmp_path, monkeypatch, block_rows):
    """A record whose quoted fields span lines 3-5 ends a block of 3 and
    starts one of 1 or 2; it is read whole, and a fault after it keeps
    its physical line."""
    text = 'country,product,value\na,x,1\n"b\n",y,"2\r\n"\nc,x,3\n'
    expected = read_trade_csv(_write(tmp_path / "t.csv", text))
    assert expected.country_labels == ("a", "b", "c") and expected.vals.tolist() == [1.0, 2.0, 3.0]
    monkeypatch.setattr(fileio, "_BLOCK_ROWS", block_rows)
    assert _matrix_facts(read_trade_csv(tmp_path / "t.csv")) == _matrix_facts(expected)
    with pytest.raises(NegativeValue, match="^line 8: negative export value -1$"):
        read_trade_csv(_write(tmp_path / "bad.csv", text + "\nd,x,-1\n"))


@pytest.mark.parametrize("tail, fields", [("b,y\n", 2), ("b,y,1,2\n", 4)])
def test_ragged_record_alone_in_a_later_block(tmp_path, small_blocks, tail, fields):
    """np.loadtxt accepts a block whose records are all of one wrong
    width; the reader checks each block against the header, and the fault
    search names the record at its physical line."""
    path = _write(tmp_path / "t.csv", 'country,product,value\n"a\n",x,1\n\n' + tail)
    with pytest.raises(ParseError, match=f"^line 5: expected 3 fields, got {fields}$"):
        read_trade_csv(path)
    assert main(["ingest", str(path), "--out-dir", str(tmp_path / "out")]) == 65


@pytest.mark.parametrize("text", ["country,product,value\n", "country,product,value\n\n\r\n\n"])
def test_trade_file_with_no_records_in_small_blocks(tmp_path, small_blocks, text):
    path = _write(tmp_path / "t.csv", text)
    with pytest.raises(EmptyMatrix, match="no trade cell has a positive value"):
        read_trade_csv(path)
    assert main(["ingest", str(path), "--out-dir", str(tmp_path / "out")]) == 68


def test_tsi_blank_cells_in_separate_blocks(tmp_path, small_blocks):
    """With 2 records a block, the second block is blank cells only."""
    path = _write(tmp_path / "products.csv", "product,tsi\np,\nq,\nr,\ns,1.5\nt,\nu,-2\n")
    assert read_tsi_column(path).tolist() == [1.5, -2.0]


# --- memory ---------------------------------------------------------------

class TestReaderMemory:
    """A reader holds one block of cells as Python strings; the trade
    reader keeps per record only its label codes and value."""

    def test_trade_csv_of_200k_rows(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 200_000
        cells = zip(rng.integers(0, 230, n).tolist(), rng.integers(0, 5000, n).tolist(),
                    rng.integers(1, 10 ** 6, n).tolist())
        path = _write(tmp_path / "t.csv", "country,product,value\n"
                      + "".join(f"C{i:03d},{j:06d},{v}\n" for i, j, v in cells))
        # about 77 bytes a record, at the final summation; tokenizing the whole
        # file at once, with three str per record, reached 212
        assert traced_peak(lambda: read_trade_csv(path)) < 130 * n

    def test_tsi_column_of_100k_rows(self, tmp_path):
        tsi = np.random.default_rng(4).standard_normal(100_000).tolist()
        path = _write(tmp_path / "products.csv", "product,u,tsi,pci,q\n"
                      + "".join(f"p{k},{k % 50},{x!r},{-x!r},{abs(x)!r}\n" for k, x in enumerate(tsi)))
        # about 1.2x with the tsi column alone; every column tokenized is several times that
        assert traced_peak(lambda: read_tsi_column(path)) < 2 * path.stat().st_size
