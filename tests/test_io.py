import tracemalloc
from functools import partial

import numpy as np
import pytest
from conftest import entries, traced_peak
from numpy.testing import assert_allclose

from ecomplex import (
    BinaryMatrix,
    ExportMatrix,
    NegativeValue,
    ParseError,
    binarize,
    read_income_csv,
    read_matrix,
    read_trade_csv,
    read_tsi_column,
    sha256_file,
    write_matrix,
)
from ecomplex import fileio
from ecomplex.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestTradeCsv:
    def test_small_file(self, tmp_path):
        p = write(tmp_path / "t.csv",
                  "country,product,value\n"
                  "USA,phones,5.0\n"
                  "USA,wheat,2.0\n"
                  "NER,wheat,1.0\n")
        m = read_trade_csv(p)
        assert m.country_labels == ("NER", "USA")
        assert m.product_labels == ("phones", "wheat")
        d = binarize(m).diversification
        assert list(d) == [1, 2]
        dense = m.to_dense()
        assert_allclose(dense, [[0.0, 1.0], [5.0, 2.0]])

    def test_duplicates_summed(self, tmp_path):
        p = write(tmp_path / "t.csv",
                  "country,product,value\n"
                  "USA,phones,5.0\n"
                  "USA,phones,1.5\n")
        m = read_trade_csv(p)
        assert m.vals.tolist() == [6.5]

    def test_zero_cells_absent(self, tmp_path):
        p = write(tmp_path / "t.csv",
                  "country,product,value\n"
                  "USA,phones,0.0\n"
                  "USA,wheat,3.0\n"
                  "NER,wheat,0.5\n")
        m = read_trade_csv(p)
        assert len(m.vals) == 2
        assert ("USA", "phones") not in {
            (m.country_labels[i], m.product_labels[j])
            for i, j in zip(m.rows, m.cols)
        }

    def test_negative_value_carries_line(self, tmp_path):
        p = write(tmp_path / "t.csv",
                  "country,product,value\n"
                  "USA,phones,5.0\n"
                  "USA,wheat,-2.0\n")
        with pytest.raises(NegativeValue, match="line 3"):
            read_trade_csv(p)

    def test_header_enforced(self, tmp_path):
        p = write(tmp_path / "t.csv", "exporter,product,value\nUSA,x,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_trade_csv(p)

    def test_field_count(self, tmp_path):
        p = write(tmp_path / "t.csv", "country,product,value\nUSA,x\n")
        with pytest.raises(ParseError, match="line 2"):
            read_trade_csv(p)

    def test_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "t.csv", "country,product,value\nUSA,x,inf\n")
        with pytest.raises(ParseError):
            read_trade_csv(p)

    def test_unparseable_value(self, tmp_path):
        p = write(tmp_path / "t.csv", "country,product,value\nUSA,x,abc\n")
        with pytest.raises(ParseError, match="line 2"):
            read_trade_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path / "t.csv", "")
        with pytest.raises(ParseError):
            read_trade_csv(p)

    def test_empty_label(self, tmp_path):
        p = write(tmp_path / "t.csv", "country,product,value\n,x,1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_trade_csv(p)

    def test_blank_lines_skipped(self, tmp_path):
        p = write(tmp_path / "t.csv",
                  "country,product,value\n\nUSA,x,1.0\n\n")
        assert len(read_trade_csv(p).vals) == 1


class TestIncomeCsv:
    def test_order_preserved(self, tmp_path):
        p = write(tmp_path / "i.csv",
                  "country,gdp,natural_rents\n"
                  "USA,50000,1.2\n"
                  "AGO,6000,40.0\n")
        panel = read_income_csv(p)
        assert panel.country_labels == ("USA", "AGO")
        assert_allclose(panel.gdp, [50000.0, 6000.0])
        assert_allclose(panel.natural_rents, [1.2, 40.0])

    def test_duplicate_country(self, tmp_path):
        p = write(tmp_path / "i.csv",
                  "country,gdp,natural_rents\nUSA,1,0\nUSA,2,0\n")
        with pytest.raises(ParseError, match="line 3"):
            read_income_csv(p)

    def test_nonpositive_gdp(self, tmp_path):
        p = write(tmp_path / "i.csv", "country,gdp,natural_rents\nUSA,0,0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_income_csv(p)

    def test_negative_rents(self, tmp_path):
        p = write(tmp_path / "i.csv", "country,gdp,natural_rents\nUSA,1,-3\n")
        with pytest.raises(NegativeValue):
            read_income_csv(p)

    def test_header(self, tmp_path):
        p = write(tmp_path / "i.csv", "country,income,rents\nUSA,1,0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_income_csv(p)


class TestPhysicalLineNumbers:
    """Errors name the physical line where the bad record starts, even
    after an earlier quoted field spanned two lines."""

    def test_trade_csv(self, tmp_path):
        p = write(tmp_path / "t.csv",
                  'country,product,value\nA,x,"1\n"\nC,x\n')
        with pytest.raises(ParseError, match="line 4: expected 3 fields"):
            read_trade_csv(p)

    def test_income_csv(self, tmp_path):
        p = write(tmp_path / "i.csv",
                  'country,gdp,natural_rents\n"two\nlines",1,0\nC,x,1\n')
        with pytest.raises(ParseError, match="line 4: cannot parse"):
            read_income_csv(p)

    def test_tsi_column(self, tmp_path):
        p = write(tmp_path / "products.csv",
                  'product,u,tsi\n"two\nlines",1,0.5\nq,1,x\n')
        with pytest.raises(ParseError, match="line 4: cannot parse"):
            read_tsi_column(p)

    @pytest.mark.parametrize("reader", [read_trade_csv, read_income_csv,
                                        read_tsi_column])
    def test_empty_file(self, tmp_path, reader):
        p = write(tmp_path / "e.csv", "")
        with pytest.raises(ParseError, match="line 1: empty file"):
            reader(p)


class TestCanonicalMatrixFile:
    def test_valued_round_trip(self, tmp_path):
        m = ExportMatrix.from_coordinates(
            ("NER", "USA"),
            ("phones", "wheat"),
            np.array([0, 1, 1]),
            np.array([1, 0, 1]),
            np.array([1.0, 0.1, 1.0 / 3.0]),
        )
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        back = read_matrix(path)
        assert isinstance(back, ExportMatrix)
        assert back.country_labels == m.country_labels
        assert back.product_labels == m.product_labels
        assert back.rows.tolist() == m.rows.tolist()
        assert back.cols.tolist() == m.cols.tolist()
        assert back.vals.tolist() == m.vals.tolist()  # bit-exact floats

    def test_binary_round_trip(self, tmp_path):
        dense = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        m = BinaryMatrix.from_dense(dense, country_labels=("a", "b", "c"))
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        back = read_matrix(path)
        assert isinstance(back, BinaryMatrix)
        assert entries(back) == entries(m)
        assert np.array_equal(back.to_dense(), dense)

    def test_write_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(9)
        dense = rng.uniform(0.0, 5.0, size=(6, 9))
        dense[dense < 2.5] = 0.0
        m = ExportMatrix.from_dense(dense)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_matrix(m, p1)
        write_matrix(read_matrix(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_labels_with_spaces_survive(self, tmp_path):
        m = BinaryMatrix.from_coordinates(
            ("United States", "New Zealand"),
            ("machine tools", "frozen fish"),
            np.array([0, 1]),
            np.array([0, 1]),
        )
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        back = read_matrix(path)
        assert back.country_labels == ("United States", "New Zealand")
        assert back.product_labels == ("machine tools", "frozen fish")

    @pytest.mark.parametrize("brk", list("\n\r" + fileio._OTHER_BREAKS))
    @pytest.mark.parametrize("kind", ["country", "product"])
    @pytest.mark.parametrize("valued", [False, True])
    def test_label_with_a_line_break_is_refused(self, tmp_path, monkeypatch, brk, kind, valued):
        """A label holding a line break would split its line, so read_matrix
        would reject the file; it is refused before the file is opened."""
        monkeypatch.setattr(fileio, "_LINE_BLOCK", 2)  # the label in the second block
        labels = {"country": ["a", "b", "c", "d"], "product": ["w", "x", "y", "z"]}
        labels[kind][3] = f"bad{brk}label"
        matrix_type = ExportMatrix if valued else BinaryMatrix
        m = matrix_type.from_dense(np.eye(4), country_labels=labels["country"],
                                   product_labels=labels["product"])
        path = tmp_path / "m.txt"
        with pytest.raises(ValueError) as info:
            write_matrix(m, path)
        assert str(info.value) == f"{kind} label {labels[kind][3]!r} holds a line break"
        assert not path.exists()

    def test_expected_layout(self, tmp_path):
        m = BinaryMatrix.from_coordinates(("x", "y"), ("q",), np.array([0, 1]), np.array([0, 0]))
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        assert path.read_text() == (
            "countries=2 products=1 entries=2\n"
            "c x\nc y\np q\n0 0\n1 0\n"
        )

    def test_bad_header(self, tmp_path):
        p = write(tmp_path / "m.txt", "countries=two products=1 entries=0\nc x\nc y\np q\n")
        with pytest.raises(ParseError, match="line 1"):
            read_matrix(p)

    def test_negative_count_is_a_malformed_header(self, tmp_path):
        p = write(tmp_path / "m.txt", "countries=-1 products=1 entries=0\np q\n")
        with pytest.raises(ParseError, match="^line 1: malformed header"):
            read_matrix(p)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings_read_the_same(self, tmp_path, newline):
        rng = np.random.default_rng(5)
        m = ExportMatrix.from_dense(rng.uniform(0.0, 2.0, size=(4, 6)))
        write_matrix(m, tmp_path / "m.txt")
        text = (tmp_path / "m.txt").read_text()
        (tmp_path / "crlf.txt").write_bytes(text.replace("\n", newline).encode())
        back = read_matrix(tmp_path / "crlf.txt")
        assert back.rows.tolist() == m.rows.tolist() and back.cols.tolist() == m.cols.tolist()
        assert back.vals.tolist() == m.vals.tolist()

    @pytest.mark.parametrize("scan_block", [3, 1 << 20])
    def test_no_final_line_break(self, tmp_path, monkeypatch, scan_block):
        monkeypatch.setattr(fileio, "_SCAN_BLOCK", scan_block)
        p = write(tmp_path / "m.txt", "countries=2 products=1 entries=2\nc x\nc y\np q\n0 0\n1 0")
        assert read_matrix(p).rows.tolist() == [0, 1]
        p = write(tmp_path / "m.txt", "countries=2 products=1 entries=0\nc x\nc y\np q")
        assert read_matrix(p).country_labels == ("x", "y")

    def test_line_count_mismatch(self, tmp_path):
        p = write(tmp_path / "m.txt", "countries=2 products=1 entries=2\nc x\nc y\np q\n0 0\n")
        with pytest.raises(ParseError, match="expected 6 lines"):
            read_matrix(p)

    def test_out_of_range_entry(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=1\nc x\nc y\np q\n0 1\n")
        with pytest.raises(ParseError, match="out of range"):
            read_matrix(p)

    def test_unsorted_entries(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=2\nc x\nc y\np q\n1 0\n0 0\n")
        with pytest.raises(ParseError, match="sorted"):
            read_matrix(p)

    def test_repeated_entry(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=2\nc x\nc y\np q\n0 0\n0 0\n")
        with pytest.raises(ParseError, match="sorted"):
            read_matrix(p)

    def test_nonpositive_value(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=1\nc x\nc y\np q\n0 0 0.0\n")
        with pytest.raises(ParseError, match="positive"):
            read_matrix(p)

    def test_mixed_entry_widths(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=2\nc x\nc y\np q\n0 0 1.0\n1 0\n")
        with pytest.raises(ParseError, match="inconsistent"):
            read_matrix(p)

    def test_wrong_label_prefix(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=0\nc x\nq y\np q\n")
        with pytest.raises(ParseError, match="label line"):
            read_matrix(p)


HEAD = "countries=2 products=1 entries={z}\nc x\nc y\np q\n"


class TestMatrixErrorLines:
    """Every entry-block error names the physical line that holds it."""

    @pytest.mark.parametrize("entries, line, message", [
        (["0 1"], 5, r"entry \(0, 1\) out of range"),
        (["0 0", "2 0"], 6, r"entry \(2, 0\) out of range"),
        (["-1 0"], 5, r"entry \(-1, 0\) out of range"),
        (["1 0", "0 0"], 6, "entries must be sorted by"),
        (["0 0", "0 0"], 6, "without repeats"),
        (["0 0 1.0", "1 0 0.0"], 6, "stored values must be positive"),
        (["0 0 -2.5"], 5, "stored values must be positive"),
        (["0 0 1.0", "1 0 inf"], 6, "non-finite value 'inf'"),
        (["0 0 nan"], 5, "non-finite value 'nan'"),
        (["0 0 1.0", "1 0 abc"], 6, "cannot parse value 'abc'"),
        (["0 x"], 5, "bad entry indices"),
        (["0 0", "1.0 0"], 6, "bad entry indices"),
        (["0 0 1.0", "x 0 1.0"], 6, "bad entry indices"),
        (["0 0 1.0", "1 0"], 6, "inconsistent entry line"),
        (["0 0", "1 0 1.0"], 6, "inconsistent entry line"),
        (["0 0", ""], 6, "inconsistent entry line"),
        (["0"], 5, "inconsistent entry line"),
        (["0 0 1.0 2.0"], 5, "inconsistent entry line"),
        # the first offending line wins, whatever the kind of fault
        (["0 0", "0 5", "1 x"], 6, "out of range"),
        (["1 0", "0 0", "1 x"], 6, "sorted"),
        (["0 0 1.0", "1 0 -1.0", "1 0 abc"], 6, "positive"),
        (["0 0 abc", "1 0 -1.0"], 5, "cannot parse value"),
        (["0 9 abc"], 5, "out of range"),
        # numpy's parser reads no "_" and no non-ASCII digit, which Python's int and float read
        (["0 0", "1_0 0"], 6, "bad entry indices"),
        (["0 0", "\u0661 0"], 6, "bad entry indices"),
        (["0 0 1.0", "1 0 1_0"], 6, "cannot parse value '1_0'"),
        (["0 0 1.0", "1 0 \u0661.5"], 6, "cannot parse value '\u0661.5'"),
    ])
    def test_entry_block(self, tmp_path, entries, line, message):
        p = write(tmp_path / "m.txt",
                  HEAD.format(z=len(entries)) + "\n".join(entries) + "\n")
        with pytest.raises(ParseError, match=f"^line {line}: .*{message}") as info:
            read_matrix(p)
        assert info.value.line == line

    @pytest.mark.parametrize("value", ["", " 2.5"], ids=["binary", "valued"])
    @pytest.mark.parametrize("i, j", [(1, 2**31), (-2**31 - 1, 0)], ids=["above", "below"])
    def test_index_beyond_int32(self, tmp_path, value, i, j):
        """Indices are parsed as int32; a wider one is named out of range at its line."""
        p = write(tmp_path / "m.txt", HEAD.format(z=2) + f"0 0{value}\n{i} {j}{value}\n")
        with pytest.raises(ParseError, match=rf"^line 6: entry \({i}, {j}\) out of range$"):
            read_matrix(p)

    @pytest.mark.parametrize("entries", [["0 0", "1 0"], ["0 0 1.0", "1 0 2.5"]],
                             ids=["binary", "valued"])
    @pytest.mark.parametrize("labels, line, message", [
        ("c x\nc y\nc x\np q\n", 4, "duplicate country label 'x'"),
        ("c x\nc y\np q\np r\np r\n", 6, "duplicate product label 'r'"),
    ], ids=["country", "product"])
    def test_repeated_label(self, tmp_path, capsys, entries, labels, line, message):
        """A repeated label is a fault of the file, named at its line."""
        n, m = labels.count("c "), labels.count("p ")
        p = write(tmp_path / "m.txt", f"countries={n} products={m} entries={len(entries)}\n"
                  + labels + "\n".join(entries) + "\n")
        with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
            read_matrix(p)
        assert main(["metrics", str(p), "--out-dir", str(tmp_path / "out")]) == 65
        assert f"line {line}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("earlier", [0, 4_321])
    def test_label_repeated_thousands_of_lines_later(self, tmp_path, capsys, earlier):
        """Labels are compared by sorted hashes, not in file order: a repeat
        is still named at its own line, however far its first copy."""
        labels = [f"q{j}" for j in range(5_000)] + [f"q{earlier}", "q0"]
        p = write(tmp_path / "m.txt", f"countries=1 products={len(labels)} entries=1\nc x\n"
                  + "".join(f"p {label}\n" for label in labels) + "0 0\n")
        message = f"line 5003: duplicate product label 'q{earlier}'"  # product 5,000's line
        with pytest.raises(ParseError, match=f"^{message}$") as info:
            read_matrix(p)
        assert info.value.line == 5_003
        assert main(["metrics", str(p), "--out-dir", str(tmp_path / "out")]) == 65
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("block, line, message", [
        (["-1 0", "0 1", "1 1"], 6, r"entry \(-1, 0\) out of range"),
        (["0 0", "0 1", "2 1"], 8, r"entry \(2, 1\) out of range"),
    ], ids=["first", "last"])
    def test_row_outside_the_matrix(self, tmp_path, capsys, block, line, message):
        """A row outside the matrix, in entries that are in order, breaks
        the row offsets; the fault is named at its line."""
        p = write(tmp_path / "m.txt", "countries=2 products=2 entries=3\nc x\nc y\np q\np r\n"
                  + "\n".join(block) + "\n")
        with pytest.raises(ParseError, match=f"^line {line}: {message}$"):
            read_matrix(p)
        assert main(["metrics", str(p), "--out-dir", str(tmp_path / "out")]) == 65
        assert f"line {line}: entry" in capsys.readouterr().err

    def test_wrong_label_prefix(self, tmp_path):
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=0\nc x\nq y\np q\n")
        with pytest.raises(ParseError, match="^line 3: expected a 'c' label line"):
            read_matrix(p)
        p = write(tmp_path / "m.txt",
                  "countries=2 products=1 entries=0\nc x\nc y\nc q\n")
        with pytest.raises(ParseError, match="^line 4: expected a 'p' label line"):
            read_matrix(p)

    @pytest.mark.parametrize("scan_block", [3, 1 << 20])
    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_other_line_breaks(self, tmp_path, monkeypatch, scan_block, brk):
        """A break str.splitlines honours besides \\n, \\r\\n and \\r ends a
        line in error line numbers, and a file holding one is rejected at it."""
        monkeypatch.setattr(fileio, "_SCAN_BLOCK", scan_block)
        p = write(tmp_path / "m.txt", HEAD.format(z=2).replace("\np q\n", "\np q" + brk) + "0 0\n1 0\n")
        with pytest.raises(ParseError, match=r"^line 4: line break .* is not \\n, \\r\\n or \\r$"):
            read_matrix(p)
        p = write(tmp_path / "m.txt", HEAD.format(z=2).replace("\nc y\n", "\nc y" + brk) + "0 0\n1 5\n")
        with pytest.raises(ParseError, match=r"^line 6: entry \(1, 5\) out of range"):
            read_matrix(p)

    @pytest.mark.parametrize("valued", [False, True])
    @pytest.mark.parametrize("defect, message", [
        ("swap", "sorted"),
        ("index", "bad entry indices"),
        ("width", "inconsistent entry line"),
        ("range", "out of range"),
        ("blank", "inconsistent entry line"),
    ])
    def test_deep_defect(self, tmp_path, valued, defect, message):
        rng = np.random.default_rng(4)
        dense = rng.uniform(0.5, 2.0, size=(100, 100))
        m = ExportMatrix.from_dense(dense) if valued else BinaryMatrix.from_dense(dense)
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        lines = path.read_text().splitlines()
        k = 1 + 100 + 100 + 7321  # 0-based index of entry 7321
        if defect == "swap":
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif defect == "index":
            lines[k] = "7x" + lines[k][1:]
        elif defect == "width":
            lines[k] = lines[k] + " 1"
        elif defect == "range":
            lines[k] = "100" + lines[k][2:]
        else:
            lines[k] = ""
        path.write_text("\n".join(lines) + "\n")
        # a swap leaves line k + 1 in order and breaks the order at k + 2
        line = k + 2 if defect == "swap" else k + 1
        with pytest.raises(ParseError, match=f"^line {line}: .*{message}"):
            read_matrix(path)

    def test_random_floats_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2 ** 63, size=4000, dtype=np.uint64)
        vals = bits.view(np.float64)
        vals = vals[np.isfinite(vals) & (vals > 0)]
        vals = np.concatenate([vals, [5e-324, 1.7976931348623157e308, 1e16, 1e-5,
                                      0.1, 3.0, 123456789012345678.0, 2.5e-308]])
        rows = np.arange(len(vals)) // 50
        cols = np.arange(len(vals)) % 50
        m = ExportMatrix.from_coordinates(tuple(f"c{i}" for i in range(rows.max() + 1)),
                                          tuple(f"p{j}" for j in range(50)), rows, cols, vals)
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        back = read_matrix(path)
        expected = np.array([float(repr(float(v))) for v in vals])
        assert back.vals.tobytes() == expected.tobytes()
        assert back.rows.tolist() == rows.tolist()
        assert back.cols.tolist() == cols.tolist()
        entry_values = [line.split()[2] for line in path.read_text().splitlines()[-len(vals):]]
        assert entry_values == [repr(float(v)) for v in vals]


def _reference_read_entries(lines, n, m):
    """Line-by-line reading of an entry block, as a loop: the reference the
    array reader must agree with. Returns (rows, cols, vals) or raises."""
    rows, cols, vals, prev, valued = [], [], [], (-1, -1), None
    for k, line in enumerate(lines):
        lineno = 2 + n + m + k
        parts = line.split()
        if valued is None:
            valued = len(parts) == 3
        if len(parts) != (3 if valued else 2):
            raise ParseError("inconsistent entry line", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("bad entry indices", lineno) from None
        if not (0 <= i < n and 0 <= j < m):
            raise ParseError(f"entry ({i}, {j}) out of range", lineno)
        if (i, j) <= prev:
            raise ParseError("entries must be sorted by (i, j) without repeats", lineno)
        prev = (i, j)
        rows.append(i)
        cols.append(j)
        if valued:
            try:
                v = float(parts[2])
            except ValueError:
                raise ParseError(f"cannot parse value {parts[2]!r}", lineno) from None
            if not np.isfinite(v):
                raise ParseError(f"non-finite value {parts[2]!r}", lineno)
            if v <= 0:
                raise ParseError("stored values must be positive", lineno)
            vals.append(v)
    return rows, cols, vals


@pytest.mark.parametrize("seed", range(100))
def test_read_matrix_agrees_with_line_reference(tmp_path, seed):
    """Random entry blocks with a few random faults: the reader raises the
    reference's error (message and line) or returns the same entries."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    valued = bool(seed % 2)
    cells = sorted({(int(rng.integers(n)), int(rng.integers(m)))
                    for _ in range(int(rng.integers(1, 12)))})
    lines = [f"{i} {j} {rng.uniform(0.1, 9.0)!r}" if valued else f"{i} {j}"
             for i, j in cells]
    faults = ["", "   ", "x", "-1", str(n), "0.5", "inf", "nan", "0", "-2.0", "abc",
              "1e400", "1 2 3 4", "+1"]
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(len(lines)))
        parts = lines[k].split()
        action = int(rng.choice([0, 1, 1, 1, 1, 2, 3]))
        if action == 0:
            lines[k] = str(rng.choice(faults))
        elif action == 1 and parts:
            parts[int(rng.integers(len(parts)))] = str(rng.choice(faults))
            lines[k] = " ".join(parts)
        elif action == 2 and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        else:
            lines[k] = lines[k - 1]
    path = write(tmp_path / "m.txt",
                 f"countries={n} products={m} entries={len(lines)}\n"
                 + "".join(f"c c{i}\n" for i in range(n))
                 + "".join(f"p p{j}\n" for j in range(m))
                 + "\n".join(lines) + "\n")
    try:
        expected = _reference_read_entries(lines, n, m)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            read_matrix(path)
        assert str(info.value) == str(exc)
        return
    got = read_matrix(path)
    assert got.rows.tolist() == expected[0]
    assert got.cols.tolist() == expected[1]
    if expected[2]:
        assert got.vals.tolist() == expected[2]


@pytest.mark.parametrize("valued", [False, True])
def test_write_matrix_equals_line_reference(tmp_path, valued):
    """The array writer gives the bytes of a sorted, line-by-line f-string
    writer, whatever order the entries come in."""
    rng = np.random.default_rng(7)
    dense = rng.uniform(-1.0, 3.0, size=(40, 120))
    m = (ExportMatrix if valued else BinaryMatrix).from_dense(np.maximum(dense, 0))
    perm = rng.permutation(len(m.rows))
    if valued:
        m = ExportMatrix.from_coordinates(m.country_labels, m.product_labels,
                                          m.rows[perm], m.cols[perm], m.vals[perm])
        cells = sorted(zip(m.rows.tolist(), m.cols.tolist(), m.vals.tolist()))
        entries = [f"{i} {j} {v!r}" for i, j, v in cells]
    else:
        m = BinaryMatrix.from_coordinates(m.country_labels, m.product_labels,
                                          m.rows[perm], m.cols[perm])
        entries = [f"{i} {j}" for i, j in sorted(zip(m.rows.tolist(), m.cols.tolist()))]
    expected = [f"countries=40 products=120 entries={len(entries)}"]
    expected += [f"c {lab}" for lab in m.country_labels]
    expected += [f"p {lab}" for lab in m.product_labels]
    write_matrix(m, tmp_path / "m.txt")
    assert (tmp_path / "m.txt").read_text() == "\n".join(expected + entries) + "\n"


@pytest.mark.parametrize("m", [
    partial(BinaryMatrix.from_coordinates, ("a", "b"), ("x",), np.array([0, 2]), np.array([0, 0])),
    partial(ExportMatrix.from_coordinates, ("a", "b"), ("x",), np.array([0, -1]), np.array([0, 0]),
            np.ones(2)),
    partial(ExportMatrix.from_coordinates, ("a", "b"), ("x",), np.array([0, 1]), np.array([0, 1]),
            np.ones(2)),
])
def test_write_matrix_rejects_out_of_range_entries(tmp_path, m):
    """The matrix types reject the entry before it can reach the writer."""
    with pytest.raises(ValueError, match="out of range"):
        write_matrix(m(), tmp_path / "m.txt")


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of three entry lines written and three characters scanned,
    so that small files span several blocks."""
    monkeypatch.setattr(fileio, "_ENTRY_BLOCK", 3)
    monkeypatch.setattr(fileio, "_SCAN_BLOCK", 3)


@pytest.mark.parametrize("seed", range(100))
def test_read_matrix_agrees_with_line_reference_in_small_blocks(tmp_path, small_blocks, seed):
    test_read_matrix_agrees_with_line_reference(tmp_path, seed)


@pytest.mark.parametrize("valued", [False, True])
def test_write_matrix_equals_line_reference_in_small_blocks(tmp_path, small_blocks, valued):
    test_write_matrix_equals_line_reference(tmp_path, valued)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_other_line_endings_read_the_same_in_small_blocks(tmp_path, small_blocks, newline):
    TestCanonicalMatrixFile().test_other_line_endings_read_the_same(tmp_path, newline)


@pytest.mark.parametrize("valued", [False, True])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 7])
def test_round_trip_at_block_boundaries(tmp_path, small_blocks, valued, count):
    """Entry counts of 0, 1, block - 1, block, block + 1 and more: the file
    holds the line-by-line text and reads back to the same entries."""
    rows, cols = np.divmod(np.arange(count), 3)
    labels = ("a", "b", "c"), ("x", "y", "z")
    if valued:
        m = ExportMatrix.from_coordinates(*labels, rows, cols, 1.0 / (1.0 + np.arange(count)))
        entries = [f"{i} {j} {v!r}" for i, j, v in zip(rows, cols, m.vals.tolist())]
    else:
        m = BinaryMatrix.from_coordinates(*labels, rows, cols)
        entries = [f"{i} {j}" for i, j in zip(rows, cols)]
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    head = [f"countries=3 products=3 entries={count}", "c a", "c b", "c c", "p x", "p y", "p z"]
    assert path.read_text() == "\n".join(head + entries) + "\n"
    back = read_matrix(path)
    assert isinstance(back, ExportMatrix) == (valued and count > 0)  # no entry line, no values
    assert back.rows.tolist() == rows.tolist() and back.cols.tolist() == cols.tolist()
    if valued and count:
        assert back.vals.tolist() == m.vals.tolist()


def _sparse_matrix(n_entries: int, valued: bool, n: int = 100, m: int = 10_000):
    rng = np.random.default_rng(n_entries)
    rows, cols = np.divmod(np.sort(rng.choice(n * m, n_entries, replace=False)), m)
    labels = tuple(f"c{i}" for i in range(n)), tuple(f"p{j}" for j in range(m))
    if valued:
        return ExportMatrix.from_coordinates(*labels, rows, cols, rng.uniform(0.1, 9.0, n_entries))
    return BinaryMatrix.from_coordinates(*labels, rows, cols)


class TestBinaryColumnsInPlace:
    """A binary file's columns are moved to the front of the parsed
    table's own buffer, which is then shrunk to them."""

    @pytest.mark.parametrize("z", [0, 1, 2, 3, 5, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097,
                                   65_535, 65_536, 65_537])
    def test_round_trip(self, tmp_path, z):
        m = _sparse_matrix(z, valued=False, n=7, m=20_000)
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        back = read_matrix(path)
        assert back.offsets.tolist() == m.offsets.tolist()
        assert back.cols.tobytes() == m.cols.tobytes()
        write_matrix(back, tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()
        cols = back.cols
        assert cols.dtype == np.int32 and cols.flags.c_contiguous and not cols.flags.writeable
        assert cols.base.nbytes <= 8 * ((z + 1) // 2)

    def test_columns_move_with_no_temporary(self):
        """Each chunk is read from past its own end, so numpy copies none
        through a temporary, and shrinking the table frees half of it."""
        z = 100_001
        tracemalloc.start()
        try:
            table = np.zeros(z, dtype=[("i", np.int32), ("j", np.int32)])
            table["i"], table["j"] = -1, np.arange(z)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cols = fileio._front_columns(table)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cols.tolist() == list(range(z))
        assert peak - before < 4096  # a temporary for the last chunk would be 138 KB
        assert before - after > 4 * z - 4096  # the shrink frees the half that held rows

    def test_a_table_sharing_its_buffer_is_read_the_same(self, tmp_path, monkeypatch):
        """A parsed table that does not own its data is copied to one
        that does, on the same path, so resizing it frees no one's buffer."""
        m = _sparse_matrix(1_001, valued=False)
        write_matrix(m, tmp_path / "m.txt")
        loadtxt, wide = np.loadtxt, []

        def loadtxt_view(*args, **kwargs):  # the table as a view of a wider array
            table = loadtxt(*args, **kwargs)
            wide.append(np.zeros(len(table) + 1, table.dtype))
            wide[0][1:] = table
            return wide[0][1:]

        monkeypatch.setattr(np, "loadtxt", loadtxt_view)
        back = read_matrix(tmp_path / "m.txt")
        assert back.offsets.tolist() == m.offsets.tolist()
        assert back.cols.tobytes() == m.cols.tobytes()
        assert back.cols.base.flags.owndata and back.cols.base.nbytes <= 8 * 501
        assert not np.shares_memory(back.cols, wide[0])


class TestMatrixFileMemory:
    """The matrix file is written a block at a time, read into one copy
    of the entry arrays, and searched for a fault a line at a time."""

    def test_write_peak_does_not_grow_with_entries(self, tmp_path):
        peaks = []
        for n_entries in (200_000, 800_000):
            m = _sparse_matrix(n_entries, valued=False)
            peaks.append(traced_peak(partial(write_matrix, m, tmp_path / "m.txt")))
        # writing all lines in one buffer grew by 2.2x 8 bytes per entry
        assert peaks[1] - peaks[0] < 0.05 * 8 * m.n_entries

    @pytest.mark.parametrize("valued", [False, True])
    def test_read_peak_is_a_small_multiple_of_the_entries(self, tmp_path, valued):
        write_matrix(_sparse_matrix(200_000, valued), tmp_path / "m.txt")
        back = []
        peak = traced_peak(lambda: back.append(read_matrix(tmp_path / "m.txt")))
        # the parsed table, with int32 indices, and the labels: about 1.5x 8 bytes per entry
        # (3.9x valued, whose columns and values are copied out of the table). 2.05x when
        # the binary columns were copied out too and lines were counted 1M characters at
        # a time, 2.4x (4.4x) with intp columns, and about 11x when the whole text, a copy
        # of the entry block and per-check arrays were held
        assert peak < (4.2 if valued else 1.65) * 8 * back[0].n_entries

    def test_label_write_peak_is_below_the_label_text(self, tmp_path):
        labels = tuple(f"product-{j:053d}" for j in range(200_000))
        m = BinaryMatrix.from_coordinates(("a", "b"), labels, [0, 1], [0, 1])
        peak = traced_peak(partial(write_matrix, m, tmp_path / "m.txt"))
        # label lines written a block at a time: about 1.2x; 2.2x when all of them
        # were joined and encoded at once
        assert peak < 1.5 * sum(map(len, labels))

    def test_index_texts_are_as_narrow_as_the_largest_index(self, tmp_path):
        m = BinaryMatrix.from_coordinates(("a", "b"), tuple(f"p{j}" for j in range(200_000)),
                                          [0, 1], [0, 199_999])
        peak = traced_peak(partial(write_matrix, m, tmp_path / "m.txt"))
        # about 14 bytes per product; 43 with texts as wide as any int64, and 71 when
        # they were built from one Python string per product
        assert peak < 25 * m.n_products
        assert (tmp_path / "m.txt").read_text().endswith("\n0 0\n1 199999\n")

    @pytest.mark.parametrize("valued", [False, True])
    @pytest.mark.parametrize("line", [3, -1], ids=["label", "last"])
    def test_naming_a_fault_peaks_below_a_clean_read(self, tmp_path, monkeypatch, valued, line):
        monkeypatch.setattr(fileio, "_SCAN_BLOCK", 1 << 14)  # a block far smaller than the file
        path = tmp_path / "m.txt"
        write_matrix(_sparse_matrix(50_000, valued), path)
        clean = traced_peak(partial(read_matrix, path))
        lines = path.read_text().splitlines()
        lines[line] = "x" + lines[line]
        path.write_text("\n".join(lines) + "\n")
        peak = traced_peak(partial(pytest.raises, ParseError, read_matrix, path))
        # at most 0.9x, the rejected clean read's table; 1.9x to 2.7x when the
        # fault search held the file's text and one string per line
        assert peak < clean


class TestSha256:
    def test_known_digest(self, tmp_path):
        p = tmp_path / "f"
        p.write_bytes(b"abc")
        assert sha256_file(p) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_distinguishes_content(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"same")
        b.write_bytes(b"same")
        assert sha256_file(a) == sha256_file(b)
        b.write_bytes(b"diff")
        assert sha256_file(a) != sha256_file(b)
