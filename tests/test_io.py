import numpy as np
import pytest
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
        m = ExportMatrix(
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
        assert back.entries == m.entries
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
        m = BinaryMatrix(
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

    def test_expected_layout(self, tmp_path):
        m = BinaryMatrix(("x", "y"), ("q",), np.array([0, 1]), np.array([0, 0]))
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
