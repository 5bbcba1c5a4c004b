import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ecomplex import (
    BinaryMatrix,
    DegenerateInput,
    ExportMatrix,
    ModelParams,
    ParseError,
    binarize,
    compute_metrics,
    estimate_tau,
    read_income_csv,
    read_matrix,
    read_trade_csv,
    read_tsi_column,
    run_paper_regressions,
    world_distribution,
    write_matrix,
)
from ecomplex import cli, fileio
from ecomplex.cli import main

TRADE = (
    "country,product,value\n"
    "USA,phones,5.0\n"
    "USA,wheat,2.0\n"
    "USA,phones,1.5\n"
    "NER,wheat,1.0\n"
)

CONVERGENT = np.array([
    [1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 0, 0],
    [1, 1, 0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1],
    [1, 1, 1, 0, 1, 0],
])

NESTED3 = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def matrix_file(tmp_path, dense, name="m.txt"):
    path = tmp_path / name
    write_matrix(BinaryMatrix.from_dense(np.asarray(dense)), path)
    return path


class TestIngest:
    def test_summary_and_outputs(self, tmp_path, capsys):
        src = tmp_path / "trade.csv"
        src.write_text(TRADE)
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "countries=2 products=2 entries=3" in printed

        m = read_matrix(out / "matrix.txt")
        assert m.country_labels == ("NER", "USA")
        # duplicate USA phones rows were summed before writing
        dense = m.to_dense()
        assert dense[1, 0] == 6.5

        report = json.loads((out / "ingest_report.json").read_text())
        assert report["matrix"]["entries"] == 3
        (input_path, digest), = report["inputs"].items()
        assert input_path.endswith("trade.csv")
        assert len(digest) == 64

    def test_bad_header_exits_65(self, tmp_path):
        src = tmp_path / "trade.csv"
        src.write_text("exporter,product,value\nUSA,x,1\n")
        assert main(["ingest", str(src), "--out-dir", str(tmp_path)]) == 65

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["ingest", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_all_zero_values_exit_68_and_write_nothing(self, tmp_path, capsys):
        """A trade CSV with no positive cell fails at ingest, not at a
        later step that reads its matrix file."""
        src = tmp_path / "trade.csv"
        src.write_text("country,product,value\nUSA,phones,0\nNER,wheat,0.0\nUSA,phones,0\n")
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out-dir", str(out)]) == 68
        assert "EmptyMatrix: no trade cell has a positive value" in capsys.readouterr().err
        assert not out.exists()


def _bad_header_matrix(tmp_path):
    path = matrix_file(tmp_path, CONVERGENT)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("not a matrix file\n" + "".join(lines[1:]))
    return path


def _income(tmp_path, text="country,gdp,natural_rents\nZZZ,10,0\n"):
    path = tmp_path / "income.csv"
    path.write_text(text)
    return path


def _constant_tsi(tmp_path):
    path = tmp_path / "products.csv"
    TestFitTau._products_csv(path, np.zeros(50))
    return path


class TestFailedRunLeavesNoOutDir:
    """Each command creates --out-dir only once its inputs are read and
    checked, so a run that fails on them leaves no empty directory."""

    @pytest.mark.parametrize("make_argv, code", [
        (lambda tmp: ["simulate", "--K", "21", "--mode", "exact"], 74),
        (lambda tmp: ["metrics", str(tmp / "missing.txt")], 2),
        (lambda tmp: ["fit-tau", str(tmp / "missing.csv")], 2),
        (lambda tmp: ["validate", str(_bad_header_matrix(tmp)), str(_income(tmp))], 65),
        (lambda tmp: ["validate", str(matrix_file(tmp, CONVERGENT)), str(tmp / "missing.csv")],
         2),
        (lambda tmp: ["validate", str(matrix_file(tmp, CONVERGENT)),
                      str(_income(tmp, "country,gdp\nZZZ,10\n"))], 65),
        (lambda tmp: ["validate", str(matrix_file(tmp, CONVERGENT)), str(_income(tmp))], 77),
        (lambda tmp: ["fit-tau", str(_constant_tsi(tmp))], 75),
        (lambda tmp: ["ingest", str(tmp / "missing.csv")], 2),
    ], ids=["simulate-infeasible", "metrics-missing", "fit-tau-missing",
            "validate-bad-matrix", "validate-missing-income", "validate-bad-income",
            "validate-empty-join", "fit-tau-constant", "ingest-missing"])
    def test_no_out_dir(self, tmp_path, make_argv, code):
        out = tmp_path / "o"
        assert main([*make_argv(tmp_path), "--out-dir", str(out)]) == code
        assert not out.exists()

    def test_metrics_error_after_reading_leaves_no_out_dir(self, tmp_path, monkeypatch):
        """metrics creates --out-dir once run_metrics has returned, so an
        exception it raises after the join leaves no directory either."""
        import ecomplex.metrics as metrics

        def broken(m):
            raise RuntimeError("eci_pci broke")

        monkeypatch.setattr(metrics, "eci_pci", broken)
        out = tmp_path / "o"
        with pytest.raises(RuntimeError, match="eci_pci broke"):
            main(["metrics", str(matrix_file(tmp_path, CONVERGENT)), "--out-dir", str(out)])
        assert not out.exists()


class TestMetrics:
    def test_full_battery(self, tmp_path):
        path = matrix_file(tmp_path, CONVERGENT)
        out = tmp_path / "out"
        assert main(["metrics", str(path), "--out-dir", str(out)]) == 0

        header, rows = read_rows(out / "countries.csv")
        assert header == ["country", "d", "tdi", "eci", "fitness"]
        d = [int(r[1]) for r in rows]
        assert d == [6, 4, 4, 4, 4]
        tdi_col = [float(r[2]) for r in rows]
        # tdi is a monotone transform of d, so their orderings agree
        assert np.array_equal(np.argsort(tdi_col), np.argsort(d, kind="stable"))
        assert all(r[4] != "" for r in rows)

        header, rows = read_rows(out / "products.csv")
        assert header == ["product", "u", "tsi", "pci", "q"]
        assert len(rows) == 6

        report = json.loads((out / "metrics_report.json").read_text())
        assert report["errors"] == {}
        assert report["eigen"]["leading_eigenvalue"] == pytest.approx(1.0)
        assert report["fitness_iterations"] > 0
        # products 0 and 1 are made by the same countries
        assert report["matrix"]["product_classes"] == 5
        pci, q = ([r[k] for r in rows] for k in (3, 4))
        assert pci[0] == pci[1] and q[0] == q[1]

    def test_partial_failure_still_writes(self, tmp_path):
        # the nested triangle never meets the fitness tolerance, but the
        # other families are fine: the run reports the error and exits 0
        path = matrix_file(tmp_path, NESTED3)
        out = tmp_path / "out"
        assert main(["metrics", str(path), "--out-dir", str(out),
                     "--max-iter", "300"]) == 0
        report = json.loads((out / "metrics_report.json").read_text())
        assert set(report["errors"]) == {"fitness"}
        assert "NonConvergence" in report["errors"]["fitness"]
        header, rows = read_rows(out / "countries.csv")
        assert [r[4] for r in rows] == ["", "", ""]
        assert all(r[2] != "" and r[3] != "" for r in rows)

    def test_uniform_matrix_degenerates_except_fitness(self, tmp_path):
        path = matrix_file(tmp_path, np.ones((8, 16), dtype=int))
        out = tmp_path / "out"
        assert main(["metrics", str(path), "--out-dir", str(out)]) == 0
        report = json.loads((out / "metrics_report.json").read_text())
        assert set(report["errors"]) == {"tdi", "tsi", "eci_pci"}
        assert "DegenerateSpectrum" in report["errors"]["eci_pci"]
        _, rows = read_rows(out / "countries.csv")
        assert all(float(r[4]) == 1.0 for r in rows)

    def test_rca_filter_needs_values(self, tmp_path):
        path = matrix_file(tmp_path, CONVERGENT)
        assert main(["metrics", str(path), "--out-dir", str(tmp_path),
                     "--filter", "rca"]) == 65

    def test_rca_filter_on_valued_matrix(self, tmp_path):
        src = tmp_path / "trade.csv"
        src.write_text(
            "country,product,value\n" + "\n".join(
                f"c{i},p{j},{1.0 + ((i * 7 + j * 3) % 5)}"
                for i in range(5) for j in range(6)
                if (i * 5 + j) % 7 != 0
            ) + "\n"
        )
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out-dir", str(out)]) == 0
        rc = main(["metrics", str(out / "matrix.txt"), "--out-dir", str(out),
                   "--filter", "rca", "--rca-threshold", "1.0"])
        assert rc == 0
        report = json.loads((out / "metrics_report.json").read_text())
        assert report["config"]["filter"] == "rca"


class TestSimulate:
    def test_exact_tau_one(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--tau", "1.0", "--K", "3", "--mode", "exact",
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["diversification"] == [1, 2, 4, 8]
        world = read_matrix(out / "world.txt")
        assert world.n_products == 8

        header, rows = read_rows(out / "sophistication.csv")
        assert header[:3] == ["s", "predicted", "empirical_pool"]
        assert len(rows) == 4
        assert sum(int(r[4]) for r in rows) == 8

    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        argv = ["simulate", "--tau", "0.3", "--K", "6", "--mode", "exact",
                "--seed", "11", "--out-dir", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_mc_mode(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--tau", "0.07", "--K", "40", "--mode", "mc",
                   "--samples", "300", "--seed", "5", "--out-dir", str(out)])
        assert rc == 0
        world = read_matrix(out / "world.txt")
        assert world.n_countries == 41

    def test_exact_bound_exits_74(self, tmp_path):
        assert main(["simulate", "--K", "21", "--mode", "exact",
                     "--out-dir", str(tmp_path)]) == 74

    def test_bad_tau_exits_2(self, tmp_path):
        assert main(["simulate", "--tau", "1.5",
                     "--out-dir", str(tmp_path)]) == 2


class TestValidate:
    def test_full_report(self, tmp_path):
        path = matrix_file(tmp_path, CONVERGENT)
        income = tmp_path / "income.csv"
        m = read_matrix(path)
        lines = ["country,gdp,natural_rents"]
        for i, lab in enumerate(m.country_labels):
            gdp = 1000.0 * 2 ** int(m.diversification[i])
            lines.append(f"{lab},{gdp},{float(i % 3)}")
        income.write_text("\n".join(lines) + "\n")

        out = tmp_path / "out"
        assert main(["validate", str(path), str(income),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["spearman_gdp_d"]["statistic"] == pytest.approx(1.0)
        assert report["join"]["unmatched_matrix"] == []
        assert set(report["regressions"]) == {
            "rank_rank", "log_log", "eci_on_tdi", "fitness_on_dlogd"
        }
        rank_block = report["regressions"]["rank_rank"]
        assert rank_block["closer_to_benchmark"] in ("with_intercept",
                                                     "without_intercept")
        assert len(report["inputs"]) == 2
        for name in ("rank_rank.csv", "log_log.csv", "eci_tdi.csv",
                     "fitness_dlogd.csv", "product_scatter.csv"):
            assert (out / name).exists()
        _, rows = read_rows(out / "rank_rank.csv")
        assert len(rows) == 5

    def test_join_empty_exits_77(self, tmp_path):
        path = matrix_file(tmp_path, CONVERGENT)
        income = tmp_path / "income.csv"
        income.write_text("country,gdp,natural_rents\nZZZ,10,0\n")
        assert main(["validate", str(path), str(income),
                     "--out-dir", str(tmp_path)]) == 77

    def test_fitness_failure_leaves_a_partial_report(self, tmp_path):
        """A model world whose fitness underflows keeps every fit that does
        not read fitness; the ones that do are null, their columns blank."""
        out = tmp_path / "out"
        assert main(["simulate", "--mode", "mc", "--K", "20", "--samples", "300",
                     "--seed", "0", "--out-dir", str(out)]) == 0
        income = tmp_path / "income.csv"
        income.write_text("country,gdp,natural_rents\n" + "".join(
            f"k{k},{1000.0 * 1.07 ** k * (1 + k % 3)},{float(k % 4)}\n" for k in range(21)))
        assert main(["validate", str(out / "world.txt"), str(income),
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert list(report["errors"]) == ["fitness"]
        assert report["errors"]["fitness"].startswith("NumericalUnderflow: ")
        regressions = report["regressions"]
        assert regressions["fitness_on_dlogd"] is None
        for name in ("rank_rank", "log_log", "eci_on_tdi"):
            assert regressions[name]["with_intercept"]["coefficients"], name
        spearman = report["product_spearman"]
        assert spearman["tsi_q"] is None and spearman["pci_q"] is None
        assert -1 <= spearman["tsi_pci"]["statistic"] <= 1
        assert report["fitness_iterations"] is None
        header, rows = read_rows(out / "fitness_dlogd.csv")
        assert header == ["country", "dlogd_norm", "fitness"]
        assert all(r[1] != "" and r[2] == "" for r in rows)
        header, rows = read_rows(out / "product_scatter.csv")
        assert header == ["product", "tsi", "pci", "q"]
        assert all(r[1] != "" and r[2] != "" and r[3] == "" for r in rows)


    def test_fit_failure_leaves_a_partial_report(self, tmp_path):
        """On three countries the rank and log regressions have no residual
        degree of freedom; the fits that can run are still reported."""
        path = matrix_file(tmp_path, NESTED3)
        income = tmp_path / "income.csv"
        income.write_text("country,gdp,natural_rents\nC0,9000.0,0.0\nC1,16000.0,1.0\n"
                          "C2,25000.0,2.0\n")
        out = tmp_path / "out"
        assert main(["validate", str(path), str(income), "--max-iter", "300",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        errors = report["errors"]
        assert errors["rank_rank"] == ("DegenerateInput: 3 observations cannot support "
                                       "3 parameters with a residual")
        assert set(errors) == {"fitness", "rank_rank", "log_log"}
        regressions = report["regressions"]
        assert regressions["eci_on_tdi"]["with_intercept"]["coefficients"]
        assert regressions["rank_rank"] is None and regressions["log_log"] is None
        assert report["spearman_gdp_d"]["n"] == 3
        _, rows = read_rows(out / "rank_rank.csv")
        assert len(rows) == 3

    def test_two_country_join_leaves_a_partial_report(self, tmp_path):
        """Every country fit and the GDP rank correlation need more than two
        joined countries; the metric families and product correlations
        do not."""
        path = matrix_file(tmp_path, CONVERGENT)
        income = tmp_path / "income.csv"
        income.write_text("country,gdp,natural_rents\nC1,2000.0,1.0\nC3,5000.0,0.0\n"
                          "X0,10.0,0.0\nX1,11.0,0.0\nX2,12.0,1.0\n")
        out = tmp_path / "out"
        assert main(["validate", str(path), str(income), "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert report["join"]["matched"] == ["C1", "C3"]
        fits = ["rank_rank", "log_log", "eci_on_tdi", "fitness_on_dlogd"]
        assert set(report["errors"]) == {*fits, "spearman_gdp_d"}
        assert all(text.startswith("DegenerateInput: ") for text in report["errors"].values())
        assert list(report["regressions"].values()) == [None] * 4
        assert report["spearman_gdp_d"] is None
        assert all(report["product_spearman"].values())


class TestEveryFamilyFailed:
    """metrics and validate share one exit rule: 0 unless all four metric
    families failed, and then the first failure's code, once the report
    is written."""

    @pytest.mark.parametrize("command", ["metrics", "validate"])
    def test_exits_with_the_first_failure_after_writing(self, tmp_path, capsys, command):
        path = matrix_file(tmp_path, np.ones((5, 6), dtype=int))
        income = [str(income_file(tmp_path))] if command == "validate" else []
        out = tmp_path / "out"
        assert main([command, str(path), *income, "--tol", "1e-300", "--max-iter", "1",
                     "--out-dir", str(out)]) == 69
        assert "every metric family failed: zero variance" in capsys.readouterr().err
        name = "metrics_report.json" if command == "metrics" else "validation_report.json"
        report = json.loads((out / name).read_text())
        assert {family: text.split(":")[0] for family, text in report["errors"].items()} == {
            "tdi": "DegenerateVector", "tsi": "DegenerateVector",
            "eci_pci": "DegenerateSpectrum", "fitness": "NonConvergence"}
        assert report["eigen"] is None and report["fitness_iterations"] is None
        if command == "validate":  # d has no spread, so no fit on it is defined
            assert list(report["regressions"].values()) == [None] * 4
            assert report["spearman_gdp_d"] is None


class TestFitTau:
    @staticmethod
    def _products_csv(path, values):
        lines = ["product,u,tsi,pci,q"]
        for k, v in enumerate(values):
            lines.append(f"p{k},3,{float(v)!r},0.0,1.0")
        lines.append("pod,2,,0.0,1.0")  # empty tsi cell is skipped
        path.write_text("\n".join(lines) + "\n")

    def test_recovers_generating_tau(self, tmp_path):
        dist = world_distribution(ModelParams(tau=0.07, K=221))
        rng = np.random.default_rng(4)
        draws = rng.choice(dist.support, p=dist.probabilities, size=8000)
        values = (draws - dist.mean) / dist.std
        src = tmp_path / "products.csv"
        self._products_csv(src, values)

        out = tmp_path / "out"
        assert main(["fit-tau", str(src), "--K", "221",
                     "--out-dir", str(out)]) == 0
        report = json.loads((out / "tau_report.json").read_text())
        assert abs(report["tau_hat"] - 0.07) <= 0.01
        assert report["n"] == 8000
        header, rows = read_rows(out / "tau_cdf.csv")
        assert header == ["x", "model_cdf", "empirical_cdf"]
        assert len(rows) == 222
        assert float(rows[-1][1]) == pytest.approx(1.0)

    def test_constant_column_exits_75(self, tmp_path):
        src = tmp_path / "products.csv"
        self._products_csv(src, np.zeros(50))
        assert main(["fit-tau", str(src), "--out-dir", str(tmp_path)]) == 75

    def test_json_table_exits_65_at_line_1(self, tmp_path, capsys):
        """Products tables are CSV only: a JSON one has no tsi header."""
        src = tmp_path / "products.json"
        src.write_text('{\n  "rows": [\n    {\n      "tsi": 0.5\n    },\n'
                       '    {\n      "tsi": -1.0\n    }\n  ]\n}\n')
        assert main(["fit-tau", str(src), "--out-dir", str(tmp_path)]) == 65
        assert "line 1: no tsi column in header" in capsys.readouterr().err
        assert not (tmp_path / "tau_report.json").exists()


class TestNoFormatOption:
    """Tables are CSV only, so no command takes --format."""

    @pytest.mark.parametrize("argv", [
        ["ingest", "trade.csv"], ["metrics", "m.txt"], ["simulate"],
        ["validate", "m.txt", "income.csv"], ["fit-tau", "products.csv"],
    ])
    def test_format_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "json", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigPrecedence:
    def test_flags_beat_file_beats_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"tau": 0.5, "seed": 3, "K": 4, "mode": "exact"}
        ))
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(cfg), "--tau", "0.9",
                   "--out-dir", str(out)])
        assert rc == 0
        echo = json.loads((out / "simulate_report.json").read_text())["config"]
        assert echo["tau"] == 0.9      # flag wins
        assert echo["seed"] == 3       # file beats default
        assert echo["K"] == 4
        assert echo["mode"] == "exact"
        assert echo["samples"] == 5000  # untouched default

    def test_unknown_key_exits_65(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 0.5, "bogus": 1}')
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 65

    def test_format_key_exits_65(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "csv"}')
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 65
        assert "unknown config key 'format'" in capsys.readouterr().err

    def test_invalid_json_exits_65(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 65

    @pytest.mark.parametrize("entry", [
        {"K": "12"}, {"tol": None}, {"samples": 2.5}, {"seed": True},
        {"tau": False}, {"mode": 1}, {"max_iter": [10]},
    ])
    def test_mistyped_value_exits_65(self, tmp_path, entry, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 65
        key = next(iter(entry))
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "world.txt").exists()

    def test_int_is_a_valid_float(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 1, "K": 3, "mode": "exact"}')
        assert main(["simulate", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0

    def test_int_for_float_echoes_like_the_flag(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": 1, "K": 3, "mode": "exact"}')
        reports = []
        for name, extra in (("file", ["--config", str(cfg)]),
                            ("flag", ["--tau", "1", "--K", "3", "--mode", "exact"])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert main(["simulate", *extra, "--out-dir", "out"]) == 0
            reports.append((tmp_path / name / "out" / "simulate_report.json").read_bytes())
        assert b'"tau": 1.0' in reports[1]
        assert reports[0] == reports[1]


class TestPerCommandConfig:
    """Each report's config block holds the options its command reads,
    and one config file serves the whole pipeline."""

    @staticmethod
    def pipeline(tmp_path, extra=()):
        """ingest -> metrics -> validate -> fit-tau, and simulate, into
        tmp_path/out; each command's report config block by command."""
        trade_csv(tmp_path / "trade.csv", [f"C{i}" for i in range(5)],
                  [f"p{j}" for j in range(6)])
        income_file(tmp_path)
        out = tmp_path / "out"
        runs = {
            "ingest": (["ingest", str(tmp_path / "trade.csv")], "ingest_report.json"),
            "metrics": (["metrics", str(out / "matrix.txt")], "metrics_report.json"),
            "validate": (["validate", str(out / "matrix.txt"), str(tmp_path / "income.csv")],
                         "validation_report.json"),
            "fit-tau": (["fit-tau", str(out / "products.csv")], "tau_report.json"),
            "simulate": (["simulate"], "simulate_report.json"),
        }
        blocks = {}
        for command, (argv, report) in runs.items():
            assert main([*argv, *extra]) == 0, command
            blocks[command] = json.loads((out / report).read_text())["config"]
        return blocks

    @staticmethod
    def long_options(command, capsys):
        """The config keys of a command's long options, read from its help."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
        return {flag[2:].replace("-", "_") for flag in flags - {"--help", "--config"}}

    def test_report_echoes_its_parser_options(self, tmp_path, capsys):
        blocks = self.pipeline(tmp_path, ["--out-dir", str(tmp_path / "out")])
        for command, block in blocks.items():
            assert set(block) == self.long_options(command, capsys), command
        assert set(blocks["ingest"]) == {"out_dir"}
        assert set(blocks["fit-tau"]) == {"K", "out_dir"}

    def test_one_file_drives_every_command(self, tmp_path):
        values = {"filter": "rca", "rca_threshold": 0.5, "tol": 1e-9, "max_iter": 500,
                  "tau": 0.3, "K": 12, "seed": 7, "mode": "exact", "samples": 9,
                  "out_dir": str(tmp_path / "out")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        blocks = self.pipeline(tmp_path, ["--config", str(cfg)])
        own = {
            "ingest": {"out_dir"},
            "metrics": {"filter", "rca_threshold", "tol", "max_iter", "out_dir"},
            "validate": {"filter", "rca_threshold", "tol", "max_iter", "out_dir"},
            "fit-tau": {"K", "out_dir"},
            "simulate": {"tau", "K", "seed", "mode", "samples", "out_dir"},
        }
        for command, keys in own.items():
            assert blocks[command] == {key: values[key] for key in keys}, command

    @pytest.mark.parametrize("command, entry, message", [
        ("metrics", {"tol": 0}, "tol must be > 0"),
        ("metrics", {"rca_threshold": -1}, "rca-threshold must be >= 0"),
        ("validate", {"max_iter": 0}, "max-iter must be >= 1"),
        ("simulate", {"samples": 0}, "samples must be >= 1"),
        ("simulate", {"tau": 0}, "tau must be in (0, 1]"),
        ("simulate", {"K": -1}, "K must be >= 0"),
        ("fit-tau", {"K": 0}, "K must be >= 1"),
        ("simulate", {"mode": "grid"}, "mode must be exact or mc, got 'grid'"),
    ])
    def test_file_value_out_of_range_exits_2_before_any_output(self, tmp_path, capsys,
                                                               command, entry, message):
        matrix = str(matrix_file(tmp_path, CONVERGENT))
        inputs = {"metrics": [matrix], "validate": [matrix, str(income_file(tmp_path))],
                  "simulate": [], "fit-tau": ["products.csv"]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "out"
        assert main([command, *inputs[command], "--config", str(cfg),
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_admits_k_0(self, tmp_path):
        assert main(["simulate", "--K", "0", "--mode", "exact",
                     "--out-dir", str(tmp_path / "out")]) == 0


class TestInputPaths:
    def test_relative_input_is_read_from_the_working_directory(self, tmp_path, monkeypatch,
                                                              capsys):
        """The environment names no place to look for inputs: a relative
        path that is missing here is missing, wherever else it exists."""
        data = tmp_path / "data"
        data.mkdir()
        (data / "trade.csv").write_text(TRADE)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("ECOMPLEX_DATA_DIR", str(data))
        assert main(["ingest", "trade.csv", "--out-dir", "out"]) == 2
        assert "trade.csv" in capsys.readouterr().err
        assert not (work / "out").exists()

    def test_reports_key_inputs_by_normalized_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trade.csv").write_text(TRADE)
        matrix_file(tmp_path, CONVERGENT)
        income_file(tmp_path)
        assert main(["ingest", "./trade.csv", "--out-dir", "a"]) == 0
        assert main(["validate", "./m.txt", "./income.csv", "--out-dir", "b"]) == 0
        for report, names in (("a/ingest_report.json", ["trade.csv"]),
                              ("b/validation_report.json", ["m.txt", "income.csv"])):
            inputs = json.loads((tmp_path / report).read_text())["inputs"]
            assert inputs == {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                              for name in names}


def trade_csv(path, country_labels, product_labels, dense=CONVERGENT):
    """A trade CSV holding one row per nonzero cell, written with csv quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["country", "product", "value"])
        for i, j in zip(*np.nonzero(dense)):
            writer.writerow([country_labels[i], product_labels[j], 1.0 + i + j])


class TestLabelsRoundTrip:
    COUNTRIES = ["Korea, Rep.", "USA", "NER", "FRA", "DEU"]
    PRODUCTS = ['cars "x"', "cars, parts", "wheat", "wine", "phones", "ore"]

    def test_quoted_labels_survive_every_table(self, tmp_path):
        src = tmp_path / "trade.csv"
        trade_csv(src, self.COUNTRIES, self.PRODUCTS)
        income = tmp_path / "income.csv"
        with open(income, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["country", "gdp", "natural_rents"])
            for k, lab in enumerate(self.COUNTRIES):
                writer.writerow([lab, 1000.0 * (k + 2) ** 2, float(k % 3)])
        out = tmp_path / "out"
        assert main(["ingest", str(src), "--out-dir", str(out)]) == 0
        matrix = out / "matrix.txt"
        assert main(["metrics", str(matrix), "--out-dir", str(out)]) == 0
        assert main(["validate", str(matrix), str(income), "--out-dir", str(out)]) == 0
        assert main(["fit-tau", str(out / "products.csv"), "--K", "12",
                     "--out-dir", str(out)]) == 0

        bm = binarize(read_matrix(matrix))
        cm, pm, _, _ = compute_metrics(bm)
        rep = run_paper_regressions(bm, read_income_csv(income), cm, pm)
        assert set(bm.country_labels) == set(self.COUNTRIES)

        def assert_table(name, labels, columns):
            header, rows = read_rows(out / name)
            assert header[1:] == list(columns)
            assert [r[0] for r in rows] == list(labels)
            for k, col in enumerate(columns.values(), start=1):
                assert [float(r[k]) for r in rows] == [float(v) for v in col]

        assert_table("countries.csv", bm.country_labels, {
            "d": cm.diversification, "tdi": cm.tdi, "eci": cm.eci, "fitness": cm.fitness})
        assert_table("products.csv", bm.product_labels, {
            "u": pm.ubiquity, "tsi": pm.tsi, "pci": pm.pci, "q": pm.q})
        assert_table("product_scatter.csv", bm.product_labels,
                     {"tsi": pm.tsi, "pci": pm.pci, "q": pm.q})
        for name, cols in {
            "rank_rank.csv": ["rank_gdp", "rank_d", "rank_rents"],
            "log_log.csv": ["log_gdp", "log_d", "log_rents_offset"],
            "eci_tdi.csv": ["tdi", "eci"],
            "fitness_dlogd.csv": ["dlogd_norm", "fitness"],
        }.items():
            assert_table(name, rep.join.matched, {c: rep.design[c] for c in cols})

        tau_hat, ks = estimate_tau(pm.tsi, 12)
        report = json.loads((out / "tau_report.json").read_text())
        assert (report["tau_hat"], report["ks_distance"], report["n"]) == (tau_hat, ks, 6)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(labels=st.lists(
        # the printable categories, as str.isprintable defines them
        st.text(st.characters(codec="utf-8", categories=("L", "M", "N", "P", "S"),
                              include_characters=" "), min_size=1, max_size=8)
        .filter(str.strip),
        min_size=11, max_size=11, unique_by=str.strip,
    ))
    def test_printable_labels_round_trip(self, tmp_path_factory, labels):
        tmp = tmp_path_factory.mktemp("labels")
        countries, products = labels[:5], labels[5:]
        trade_csv(tmp / "trade.csv", countries, products)
        out = tmp / "out"
        assert main(["ingest", str(tmp / "trade.csv"), "--out-dir", str(out)]) == 0
        assert main(["metrics", str(out / "matrix.txt"), "--out-dir", str(out)]) == 0
        assert main(["fit-tau", str(out / "products.csv"), "--K", "12",
                     "--out-dir", str(out)]) == 0

        _, c_rows = read_rows(out / "countries.csv")
        _, p_rows = read_rows(out / "products.csv")
        assert [r[0] for r in c_rows] == sorted(lab.strip() for lab in countries)
        assert [r[0] for r in p_rows] == sorted(lab.strip() for lab in products)
        tsi_values = [float(r[2]) for r in p_rows]
        report = json.loads((out / "tau_report.json").read_text())
        assert report["tau_hat"] == estimate_tau(tsi_values, 12)[0]


class TestCsvWriter:
    """Tables are written a block of rows at a time, byte for byte as
    csv.writer writes them."""

    HEADER = ["label", "x", "n", "blank"]

    def assert_equals_csv_writer(self, path, labels, floats):
        columns = [tuple(labels), np.array(floats, dtype=float),
                   np.arange(len(labels), dtype=np.int64) - 2 ** 40, [None] * len(labels)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_LINE_BLOCK", 3)
            fileio.write_table(path, self.HEADER, columns)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.HEADER)
        writer.writerows(zip(labels, floats, (k - 2 ** 40 for k in range(len(labels))),
                             [None] * len(labels)))
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 7])
    def test_row_counts_around_a_block(self, tmp_path, rows):
        labels = [f"p{k}" for k in range(rows)]
        self.assert_equals_csv_writer(tmp_path / "t.csv", labels, [0.1 * k for k in range(rows)])

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.text(st.one_of(st.sampled_from(',"\r\n '), st.characters(codec="utf-8")),
                max_size=6),
        st.floats()), max_size=20))
    def test_equals_csv_writer(self, tmp_path_factory, rows):
        labels = [label for label, _ in rows]
        floats = [x for _, x in rows]
        self.assert_equals_csv_writer(tmp_path_factory.mktemp("csv") / "t.csv", labels, floats)


_NAN_PAYLOADS = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)
_FLOAT_EDGES = [0.0, -0.0, float("inf"), float("-inf"), *_NAN_PAYLOADS.tolist(),
                5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, 0.1]
_INT_EDGES = [np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, 1]


def _repeats(values):
    """Lists drawn from a pool of at most four values, so that values
    repeat within and across blocks."""
    return st.lists(values, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=20))


class TestDistinctNumbers:
    """Each distinct number is formatted once per block; every table and
    matrix file holds per-value repr text, bit patterns such as -0.0 and
    NaN payloads included."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(floats=_repeats(st.one_of(st.sampled_from(_FLOAT_EDGES), st.floats())),
           ints=_repeats(st.one_of(st.sampled_from(_INT_EDGES), st.integers(-2**63, 2**63 - 1))))
    @example(floats=[-0.0, 0.0, -0.0, 0.0], ints=[0, 1, 0, 1])  # equal values, distinct bits
    def test_tables_equal_per_value_text(self, tmp_path, monkeypatch, floats, ints):
        monkeypatch.setattr(fileio, "_LINE_BLOCK", 3)
        rows = min(len(floats), len(ints))
        floats, ints = floats[:rows], ints[:rows]
        labels = tuple(f"p{k}" for k in range(rows))
        columns = [labels, np.array(floats), np.array(ints, dtype=np.int64)]
        header = ["label", "x", "n"]
        fileio.write_table(tmp_path / "t.csv", header, columns)
        expected = ["label,x,n"] + [f"{lab},{x!r},{n!r}" for lab, x, n in zip(labels, floats, ints)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(expected) + "\n"

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vals=_repeats(st.one_of(
        st.sampled_from([x for x in _FLOAT_EDGES if 0 < x < float("inf")]),
        st.floats(min_value=5e-324, allow_infinity=False))))
    def test_matrix_file_equals_per_value_text(self, tmp_path, monkeypatch, vals):
        monkeypatch.setattr(fileio, "_ENTRY_BLOCK", 3)
        rows, cols = np.divmod(np.arange(len(vals)), 4)
        m = ExportMatrix.from_coordinates(tuple(f"c{i}" for i in range(len(vals) // 4 + 1)),
                                          ("a", "b", "c", "d"), rows, cols,
                                          np.array(vals, dtype=float))
        write_matrix(m, tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert lines[1 + m.n_countries + 4:] == [
            f"{i} {j} {v!r}" for i, j, v in zip(rows.tolist(), cols.tolist(), vals)]


class TestLineBreakLabels:
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d",
                                     "\x1e", "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_ingest_rejects_with_record_start_line(self, tmp_path, brk, column):
        src = tmp_path / "trade.csv"
        # the third record spans lines 3-4, so the bad one starts on line 5
        row = ["Korea", "cars", "1.0"]
        row[column] = f"Korea{brk}Rep." if column == 0 else f"cars{brk}parts"
        with open(src, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerows([["country", "product", "value"], ["USA", "wheat", "2.0"],
                              ["USA", "wine", "3.0\n"], row])
        with pytest.raises(ParseError, match="line 5: .*line break"):
            read_trade_csv(src)
        assert main(["ingest", str(src), "--out-dir", str(tmp_path / "out")]) == 65
        assert not (tmp_path / "out" / "matrix.txt").exists()


class TestNonFiniteTsi:
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_csv_cell_exits_65(self, tmp_path, text):
        src = tmp_path / "products.csv"
        TestFitTau._products_csv(src, [0.5, -1.0, 0.25, 1.5])
        src.write_text(src.read_text().replace("0.25", text))
        assert main(["fit-tau", str(src), "--out-dir", str(tmp_path)]) == 65
        with pytest.raises(ParseError, match="line 4: non-finite"):
            read_tsi_column(src)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_estimate_tau_raises(self, bad):
        with pytest.raises(DegenerateInput, match="finite"):
            estimate_tau([0.5, -1.0, bad, 1.5], 12)


def income_file(tmp_path):
    """An income panel for the countries C0..C4 of CONVERGENT."""
    path = tmp_path / "income.csv"
    path.write_text("country,gdp,natural_rents\n" + "".join(
        f"C{i},{1000.0 * (i + 3) ** 2},{float(i % 3)}\n" for i in range(5)))
    return path


class TestReports:
    def test_json_booleans(self, tmp_path):
        path = matrix_file(tmp_path, CONVERGENT)
        income = income_file(tmp_path)
        out = tmp_path / "out"
        assert main(["validate", str(path), str(income), "--out-dir", str(out)]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        block = report["regressions"]["rank_rank"]
        assert block["with_intercept"]["intercept_included"] is True
        assert block["without_intercept"]["intercept_included"] is False
        assert isinstance(report["eigen"]["eci_sign_flipped"], bool)

        assert main(["metrics", str(path), "--out-dir", str(out)]) == 0
        metrics_report = json.loads((out / "metrics_report.json").read_text())
        assert report["eigen"] == metrics_report["eigen"]

    def test_validate_joins_and_ranks_once(self, tmp_path, monkeypatch):
        import ecomplex.cli as cli
        import ecomplex.validation as validation

        calls = {"join_panel": 0, "rank_transform": 0}
        for name in calls:
            original = getattr(validation, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            # the CLI must not keep a binding of its own that bypasses the count
            monkeypatch.setattr(validation, name, counted)
            monkeypatch.setattr(cli, name, counted, raising=False)
        path = matrix_file(tmp_path, CONVERGENT)
        income = income_file(tmp_path)
        assert main(["validate", str(path), str(income),
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == {"join_panel": 1, "rank_transform": 3}


class TestImportFootprint:
    """The runtime needs numpy alone: importing the package and running
    every command, validate included, loads no scipy module, nor
    numpy.ma, which np.unique with no flags imports. Each check runs in a
    fresh interpreter, since the test process itself holds scipy."""

    REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("refused: " + name)
        return None

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise AssertionError("scipy was importable")
"""

    @staticmethod
    def run_every_command(tmp_path, prelude=""):
        (tmp_path / "trade.csv").write_text(TRADE)
        matrix_file(tmp_path, CONVERGENT)
        income_file(tmp_path)
        script = prelude + f"""
import sys
import ecomplex
from ecomplex.cli import main

def unwanted_modules():
    return sorted(m for m in sys.modules
                  if m == "scipy" or m.startswith("scipy.")
                  or m == "numpy.ma" or m.startswith("numpy.ma."))

assert not unwanted_modules(), ("import ecomplex", unwanted_modules())
d = {str(tmp_path)!r}
runs = [
    ["ingest", d + "/trade.csv"],
    ["metrics", d + "/m.txt"],
    ["simulate", "--mode", "mc", "--K", "221", "--samples", "200"],
    ["simulate", "--mode", "exact", "--K", "6", "--tau", "0.3"],
    ["fit-tau", d + "/products.csv", "--K", "221"],
    ["validate", d + "/m.txt", d + "/income.csv"],
]
for argv in runs:
    assert main(argv + ["--out-dir", d]) == 0, argv
    assert not unwanted_modules(), (argv[0], unwanted_modules())
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_no_scipy_stats_after_import_or_any_command(self, tmp_path):
        self.run_every_command(tmp_path)

    def test_every_command_runs_where_scipy_cannot_be_imported(self, tmp_path):
        self.run_every_command(tmp_path, self.REFUSE_SCIPY)
