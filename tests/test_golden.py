"""Golden files: the exact bytes every CLI command writes on small fixed inputs.

The commands run from a temporary working directory with relative paths,
so the input paths and ``out_dir`` echoed into the reports do not depend
on where the suite runs. After a deliberate output change, regenerate
the expected files with

    PYTHONPATH=src python tests/test_golden.py

and list the change in CHANGES.md.
"""

import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ecomplex import BinaryMatrix, fileio, write_matrix
from ecomplex.cli import main

GOLDEN = Path(__file__).parent / "golden"

# The CONVERGENT matrix of test_cli.py: fitness meets its tolerance.
CONVERGENT = np.array([
    [1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 0, 0],
    [1, 1, 0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1],
    [1, 1, 1, 0, 1, 0],
])

# No two columns are equal, so every product is its own column class and
# the class kernels must reproduce the per-product arithmetic bit for bit.
DISTINCT = np.array([
    [1, 1, 1, 1, 1, 1, 1],
    [1, 1, 1, 1, 0, 0, 1],
    [1, 0, 1, 0, 1, 1, 0],
    [0, 1, 1, 1, 1, 1, 0],
    [1, 1, 0, 0, 1, 0, 1],
    [1, 0, 0, 1, 0, 0, 1],
])

INCOME = (
    "country,gdp,natural_rents\n"
    "C0,52000.0,0.0\n"
    "C1,23000.5,2.5\n"
    "C2,18750.0,11.0\n"
    "C3,9100.0,0.75\n"
    "C4,30400.0,4.0\n"
)

TRADE = (
    "country,product,value\n"
    "USA,phones,5.0\n"
    "USA,wheat,2.0\n"
    "USA,phones,1.5\n"
    "NER,wheat,1.0\n"
    "FRA,wine,3.25\n"
    "FRA,cars,10.0\n"
    "DEU,cars,12.5\n"
    "DEU,phones,0.1\n"
)

# Output directory -> command line. Order matters: fit-tau reads metrics.
RUNS = {
    "ingest": ["ingest", "trade.csv", "--out-dir", "ingest"],
    "metrics": ["metrics", "m.txt", "--out-dir", "metrics"],
    "metrics_distinct": ["metrics", "distinct.txt", "--out-dir", "metrics_distinct"],
    "validate": ["validate", "m.txt", "income.csv", "--out-dir", "validate"],
    "fit_tau": ["fit-tau", "metrics/products.csv", "--K", "12", "--out-dir", "fit_tau"],
    "simulate": ["simulate", "--mode", "exact", "--K", "6", "--seed", "11", "--tau", "0.3",
                 "--out-dir", "simulate"],
    # pins the Monte Carlo sampler's draw order
    "simulate_mc": ["simulate", "--mode", "mc", "--K", "40", "--tau", "0.07", "--samples", "300",
                    "--seed", "5", "--out-dir", "simulate_mc"],
    "metrics_mc": ["metrics", "simulate_mc/world.txt", "--out-dir", "metrics_mc"],
}


def run_all(work: Path) -> dict[str, dict[str, bytes]]:
    """Write the inputs into ``work`` (the current directory) and run every
    command; returns the bytes of each file written, by output directory."""
    write_matrix(BinaryMatrix.from_dense(CONVERGENT), work / "m.txt")
    write_matrix(BinaryMatrix.from_dense(DISTINCT), work / "distinct.txt")
    (work / "income.csv").write_text(INCOME, encoding="utf-8")
    (work / "trade.csv").write_text(TRADE, encoding="utf-8")
    for argv in RUNS.values():
        assert main(argv) == 0, argv
    return {name: {p.name: p.read_bytes() for p in sorted((work / name).iterdir())}
            for name in RUNS}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        return run_all(Path("."))


@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_golden_files(outputs, name):
    expected = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(outputs[name]) == sorted(expected)
    for filename, data in expected.items():
        assert outputs[name][filename].decode() == data.decode(), f"{name}/{filename}"


def test_outputs_match_golden_files_in_small_blocks(tmp_path, monkeypatch):
    """Blocks of three lines or characters: every matrix file and table
    spans several blocks and still has the golden bytes."""
    monkeypatch.setattr(fileio, "_ENTRY_BLOCK", 3)
    monkeypatch.setattr(fileio, "_SCAN_BLOCK", 3)
    monkeypatch.setattr(fileio, "_LINE_BLOCK", 3)
    monkeypatch.chdir(tmp_path)
    outputs = run_all(Path("."))
    for name in RUNS:
        test_outputs_match_golden_files(outputs, name)


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            written = run_all(Path("."))
        finally:
            os.chdir(cwd)
    for name, files in written.items():
        (GOLDEN / name).mkdir(parents=True, exist_ok=True)
        for stale in (GOLDEN / name).iterdir():
            stale.unlink()
        for filename, data in files.items():
            (GOLDEN / name / filename).write_bytes(data)
    print(f"wrote {sum(map(len, written.values()))} files under {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
