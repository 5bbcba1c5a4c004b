"""Command-line pipeline: ingest, metrics, simulate, validate, fit-tau.

Every command is deterministic given its inputs, flags, and seed;
re-running writes byte-identical files. Reports echo the effective
configuration and the sha256 of every input file so emitted numbers are
traceable to a specific extract. No timestamps, no machine state.

Exit codes: 0 success, 2 usage/config errors, and one documented code
per domain error class (see errors.py).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import EcomplexError, ParseError
from .matrix import BinaryMatrix, ExportMatrix, binarize, prune_degenerate, rca_binarize
from .metrics import FAMILIES, run_metrics
from .model import ModelParams, estimate_tau, simulate_world, world_distribution
from .validation import run_paper_regressions

__all__ = ["RunConfig", "main", "entry",
           "cmd_ingest", "cmd_metrics", "cmd_simulate", "cmd_validate", "cmd_fit_tau"]

DATA_DIR_ENV = "ECOMPLEX_DATA_DIR"

_CSV_BLOCK = 1 << 12  # table rows formatted per write


@dataclass(frozen=True)
class RunConfig:
    """Effective run configuration after merging flags, config file, defaults."""

    filter: str = "none"
    rca_threshold: float = 1.0
    tol: float = 1e-10
    max_iter: int = 10000
    tau: float = 0.07
    K: int = 221
    seed: int = 0
    mode: str = "mc"
    samples: int = 5000
    out_dir: str = "."

    def __post_init__(self):
        if self.filter not in ("none", "rca"):
            raise ValueError(f"filter must be none or rca, got {self.filter!r}")
        if self.mode not in ("exact", "mc"):
            raise ValueError(f"mode must be exact or mc, got {self.mode!r}")
        if self.rca_threshold < 0:
            raise ValueError("rca-threshold must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max-iter must be >= 1")
        if not (0 < self.tau <= 1):
            raise ValueError("tau must be in (0, 1]")
        if self.K < 0:
            raise ValueError("K must be >= 0")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")


def _merge_config(args: argparse.Namespace) -> RunConfig:
    """flags > config file > defaults."""
    merged: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(_resolve_input(config_path)).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParseError("config file must hold a JSON object")
        kinds = {f.name: type(f.default) for f in fields(RunConfig)}
        for key, value in loaded.items():
            if key not in kinds:
                raise ParseError(f"unknown config key {key!r}")
            kind = kinds[key]
            # An int is a valid float; a bool is never a number.
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ParseError(f"config key {key!r} must be {kind.__name__}, "
                                 f"got {type(value).__name__}")
            merged[key] = float(value) if kind is float else value
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            merged[f.name] = flag_value
    return RunConfig(**merged)


def _resolve_input(path: str) -> str:
    """Relative input paths fall back to $ECOMPLEX_DATA_DIR when not found."""
    p = Path(path)
    if p.exists() or p.is_absolute():
        return str(p)
    base = os.environ.get(DATA_DIR_ENV)
    if base:
        candidate = Path(base) / p
        if candidate.exists():
            return str(candidate)
    return str(p)


def _json_default(obj):
    """Dataclasses are written as their fields, numpy values as Python
    ones, and a domain error as "<class name>: <message>"."""
    if is_dataclass(obj):
        return asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, EcomplexError):
        return f"{type(obj).__name__}: {obj}"
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    path.write_text(text + "\n", encoding="utf-8")


def _cells(column) -> list[str]:
    """A column's CSV cells: numbers as repr text (an int's repr is its
    str), None as a blank cell, and labels as csv.writer writes them."""
    if isinstance(column, np.ndarray):
        texts, inverse = fileio._distinct_reprs(column)
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


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write the columns as rows, a block at a time, byte for byte as
    csv.writer(lineterminator="\n") writes a table of two or more columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_cells(header)) + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            block = [_cells(column[start:start + _CSV_BLOCK]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _write_table(path_stem: Path, header: list[str], columns) -> Path:
    """Write a CSV table whose first column is the labels; a None column
    (a metric family that failed) is written blank."""
    path = path_stem.with_suffix(".csv")
    _write_csv(path, header, [[None] * len(columns[0]) if c is None else c for c in columns])
    return path


def _out_dir(config: RunConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_binary(config: RunConfig, matrix_path: str) -> tuple[BinaryMatrix, str]:
    resolved = _resolve_input(matrix_path)
    mat = fileio.read_matrix(resolved)
    if isinstance(mat, ExportMatrix):
        if config.filter == "rca":
            bm = rca_binarize(mat, config.rca_threshold)
        else:
            bm = binarize(mat)
    else:
        if config.filter == "rca":
            raise ParseError("the rca filter needs a valued matrix file; "
                             "this one is already binary")
        bm = mat
    return prune_degenerate(bm), resolved


def cmd_ingest(args) -> int:
    config = _merge_config(args)
    resolved = _resolve_input(args.trade_csv)
    x = fileio.read_trade_csv(resolved)
    out = _out_dir(config)
    matrix_path = out / "matrix.txt"
    fileio.write_matrix(x, matrix_path)
    cells = x.n_countries * x.n_products
    fill = x.n_entries / cells if cells else 0.0
    report = {
        "config": config,
        "inputs": {resolved: fileio.sha256_file(resolved)},
        "matrix": {
            "countries": x.n_countries,
            "products": x.n_products,
            "entries": x.n_entries,
            "fill": fill,
        },
        "output": matrix_path.name,
    }
    _write_json(out / "ingest_report.json", report)
    print(f"countries={x.n_countries} products={x.n_products} "
          f"entries={x.n_entries} fill={fill:.4f}")
    print(f"wrote {matrix_path}")
    return 0


def _families_exit(errors: dict) -> int:
    """Exit code of metrics and validate, once their outputs are written:
    0 unless every metric family failed, else the first family's code.
    A failed fit of validate, also in errors, does not count."""
    if not errors.keys() >= FAMILIES.keys():
        return 0
    first = errors[next(iter(FAMILIES))]
    print(f"error: every metric family failed: {first}", file=sys.stderr)
    return first.exit_code


def cmd_metrics(args) -> int:
    config = _merge_config(args)
    out = _out_dir(config)
    bm, resolved = _load_binary(config, args.matrix)
    cm, pm, eigen, iters, errors = run_metrics(bm, tol=config.tol, max_iter=config.max_iter)
    c_path = _write_table(out / "countries", ["country", "d", "tdi", "eci", "fitness"],
                          [bm.country_labels, bm.diversification, cm.tdi, cm.eci, cm.fitness])
    p_path = _write_table(out / "products", ["product", "u", "tsi", "pci", "q"],
                          [bm.product_labels, bm.ubiquity, pm.tsi, pm.pci, pm.q])

    report = {
        "config": config,
        "inputs": {resolved: fileio.sha256_file(resolved)},
        "matrix": {
            "countries": bm.n_countries,
            "products": bm.n_products,
            "entries": bm.n_entries,
            "product_classes": len(bm.column_classes.first),
        },
        "errors": errors,
        "eigen": eigen,
        "fitness_iterations": iters,
        "outputs": [c_path.name, p_path.name],
    }
    _write_json(out / "metrics_report.json", report)
    print(f"wrote {c_path} {p_path}")
    return _families_exit(errors)


def cmd_simulate(args) -> int:
    config = _merge_config(args)
    out = _out_dir(config)
    params = ModelParams(tau=config.tau, K=config.K)
    world = simulate_world(params, mode=config.mode, samples=config.samples,
                           seed=config.seed)
    matrix_path = out / "world.txt"
    fileio.write_matrix(world.matrix, matrix_path)

    predicted = world_distribution(params)
    pool = world.sophistication_counts("pool")
    per_country = world.sophistication_counts("per_country")
    pool_share = pool / pool.sum() if pool.sum() else pool
    pc_share = per_country / per_country.sum() if per_country.sum() else per_country
    hist_path = out / "sophistication.csv"
    _write_csv(hist_path,
               ["s", "predicted", "empirical_pool", "empirical_per_country",
                "count_pool", "count_per_country"],
               [predicted.support, predicted.probabilities, pool_share, pc_share,
                pool.astype(np.int64), per_country.astype(np.int64)])

    report = {
        "config": config,
        "inputs": {},
        "world": {
            "countries": world.matrix.n_countries,
            "products": world.matrix.n_products,
            "entries": world.matrix.n_entries,
        },
        "diversification": world.matrix.diversification,
        "outputs": [matrix_path.name, hist_path.name],
    }
    _write_json(out / "simulate_report.json", report)
    print(f"wrote {matrix_path} {hist_path}")
    return 0


def cmd_validate(args) -> int:
    config = _merge_config(args)
    out = _out_dir(config)
    bm, resolved_matrix = _load_binary(config, args.matrix)
    resolved_income = _resolve_input(args.income_csv)
    panel = fileio.read_income_csv(resolved_income)

    cm, pm, eigen, iters, errors = run_metrics(bm, tol=config.tol, max_iter=config.max_iter)
    rep = run_paper_regressions(bm, panel, cm, pm)

    report = {
        "config": config,
        "inputs": {
            resolved_matrix: fileio.sha256_file(resolved_matrix),
            resolved_income: fileio.sha256_file(resolved_income),
        },
        "join": rep.join,
        "rent_offset": rep.rent_offset,
        "regressions": {
            "rank_rank": rep.rank_rank,
            "log_log": rep.log_log,
            "eci_on_tdi": rep.eci_on_tdi,
            "fitness_on_dlogd": rep.fitness_on_dlogd,
        },
        "spearman_gdp_d": rep.spearman_gdp_d,
        "product_spearman": rep.product_spearman,
        "errors": {**errors, **rep.errors},
        "eigen": eigen,
        "fitness_iterations": iters,
    }
    _write_json(out / "validation_report.json", report)

    # Scatter tables for the joined sample, plot-ready.
    scatter = {
        "rank_rank": ["rank_gdp", "rank_d", "rank_rents"],
        "log_log": ["log_gdp", "log_d", "log_rents_offset"],
        "eci_tdi": ["tdi", "eci"],
        "fitness_dlogd": ["dlogd_norm", "fitness"],
    }
    for name, columns in scatter.items():
        _write_table(out / name, ["country", *columns],
                     [rep.join.matched, *(rep.design[c] for c in columns)])
    _write_table(out / "product_scatter", ["product", "tsi", "pci", "q"],
                 [pm.product_labels, pm.tsi, pm.pci, pm.q])
    print(f"wrote {out / 'validation_report.json'} and scatter tables")
    return _families_exit(errors)


def cmd_fit_tau(args) -> int:
    config = _merge_config(args)
    out = _out_dir(config)
    resolved = _resolve_input(args.metrics_csv)
    tsi_values = fileio.read_tsi_column(resolved)
    tau_hat, ks = estimate_tau(tsi_values, config.K)

    dist = world_distribution(ModelParams(tau=tau_hat, K=config.K))
    x = dist.standardized_support
    model_cdf = dist.cdf()
    sample = np.sort(np.asarray(tsi_values))
    emp_cdf = np.searchsorted(sample, x, side="right") / len(sample)
    _write_csv(out / "tau_cdf.csv", ["x", "model_cdf", "empirical_cdf"],
               [x, model_cdf, emp_cdf])

    report = {
        "config": config,
        "inputs": {resolved: fileio.sha256_file(resolved)},
        "tau_hat": tau_hat,
        "ks_distance": ks,
        "n": int(len(tsi_values)),
        "outputs": ["tau_cdf.csv"],
    }
    _write_json(out / "tau_report.json", report)
    print(f"tau_hat={tau_hat} ks={ks:.6f}")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with default option values")
    p.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")


def _add_filter(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", choices=["none", "rca"],
                   help="binarization filter (default none)")
    p.add_argument("--rca-threshold", dest="rca_threshold", type=float,
                   help="RCA cutoff when --filter rca (default 1.0)")


def _add_fitness(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, help="fitness convergence tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=int,
                   help="fitness iteration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecomplex",
        description="Economic-complexity metrics, a combinatorial knowhow "
                    "model, and the validation harness tying them together.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="trade CSV -> canonical matrix file")
    p.add_argument("trade_csv")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", help="canonical matrix -> metric tables")
    p.add_argument("matrix")
    _add_common(p)
    _add_filter(p)
    _add_fitness(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("simulate", help="synthetic world + sophistication table")
    _add_common(p)
    p.add_argument("--tau", type=float, help="coherence probability (default 0.07)")
    p.add_argument("--K", type=int, help="maximum tech endowment (default 221)")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--mode", choices=["exact", "mc"],
                   help="exact subset enumeration (K <= 20) or Monte Carlo")
    p.add_argument("--samples", type=int, help="Monte Carlo sample count")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="regression/correlation battery")
    p.add_argument("matrix")
    p.add_argument("income_csv")
    _add_common(p)
    _add_filter(p)
    _add_fitness(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fit-tau", help="estimate tau from a products table")
    p.add_argument("metrics_csv")
    _add_common(p)
    p.add_argument("--K", type=int, help="maximum tech endowment (default 221)")
    p.set_defaults(func=cmd_fit_tau)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EcomplexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
