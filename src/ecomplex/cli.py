"""Command-line pipeline: ingest, metrics, simulate, validate, fit-tau.

Every command is deterministic given its inputs, flags, and seed:
re-running on one numpy/BLAS build and BLAS thread count writes
byte-identical files (another thread count may move the metrics' last
bits). Reports echo the effective value of each option the command
reads and the sha256 of every input file so emitted numbers are
traceable to a specific extract. No timestamps, no machine state. Each
input path is opened as given, relative to the working directory. Each
command is a thin shell over library calls: fileio reads every input and
writes every matrix file and CSV table; this module writes only the JSON
reports, all through ``_write_report``.

Exit codes: 0 success, 2 usage/config errors, and one documented code
per domain error class (see errors.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .errors import EcomplexError, ParseError
from .matrix import BinaryMatrix, ExportMatrix, binarize, prune_degenerate, rca_binarize
from .metrics import FAMILIES, run_metrics
from .model import ModelParams, estimate_tau, simulate_world, world_distribution
from .validation import run_paper_regressions

__all__ = ["main", "entry",
           "cmd_ingest", "cmd_metrics", "cmd_simulate", "cmd_validate", "cmd_fit_tau"]


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


def _write_report(out: Path, name: str, args, inputs, **fields) -> None:
    """Write out/<name>_report.json: the options the command reads, the
    sha256 of each input file by its path, and the command's own fields."""
    report = {"config": args.config,
              "inputs": {str(Path(p)): fileio.sha256_file(p) for p in inputs},
              **fields}
    text = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
    (out / f"{name}_report.json").write_text(text + "\n", encoding="utf-8")


def _out_dir(args) -> Path:
    """The output directory, created once every input has been read and
    checked, so a failed run leaves none behind."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_binary(args) -> BinaryMatrix:
    mat = fileio.read_matrix(args.matrix)
    if isinstance(mat, ExportMatrix):
        mat = rca_binarize(mat, args.rca_threshold) if args.filter == "rca" else binarize(mat)
    elif args.filter == "rca":
        raise ParseError("the rca filter needs a valued matrix file; "
                         "this one is already binary")
    return prune_degenerate(mat)


def cmd_ingest(args) -> int:
    x = fileio.read_trade_csv(args.trade_csv)
    out = _out_dir(args)
    matrix_path = out / "matrix.txt"
    fileio.write_matrix(x, matrix_path)
    cells = x.n_countries * x.n_products
    fill = x.n_entries / cells if cells else 0.0
    _write_report(out, "ingest", args, [args.trade_csv],
                  matrix={"countries": x.n_countries, "products": x.n_products,
                          "entries": x.n_entries, "fill": fill},
                  output=matrix_path.name)
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
    bm = _load_binary(args)
    cm, pm, eigen, iters, errors = run_metrics(bm, tol=args.tol, max_iter=args.max_iter)
    out = _out_dir(args)
    c_path, p_path = out / "countries.csv", out / "products.csv"
    fileio.write_table(c_path, ["country", "d", "tdi", "eci", "fitness"],
                       [bm.country_labels, bm.diversification, cm.tdi, cm.eci, cm.fitness])
    fileio.write_table(p_path, ["product", "u", "tsi", "pci", "q"],
                       [bm.product_labels, bm.ubiquity, pm.tsi, pm.pci, pm.q])
    _write_report(out, "metrics", args, [args.matrix],
                  matrix={"countries": bm.n_countries, "products": bm.n_products,
                          "entries": bm.n_entries,
                          "product_classes": len(bm.column_classes.first)},
                  errors=errors,
                  eigen=eigen,
                  fitness_iterations=iters,
                  outputs=[c_path.name, p_path.name])
    print(f"wrote {c_path} {p_path}")
    return _families_exit(errors)


def cmd_simulate(args) -> int:
    params = ModelParams(tau=args.tau, K=args.K)
    world = simulate_world(params, mode=args.mode, samples=args.samples,
                           seed=args.seed)
    out = _out_dir(args)
    matrix_path = out / "world.txt"
    fileio.write_matrix(world.matrix, matrix_path)

    predicted = world_distribution(params)
    pool = world.sophistication_counts("pool")
    per_country = world.sophistication_counts("per_country")
    pool_share = pool / pool.sum() if pool.sum() else pool
    pc_share = per_country / per_country.sum() if per_country.sum() else per_country
    hist_path = out / "sophistication.csv"
    fileio.write_table(hist_path,
                       ["s", "predicted", "empirical_pool", "empirical_per_country",
                        "count_pool", "count_per_country"],
                       [predicted.support, predicted.probabilities, pool_share, pc_share,
                        pool.astype(np.int64), per_country.astype(np.int64)])
    _write_report(out, "simulate", args, [],
                  world={"countries": world.matrix.n_countries,
                         "products": world.matrix.n_products,
                         "entries": world.matrix.n_entries},
                  diversification=world.matrix.diversification,
                  outputs=[matrix_path.name, hist_path.name])
    print(f"wrote {matrix_path} {hist_path}")
    return 0


def cmd_validate(args) -> int:
    bm = _load_binary(args)
    panel = fileio.read_income_csv(args.income_csv)
    cm, pm, eigen, iters, errors = run_metrics(bm, tol=args.tol, max_iter=args.max_iter)
    rep = run_paper_regressions(bm, panel, cm, pm)
    out = _out_dir(args)
    _write_report(out, "validation", args, [args.matrix, args.income_csv],
                  join=rep.join,
                  rent_offset=rep.rent_offset,
                  regressions={"rank_rank": rep.rank_rank, "log_log": rep.log_log,
                               "eci_on_tdi": rep.eci_on_tdi,
                               "fitness_on_dlogd": rep.fitness_on_dlogd},
                  spearman_gdp_d=rep.spearman_gdp_d,
                  product_spearman=rep.product_spearman,
                  errors={**errors, **rep.errors},
                  eigen=eigen,
                  fitness_iterations=iters)

    # Scatter tables for the joined sample, plot-ready.
    scatter = {
        "rank_rank": ["rank_gdp", "rank_d", "rank_rents"],
        "log_log": ["log_gdp", "log_d", "log_rents_offset"],
        "eci_tdi": ["tdi", "eci"],
        "fitness_dlogd": ["dlogd_norm", "fitness"],
    }
    for name, columns in scatter.items():
        fileio.write_table(out / f"{name}.csv", ["country", *columns],
                           [rep.join.matched, *(rep.design[c] for c in columns)])
    fileio.write_table(out / "product_scatter.csv", ["product", "tsi", "pci", "q"],
                       [pm.product_labels, pm.tsi, pm.pci, pm.q])
    print(f"wrote {out / 'validation_report.json'} and scatter tables")
    return _families_exit(errors)


def cmd_fit_tau(args) -> int:
    tsi_values = fileio.read_tsi_column(args.metrics_csv)
    tau_hat, ks = estimate_tau(tsi_values, args.K)
    out = _out_dir(args)

    dist = world_distribution(ModelParams(tau=tau_hat, K=args.K))
    x = dist.standardized_support
    model_cdf = dist.cdf()
    sample = np.sort(np.asarray(tsi_values))
    emp_cdf = np.searchsorted(sample, x, side="right") / len(sample)
    fileio.write_table(out / "tau_cdf.csv", ["x", "model_cdf", "empirical_cdf"],
                       [x, model_cdf, emp_cdf])
    _write_report(out, "tau", args, [args.metrics_csv],
                  tau_hat=tau_hat,
                  ks_distance=ks,
                  n=int(len(tsi_values)),
                  outputs=["tau_cdf.csv"])
    print(f"tau_hat={tau_hat} ks={ks:.6f}")
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.Action]]:
    """The command-line parser, the one place where each option's flag,
    type, choices, default and help are declared; and each config key's
    option, over every command."""
    options: dict[str, argparse.Action] = {}

    def parent(*declared) -> argparse.ArgumentParser:
        """A parent parser of options declared as (flag, help, add_argument keywords)."""
        group = argparse.ArgumentParser(add_help=False)
        for flag, text, kwargs in declared:
            action = group.add_argument(flag, help=text + " (default %(default)s)", **kwargs)
            options[action.dest] = action
        return group

    common = parent(("--out-dir", "output directory", dict(default=".")))
    common.add_argument("--config", dest="config_file", metavar="FILE",
                        help="JSON file with default option values")
    binary = parent(
        ("--filter", "binarization filter", dict(choices=["none", "rca"], default="none")),
        ("--rca-threshold", "RCA cutoff when --filter rca", dict(type=float, default=1.0)),
        ("--tol", "fitness convergence tolerance", dict(type=float, default=1e-10)),
        ("--max-iter", "fitness iteration cap", dict(type=int, default=10000)),
    )
    endowment = parent(("--K", "maximum tech endowment", dict(type=int, default=221)))
    model = parent(
        ("--tau", "coherence probability", dict(type=float, default=0.07)),
        ("--seed", "generator seed", dict(type=int, default=0)),
        ("--mode", "exact subset enumeration (K <= 20) or Monte Carlo",
         dict(choices=["exact", "mc"], default="mc")),
        ("--samples", "Monte Carlo sample count", dict(type=int, default=5000)),
    )

    parser = argparse.ArgumentParser(
        prog="ecomplex",
        description="Economic-complexity metrics, a combinatorial knowhow "
                    "model, and the validation harness tying them together.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, positionals, parents, text in (
        ("ingest", cmd_ingest, ["trade_csv"], [common], "trade CSV -> canonical matrix file"),
        ("metrics", cmd_metrics, ["matrix"], [common, binary],
         "canonical matrix -> metric tables"),
        ("simulate", cmd_simulate, [], [common, endowment, model],
         "synthetic world + sophistication table"),
        ("validate", cmd_validate, ["matrix", "income_csv"], [common, binary],
         "regression/correlation battery"),
        ("fit-tau", cmd_fit_tau, ["metrics_csv"], [common, endowment],
         "estimate tau from a products table"),
    ):
        p = sub.add_parser(name, parents=parents, help=text)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(func=func)
    return parser, options


# Each option's range, checked on the merged values before a command
# runs; a (command, option) rule replaces the option's own rule there.
_RANGES = {
    "rca_threshold": (lambda v: v >= 0, "rca-threshold must be >= 0"),
    "tol": (lambda v: v > 0, "tol must be > 0"),
    "max_iter": (lambda v: v >= 1, "max-iter must be >= 1"),
    "samples": (lambda v: v >= 1, "samples must be >= 1"),
    "tau": (lambda v: 0 < v <= 1, "tau must be in (0, 1]"),
    "K": (lambda v: v >= 0, "K must be >= 0"),
    # a world may have no technology, but a fit of tau needs one
    ("fit-tau", "K"): (lambda v: v >= 1, "K must be >= 1"),
}


def _merge_config(parser: argparse.ArgumentParser, options: dict[str, argparse.Action],
                  argv) -> argparse.Namespace:
    """The parsed command line, flags > config file > the parser's
    defaults, with ``config`` set to the options the command reads.

    A config file may hold any command's keys, so one file serves the
    whole pipeline; a key the command does not read is checked, then
    ignored. Raises ParseError at an unknown key or a value of the wrong
    JSON type, and ValueError at a value out of its choices or range."""
    args = parser.parse_args(argv)
    if args.config_file:
        try:
            loaded = json.loads(Path(args.config_file).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ParseError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in options:
                raise ParseError(f"unknown config key {key!r}")
            action = options[key]
            kind = action.type or str
            # An int is a valid float; a bool is never a number.
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ParseError(f"config key {key!r} must be {kind.__name__}, "
                                 f"got {type(value).__name__}")
            if action.choices and value not in action.choices:
                raise ValueError(f"{key} must be {' or '.join(action.choices)}, got {value!r}")
            # as set_defaults would: every parser holding the option shares this action
            action.default = kind(value)
        args = parser.parse_args(argv)
    args.config = {key: getattr(args, key) for key in options if hasattr(args, key)}
    for key, value in args.config.items():
        rule = _RANGES.get((args.command, key), _RANGES.get(key))
        if rule and not rule[0](value):
            raise ValueError(rule[1])
    return args


def main(argv=None) -> int:
    parser, options = build_parser()
    try:
        args = _merge_config(parser, options, argv)
        return args.func(args)
    except EcomplexError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
