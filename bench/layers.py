"""Per-layer metrics from the traced run's spans and import profiles.

Every metric is reported on every workload; a layer a workload does not
exercise reads 0. Per-pass figures are summed over the pass's spans and
reported as the median over traced passes. Import figures and the
first/warm call split are per process and per call, reported as medians.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

S, COUNT, RATE, RATIO = "s", "count", "1/s", "ratio"

# name -> (unit, better). The order is the order of the report.
PER_LAYER = {
    "import.ecomplex_s": (S, "lower"),
    "import.scipy_stats_s": (S, "lower"),
    "import.scipy_linalg_s": (S, "lower"),
    "import.scipy_special_s": (S, "lower"),
    "import.modules_loaded": (COUNT, "lower"),
    "cli.cmd_ingest_s": (S, "lower"),
    "cli.cmd_metrics_s": (S, "lower"),
    "cli.cmd_simulate_s": (S, "lower"),
    "cli.cmd_validate_s": (S, "lower"),
    "cli.cmd_fit_tau_s": (S, "lower"),
    "cli.self_s": (S, "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "fileio.read_trade_csv_s": (S, "lower"),
    "fileio.trade_rows": (COUNT, "higher"),
    "fileio.write_matrix_s": (S, "lower"),
    "fileio.read_matrix_s": (S, "lower"),
    "fileio.matrix_entries_written": (COUNT, "lower"),
    "fileio.matrix_entries_read": (COUNT, "lower"),
    "fileio.read_matrix_entries_per_s": (RATE, "higher"),
    "fileio.write_matrix_entries_per_s": (RATE, "higher"),
    "fileio.read_income_csv_s": (S, "lower"),
    "fileio.sha256_file_s": (S, "lower"),
    "matrix.rca_binarize_s": (S, "lower"),
    "matrix.prune_degenerate_s": (S, "lower"),
    "matrix.rca_kept_ratio": (RATIO, "higher"),
    "metrics.eci_pci_s": (S, "lower"),
    "metrics.eci_pci_first_s": (S, "lower"),
    "metrics.eci_pci_warm_s": (S, "lower"),
    "metrics.fitness_complexity_s": (S, "lower"),
    "metrics.fitness_complexity_first_s": (S, "lower"),
    "metrics.fitness_complexity_warm_s": (S, "lower"),
    "metrics.fitness_iterations": (COUNT, "lower"),
    "metrics.dense_cells": (COUNT, "lower"),
    "metrics.fitness_cells_per_s": (RATE, "higher"),
    "metrics.family_failures": (COUNT, "lower"),
    "metrics.families_attempted": (COUNT, "higher"),
    "model.simulate_world_s": (S, "lower"),
    "model.mc_samples": (COUNT, "higher"),
    "model.mc_products": (COUNT, "higher"),
    "model.mc_unique_ratio": (RATIO, "higher"),
    "model.samples_per_s": (RATE, "higher"),
    "model.estimate_tau_s": (S, "lower"),
    "model.world_distribution_s": (S, "lower"),
    "validation.run_paper_regressions_s": (S, "lower"),
    "validation.join_panel_calls": (COUNT, "lower"),
    "validation.rank_transform_calls": (COUNT, "lower"),
    "validation.ols_calls": (COUNT, "lower"),
    "validation.spearman_calls": (COUNT, "lower"),
    "validation.join_matched_ratio": (RATIO, "higher"),
    "trace.overhead_s": (S, "lower"),
    "trace.unspanned_s": (S, "lower"),
}

IMPORTS = {"ecomplex": "import.ecomplex_s", "scipy.stats": "import.scipy_stats_s",
           "scipy.linalg": "import.scipy_linalg_s", "scipy.special": "import.scipy_special_s"}
# Counted families; each call is one attempt, a raised error one failure.
FAMILIES = ("metrics.tdi", "metrics.tsi", "metrics.eci_pci", "metrics.fitness_complexity")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the tracked modules from ``-X importtime``."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        module = fields[2].strip()
        if module in IMPORTS and module not in found:
            found[module] = int(fields[1]) / 1e6
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _pass_metrics(spans: list[dict], pass_wall: float) -> dict[str, float]:
    """Per-pass sums over the spans (with their self times) of one pass.

    Every span name gets ``<name>_s`` (total time) and ``<name>_calls``;
    the caller keeps the ones PER_LAYER names.
    """
    out = defaultdict(float)
    counts = defaultdict(float)
    for span in spans:
        name, dur, c = span["name"], span["end"] - span["start"], span["counts"]
        out[name + "_s"] += dur
        out[name + "_calls"] += 1
        if span["parent"] is None:
            out["_top"] += dur
        if name.startswith("cli."):
            out["cli.self_s"] += span["self"]
        if name in FAMILIES:
            out["metrics.families_attempted"] += 1
            out["metrics.family_failures"] += span["status"] != "ok"
        for key, value in c.items():
            counts[f"{name}:{key}"] += value
        if name == "metrics.fitness_complexity":
            iters = max(c.get("yields", 1) - 1, 0)
            out["metrics.fitness_iterations"] += iters
            out["_fitness_work"] += iters * c["cells"]
            out["metrics.dense_cells"] = max(out["metrics.dense_cells"], c["cells"])

    out["fileio.trade_rows"] = counts["fileio.read_trade_csv:entries"]
    written = counts["fileio.write_matrix:entries"]
    read = counts["fileio.read_matrix:entries"]
    out["fileio.matrix_entries_written"] = written
    out["fileio.matrix_entries_read"] = read
    out["fileio.read_matrix_entries_per_s"] = _ratio(read, out["fileio.read_matrix_s"])
    out["fileio.write_matrix_entries_per_s"] = _ratio(written, out["fileio.write_matrix_s"])
    out["matrix.rca_kept_ratio"] = _ratio(counts["matrix.rca_binarize:kept"],
                                          counts["matrix.rca_binarize:candidates"])
    out["metrics.fitness_cells_per_s"] = _ratio(out.pop("_fitness_work", 0.0),
                                                out["metrics.fitness_complexity_s"])
    samples = counts["model.simulate_world:samples"]
    products = counts["model.simulate_world:products"]
    out["model.mc_samples"] = samples
    out["model.mc_products"] = products if samples else 0.0
    out["model.mc_unique_ratio"] = _ratio(products, samples)
    out["model.samples_per_s"] = _ratio(samples, out["model.simulate_world_s"])
    out["validation.join_matched_ratio"] = _ratio(counts["validation.join_panel:matched"],
                                                  counts["validation.join_panel:panel"])
    out["trace.unspanned_s"] = pass_wall - out.pop("_top", 0.0)
    return out


def _with_self_times(spans: list[dict]) -> list[dict]:
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [dict(span, self=span["end"] - span["start"] - child_time[i])
            for i, span in enumerate(spans)]


def _first_and_warm(processes: list[list[dict]], name: str) -> tuple[float, float]:
    """Median duration of each process's first call, and of later calls."""
    first, warm = [], []
    for spans in processes:
        calls = [s["end"] - s["start"] for s in spans if s["name"] == name]
        first += calls[:1]
        warm += calls[1:]
    return _median(first), _median(warm)


def layer_metrics(processes: list[dict], pass_walls: dict[str, float],
                  untraced_walls: list[float]) -> dict[str, float]:
    """Aggregate traced processes into the PER_LAYER metrics.

    ``processes``: one dict per traced interpreter with ``spans`` (as the
    tracer wrote them), ``importtime`` (parse_importtime output) and
    ``bytes_written`` by pass. ``pass_walls``: wall time of each traced
    pass. ``untraced_walls``: pass wall times from the same run, untraced.
    """
    spans_by_process = [_with_self_times(p["spans"]) for p in processes]
    per_pass = []
    for pass_id, wall in pass_walls.items():
        spans = [s for proc in spans_by_process for s in proc if s["pass"] == pass_id]
        metrics = _pass_metrics(spans, wall)
        metrics["cli.bytes_written"] = sum(p["bytes_written"].get(pass_id, 0) for p in processes)
        per_pass.append(metrics)

    result = {name: _median(m.get(name, 0.0) for m in per_pass) for name in PER_LAYER}
    for module, name in IMPORTS.items():
        result[name] = _median(p["importtime"].get(module, 0.0) for p in processes)
    result["import.modules_loaded"] = _median(
        s["counts"]["modules_loaded"] for proc in spans_by_process for s in proc
        if s["name"] == "import.package")
    for name in ("metrics.eci_pci", "metrics.fitness_complexity"):
        result[name + "_first_s"], result[name + "_warm_s"] = _first_and_warm(spans_by_process, name)
    result["trace.overhead_s"] = _median(pass_walls.values()) - _median(untraced_walls)
    return result
