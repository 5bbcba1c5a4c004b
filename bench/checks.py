"""Output checks. Each check returns a list of problems; empty means pass.

The checks read what the CLI wrote, so they test the program as a user
sees it. No output digest is pinned: the Monte Carlo stream is expected
to change, so a run is only required to agree with itself (every pass
byte-identical to the first) and with the invariants below.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

STD_TOL = 1e-9


def file_digests(directory: Path) -> dict[str, str]:
    """sha256 of every file a step wrote, by name."""
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def _column(path: Path, name: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[name] for row in csv.DictReader(fh)]


def _standardized(path: Path, name: str) -> list[str]:
    values = np.array([float(v) for v in _column(path, name)])
    if abs(values.mean()) > STD_TOL or abs(values.std() - 1.0) > STD_TOL:
        return [f"{path.name}:{name} has mean {values.mean():.3e} and std {values.std():.12f}"]
    return []


def _report(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _guard(check):
    """Run one check; a missing or malformed output is a failed check."""
    try:
        return check()
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"{type(exc).__name__}: {exc}"]


def trade_checks(work: Path, n_countries: int, estimate_tau) -> dict[str, list[str]]:
    """Per-step problems for the trade pipeline's outputs."""

    def ingest():
        matrix = _report(work / "ingest" / "ingest_report.json")["matrix"]
        return [] if matrix["countries"] == n_countries else [f"ingest kept {matrix['countries']} countries"]

    def metrics():
        errors = _report(work / "metrics" / "metrics_report.json")["errors"]
        problems = [f"metric families failed: {errors}"] if errors else []
        countries = work / "metrics" / "countries.csv"
        return problems + _standardized(countries, "tdi") + _standardized(countries, "eci")

    def validate():
        join = _report(work / "validate" / "validation_report.json")["join"]
        if len(join["matched"]) != n_countries or join["unmatched_matrix"] or join["unmatched_panel"]:
            return [f"join matched {len(join['matched'])} of {n_countries} countries"]
        return []

    def fit_tau():
        tsi = np.array([float(v) for v in _column(work / "metrics" / "products.csv", "tsi")])
        report = _report(work / "fit_tau" / "tau_report.json")
        tau_hat, ks = estimate_tau(tsi, 221)
        if (report["tau_hat"], report["ks_distance"]) != (tau_hat, ks):
            return [f"fit-tau gave {report['tau_hat']}, estimate_tau gives {tau_hat}"]
        return []

    return {"ingest": _guard(ingest), "metrics": _guard(metrics),
            "validate": _guard(validate), "fit_tau": _guard(fit_tau)}


def model_checks(work: Path) -> dict[str, list[str]]:
    """Per-step problems for the model pipeline's outputs."""

    def world_header() -> dict[str, int]:
        with open(work / "simulate" / "world.txt", encoding="utf-8") as fh:
            head = fh.readline().split()
        return {k: int(v) for k, v in (part.split("=", 1) for part in head)}

    def simulate():
        products = world_header()["products"]
        pool = sum(int(v) for v in _column(work / "simulate" / "sophistication.csv", "count_pool"))
        return [] if pool == products else [f"count_pool sums to {pool}, world has {products} products"]

    def metrics():
        errors = _report(work / "metrics" / "metrics_report.json")["errors"]
        problems = []
        if set(errors) != {"fitness"} or not errors["fitness"].startswith("NumericalUnderflow"):
            problems.append(f"expected only the fitness family to underflow, got {errors}")
        u_sum = sum(int(v) for v in _column(work / "metrics" / "products.csv", "u"))
        entries = world_header()["entries"]
        if u_sum != entries:
            problems.append(f"products.csv u sums to {u_sum}, world.txt header says {entries}")
        return problems

    def fit_tau():
        n = _report(work / "fit_tau" / "tau_report.json")["n"]
        products = world_header()["products"]
        return [] if n == products else [f"fit-tau read {n} tsi values of {products}"]

    return {"simulate": _guard(simulate), "metrics": _guard(metrics), "fit_tau": _guard(fit_tau)}


def warm_checks(warmup: dict, n_countries: int) -> list[str]:
    """Invariants of the warm-up pass; later passes must match its digest."""
    facts = warmup["facts"]
    problems = []
    if facts["countries"] != n_countries or facts["matched"] != n_countries:
        problems.append(f"kept {facts['countries']} and matched {facts['matched']} "
                        f"of {n_countries} countries")
    for name in ("tdi", "eci"):
        mean, std = facts[f"{name}_mean"], facts[f"{name}_std"]
        if abs(mean) > STD_TOL or abs(std - 1.0) > STD_TOL:
            problems.append(f"{name} has mean {mean:.3e} and std {std:.12f}")
    return problems
