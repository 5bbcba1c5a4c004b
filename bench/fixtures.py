"""Deterministic synthetic inputs for the trade pipeline.

``write_trade_fixtures(out_dir, seed)`` writes ``trade.csv`` (country,
product, value rows of a 230 x 5000 export matrix, about 18% of cells
present) and ``income.csv`` (one row per country with GDP and natural
rents). The same seed always gives byte-identical files.

Labels are code-style, as in the trade extracts the CLI targets:
three-letter ISO-like country codes and six-digit HS-like product codes.
No label holds a comma, quote or newline; the CSV writer's handling of
such labels is a known defect tracked apart from the benchmark.

Country and product sizes are log-normal, so presence and values are
heterogeneous and the RCA filter keeps only part of the present cells.
"""

from __future__ import annotations

import string
from pathlib import Path

import numpy as np

N_COUNTRIES = 230
N_PRODUCTS = 5000
FILL = 0.18


def _country_codes(rng: np.random.Generator, n: int) -> list[str]:
    letters = string.ascii_uppercase
    picks = rng.choice(26 ** 3, size=n, replace=False)
    return [letters[v // 676] + letters[(v // 26) % 26] + letters[v % 26] for v in picks]


def _product_codes(rng: np.random.Generator, n: int) -> list[str]:
    picks = rng.choice(960_000, size=n, replace=False) + 10_000
    return [f"{int(v):06d}" for v in picks]


def _presence(rng: np.random.Generator, log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Boolean presence matrix with mean fill FILL, every row and column hit."""
    z = 0.4 * log_a[:, None] + 0.3 * log_b[None, :]
    lo, hi = -40.0, 40.0
    for _ in range(60):  # bisect the offset that gives the target fill
        mid = (lo + hi) / 2
        if (1.0 / (1.0 + np.exp(-(z + mid)))).mean() < FILL:
            lo = mid
        else:
            hi = mid
    prob = 1.0 / (1.0 + np.exp(-(z + lo)))
    present = rng.random(z.shape) < prob
    present[np.argmax(z, axis=0), np.arange(z.shape[1])] = True
    present[np.arange(z.shape[0]), np.argmax(z, axis=1)] = True
    return present


def write_trade_fixtures(out_dir, seed: int) -> dict:
    """Write trade.csv and income.csv under out_dir; return their facts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0xEC0])
    countries = _country_codes(rng, N_COUNTRIES)
    products = _product_codes(rng, N_PRODUCTS)
    log_a = rng.normal(0.0, 1.2, N_COUNTRIES)
    log_b = rng.normal(0.0, 1.0, N_PRODUCTS)

    present = _presence(rng, log_a, log_b)
    rows, cols = np.nonzero(present)
    noise = rng.normal(0.0, 2.0, rows.size)
    values = np.maximum(1.0, np.rint(np.exp(6.0 + log_a[rows] + log_b[cols] + noise)))
    lines = ["country,product,value"]
    lines.extend(f"{countries[i]},{products[j]},{int(v)}"
                 for i, j, v in zip(rows.tolist(), cols.tolist(), values.tolist()))
    (out / "trade.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    gdp = np.exp(8.0 + 0.8 * log_a + rng.normal(0.0, 0.5, N_COUNTRIES))
    rents = np.exp(rng.normal(0.0, 1.5, N_COUNTRIES))
    rents[rng.random(N_COUNTRIES) < 0.1] = 0.0
    order = rng.permutation(N_COUNTRIES)
    panel = ["country,gdp,natural_rents"]
    panel.extend(f"{countries[i]},{gdp[i]:.2f},{rents[i]:.4f}" for i in order.tolist())
    (out / "income.csv").write_text("\n".join(panel) + "\n", encoding="utf-8")
    return {"countries": N_COUNTRIES, "products": N_PRODUCTS, "trade_rows": int(rows.size)}
