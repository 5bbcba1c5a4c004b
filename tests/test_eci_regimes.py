"""Where the paper's third claim, that ECI measures what TDI measures,
holds and where it fails.

ECI is the spectral-clustering vector of a product-similarity graph
(Mealy, Farmer & Teytelboym, Sci. Adv. 5, eaau1705, 2019), so it tracks
diversification only on matrices structured that way. Two kinds of
150 x 3,000 world pin the two sides:

- capability worlds in the style of Hausmann & Hidalgo (J. Econ. Growth
  16, 2011), where a country makes a product when it holds every
  capability the product needs: corr(ECI, TDI) is 0.992-0.995 on seeds
  0-2, lambda2 0.12-0.18, and every metric family succeeds, fitness in
  43-55 iterations;
- rank-one worlds, where a cell is present with probability a_c * b_p:
  corr(ECI, TDI) is -0.25 to -0.04, lambda2 0.031-0.042, and fitness
  underflows. ECI is noise there.
"""

import json

import numpy as np
import pytest

import ecomplex as ec
from ecomplex.cli import main

SEEDS = [0, 1, 2]


def capability_world(seed: int, countries=150, products=3000, capabilities=60,
                     need=0.06) -> ec.BinaryMatrix:
    """Each product needs each capability with probability ``need``; each
    country holds each capability at its own rate, uniform on [0.3, 0.98]."""
    rng = np.random.default_rng(seed)
    held = rng.random((countries, capabilities)) < rng.uniform(0.3, 0.98, (countries, 1))
    needed = rng.random((products, capabilities)) < need
    lacks = (~held).astype(np.int32) @ needed.T.astype(np.int32)  # needed capabilities lacked
    return ec.prune_degenerate(ec.BinaryMatrix.from_dense(lacks == 0))


def rank_one_world(seed: int, countries=150, products=3000) -> ec.BinaryMatrix:
    """Cell (c, p) present with probability a_c * b_p, with a and b
    uniform on (0, 1): a matrix with no structure beyond its margins."""
    rng = np.random.default_rng(seed)
    a, b = rng.random(countries), rng.random(products)
    return ec.prune_degenerate(ec.BinaryMatrix.from_dense(
        rng.random((countries, products)) < np.outer(a, b)))


def eci_tdi_corr(m: ec.BinaryMatrix):
    """Pearson corr(ECI, TDI), the eigen report and the failed families."""
    cm, _, eigen, _, errors = ec.run_metrics(m)
    return float(np.corrcoef(cm.eci, cm.tdi)[0, 1]), eigen, errors


@pytest.mark.parametrize("seed", SEEDS)
def test_eci_measures_diversification_on_capability_worlds(seed):
    corr, eigen, errors = eci_tdi_corr(capability_world(seed))
    assert corr >= 0.99
    assert errors == {}


@pytest.mark.parametrize("seed", SEEDS)
def test_eci_is_noise_on_rank_one_worlds(seed):
    corr, eigen, errors = eci_tdi_corr(rank_one_world(seed))
    assert abs(corr) < 0.3
    assert eigen.second_eigenvalue < 0.05  # 0.12-0.18 on capability worlds
    assert isinstance(errors.get("fitness"), ec.NumericalUnderflow)


def test_validate_runs_the_full_battery_on_a_capability_world(tmp_path):
    """The model worlds of `simulate` all underflow in fitness; a
    capability world runs every metric family and every fit."""
    m = capability_world(0)
    ec.write_matrix(m, tmp_path / "world.txt")
    rng = np.random.default_rng(1)
    gdp = np.exp(0.8 * np.log(m.diversification) + rng.normal(0.0, 0.5, m.n_countries))
    rents = rng.uniform(0.0, 10.0, m.n_countries)
    (tmp_path / "income.csv").write_text("country,gdp,natural_rents\n" + "".join(
        f"{lab},{g!r},{r!r}\n" for lab, g, r in zip(m.country_labels, gdp.tolist(), rents.tolist())))
    out = tmp_path / "out"
    assert main(["validate", str(tmp_path / "world.txt"), str(tmp_path / "income.csv"),
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "validation_report.json").read_text())
    assert report["errors"] == {}
    assert report["join"]["matched"] == sorted(m.country_labels)
    assert report["regressions"]["eci_on_tdi"]["with_intercept"]["r_squared"] >= 0.98
