"""Acceptance gate.

Criteria 1-7 and 13 run unconditionally and each prints one line,
ACCEPTANCE-<n> PASS or ACCEPTANCE-<n> FAIL, before asserting. Criteria
8-12 compare against published reference numbers on a specific data
vintage (a 2008 product-level trade extract plus an income/rents
panel); point ECOMPLEX_TRADE_CSV and ECOMPLEX_INCOME_CSV at those
files to run them, otherwise they print UNVERIFIED and skip.

Run `pytest tests/test_acceptance.py -s` to see the lines as they go.
"""

import json
import math
import os
import time
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
from conftest import fitness_iterations, random_connected_matrix

import ecomplex as ec
from ecomplex.cli import main

TRADE_ENV = "ECOMPLEX_TRADE_CSV"
INCOME_ENV = "ECOMPLEX_INCOME_CSV"


def report(n: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE-{n} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def unverified(n: int) -> None:
    print(f"ACCEPTANCE-{n} UNVERIFIED "
          f"(set {TRADE_ENV} and {INCOME_ENV} to run against real data)")
    pytest.skip("needs the real trade extract and income panel")


@pytest.fixture(scope="module")
def sweep():
    """50 random pruned connected matrices, plus generation time."""
    rng = np.random.default_rng(20260821)
    start = time.perf_counter()
    mats = [random_connected_matrix(rng) for _ in range(50)]
    return mats, time.perf_counter() - start


@pytest.fixture(scope="module")
def oracle_eigs(sweep):
    """Independent dense eigendecomposition of W W* for every matrix."""
    mats, _ = sweep
    out = []
    start = time.perf_counter()
    for m in mats:
        dense = m.to_dense().astype(float)
        d = m.diversification.astype(float)
        u = m.ubiquity.astype(float)
        ww = (dense / d[:, None]) @ (dense.T / u[:, None])
        vals, vecs = np.linalg.eig(ww)
        order = np.argsort(-np.abs(vals))
        assert np.abs(vals[order[:2]].imag).max() < 1e-10
        out.append((
            float(vals[order[0]].real),
            vecs[:, order[0]].real,
            vecs[:, order[1]].real,
        ))
    return out, time.perf_counter() - start


def test_criterion_01_combinatorial_identities():
    start = time.perf_counter()
    worst = 0.0
    for tau in (0.01, 0.07, 0.5, 0.99):
        params = ec.ModelParams(tau=tau, K=50)
        for k in range(51):
            total = sum(math.comb(k, s) * tau ** s for s in range(k + 1))
            closed = ec.expected_diversification(params, k)
            worst = max(worst, abs(closed - total) / total)

            dist = ec.conditional_distribution(params, k)
            moment = float((np.arange(k + 1) * dist).sum())
            target = tau * k / (1 + tau)
            err = abs(moment - target) if target == 0 else abs(moment - target) / target
            worst = max(worst, err)

    sticks_ok = all(
        sum(math.comb(k, s) for k in range(s, K + 1)) == math.comb(K + 1, s + 1)
        for K in range(61)
        for s in range(K + 1)
    )
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and sticks_ok and elapsed < 1.0,
           f"max rel err {worst:.2e}, hockey-stick exact, {elapsed:.2f}s")


def test_criterion_02_world_distribution_normalization():
    start = time.perf_counter()
    headline = ec.world_distribution(ec.ModelParams(tau=0.07, K=221))
    norm_err = abs(float(headline.probabilities.sum()) - 1.0)

    worst = 0.0
    tau = 0.07
    for K in range(1, 61):
        raw = np.array(
            [
                sum(math.comb(k, s) * tau ** s for k in range(K + 1))
                for s in range(K + 1)
            ]
        )
        oracle = raw / sum((1 + tau) ** k for k in range(K + 1))
        got = ec.world_distribution(ec.ModelParams(tau=tau, K=K)).probabilities
        worst = max(worst, float(np.abs(got - oracle).max() / oracle.max()))
        rel = np.abs(got - oracle)[oracle > 0] / oracle[oracle > 0]
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    report(2, norm_err <= 1e-12 and worst <= 1e-10 and elapsed < 1.0,
           f"norm err {norm_err:.2e}, double-sum rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_leading_eigenpair(sweep, oracle_eigs):
    mats, gen_elapsed = sweep
    eigs, eig_elapsed = oracle_eigs
    lead_err = 0.0
    spread = 0.0
    for (lead, lead_vec, _) in eigs:
        lead_err = max(lead_err, abs(lead - 1.0))
        v = lead_vec
        spread = max(spread, float((v.max() - v.min()) / abs(v.mean())))
    elapsed = gen_elapsed + eig_elapsed
    report(3, lead_err <= 1e-8 and spread <= 1e-8 and elapsed < 10.0,
           f"50 matrices, eigenvalue err {lead_err:.2e}, "
           f"spread {spread:.2e}, {elapsed:.2f}s")


def test_criterion_04_eci_matches_dense_oracle(sweep, oracle_eigs):
    mats, _ = sweep
    eigs, _ = oracle_eigs
    worst = 0.0
    signs_ok = True
    for m, (_, _, second_vec) in zip(mats, eigs):
        eci, _, _ = ec.eci_pci(m)
        oracle = ec.standardize(second_vec)
        diff = min(float(np.abs(eci - oracle).max()),
                   float(np.abs(eci + oracle).max()))
        worst = max(worst, diff)
        d = m.diversification.astype(float)
        if np.unique(d).size > 1:
            signs_ok = signs_ok and ec.spearman(eci, d).statistic > 0
    report(4, worst <= 1e-6 and signs_ok,
           f"max |ECI - oracle| {worst:.2e}, sign rule holds")


def test_criterion_05_fitness_contract(sweep):
    mats, _ = sweep
    mean_err = 0.0
    max_iters = 0
    for m in mats:
        f, q, iters = ec.fitness_complexity(m)
        max_iters = max(max_iters, iters)
        for fv, qv in islice(fitness_iterations(m), iters + 1):
            mean_err = max(mean_err, abs(float(fv.mean()) - 1.0),
                           abs(float(qv.mean()) - 1.0))
    converged_ok = max_iters <= 10000

    ones = ec.BinaryMatrix.from_dense(np.ones((8, 16), dtype=int))
    f1, q1, _ = ec.fitness_complexity(ones)
    exact_ok = bool(np.all(f1 == 1.0) and np.all(q1 == 1.0))

    base = mats[0].to_dense()
    doubled = ec.BinaryMatrix.from_dense(np.vstack([base, base[:1]]))
    fd, _, _ = ec.fitness_complexity(doubled)
    anon = abs(float(fd[0] - fd[-1]))

    report(5, mean_err <= 1e-9 and converged_ok and exact_ok and anon <= 1e-10,
           f"mean err {mean_err:.2e}, max iters {max_iters}, "
           f"uniform world exact, anonymity {anon:.2e}")


def test_criterion_06_simulator_consistency():
    start = time.perf_counter()
    params = ec.ModelParams(tau=0.3, K=12)
    seeds = 2000
    divs = np.empty((seeds, 13))
    top_counts = np.zeros(13)
    for seed in range(seeds):
        world = ec.simulate_world(params, "exact", seed=seed)
        divs[seed] = world.matrix.diversification
        dense = world.matrix.to_dense()
        owned = world.product_sophistication[dense[12] == 1]
        top_counts += np.bincount(owned, minlength=13)

    mean = divs.mean(axis=0)
    expect = 1.3 ** np.arange(13)
    assert mean[0] == 1.0  # the empty tech set is always coherent
    se = divs.std(axis=0, ddof=1) / math.sqrt(seeds)
    z = np.abs(mean[1:] - expect[1:]) / se[1:]

    predicted = ec.conditional_distribution(params, 12)
    tv = 0.5 * float(np.abs(top_counts / top_counts.sum() - predicted).sum())
    elapsed = time.perf_counter() - start
    report(6, float(z.max()) <= 3.0 and tv <= 0.05 and elapsed < 60.0,
           f"max |z| {z.max():.2f}, TV {tv:.4f}, {elapsed:.1f}s")


def test_criterion_07_tau_recovery():
    results = []
    ok = True
    for tau, bound in ((0.05, 0.01), (0.07, 0.01), (0.3, 0.02)):
        dist = ec.world_distribution(ec.ModelParams(tau=tau, K=221))
        rng = np.random.default_rng(42)
        draws = rng.choice(dist.support, p=dist.probabilities, size=20000)
        values = (draws - dist.mean) / dist.std
        tau_hat, _ = ec.estimate_tau(values, 221)
        ok = ok and abs(tau_hat - tau) <= bound
        results.append(f"{tau}->{tau_hat:.3f}")
    report(7, ok, ", ".join(results))


def test_criterion_13_model_worlds():
    """On MC worlds of the model, ECI tracks TDI, and diversification
    grows as (1+tau)^k wherever sampling leaves it large (d >= 50)."""
    worst_corr, worst_slope = 1.0, 0.0
    for tau in (0.05, 0.07, 0.15):
        for seed in range(3):
            world = ec.simulate_world(ec.ModelParams(tau=tau, K=221), "mc",
                                      samples=20_000, seed=seed)
            m = ec.prune_degenerate(world.matrix)
            eci, _, _ = ec.eci_pci(m)
            worst_corr = min(worst_corr, float(np.corrcoef(eci, ec.tdi(m))[0, 1]))
            d = world.matrix.diversification  # country k holds techs 1..k
            k = np.flatnonzero(d >= 50)
            slope = np.polyfit(k, np.log(d[k]), 1)[0] / math.log1p(tau)
            worst_slope = max(worst_slope, abs(slope - 1.0))
    report(13, worst_corr > 0.9 and worst_slope <= 0.05,
           f"min corr(ECI, TDI) {worst_corr:.3f}, "
           f"max |slope / log(1+tau) - 1| {worst_slope:.3f}")


PANEL_SEED = 100


def write_model_income(matrix_path: Path, tau: float, path: Path, seed: int) -> int:
    """An income panel for an MC world: one row per pruned country with
    d >= 50, log gdp = 0.8 k log(1+tau) + N(0, 0.5^2) for country k<k>,
    and rents uniform on [0, 10). Returns the row count."""
    rng = np.random.default_rng(seed)
    m = ec.prune_degenerate(ec.read_matrix(matrix_path))
    labels = [lab for lab, d in zip(m.country_labels, m.diversification) if d >= 50]
    k = np.array([int(lab[1:]) for lab in labels])
    gdp = np.exp(0.8 * k * math.log1p(tau) + rng.normal(0.0, 0.5, k.size))
    rents = rng.uniform(0.0, 10.0, k.size)
    path.write_text("country,gdp,natural_rents\n" + "".join(
        f"{lab},{g!r},{r!r}\n" for lab, g, r in zip(labels, gdp.tolist(), rents.tolist())))
    return len(labels)


def test_model_worlds_income_follows_log_diversification(tmp_path):
    """The paper's second claim, offline, through the validate command: on
    criterion 13's worlds, with income built to grow as 0.8 log d, the
    with-intercept log-log fit recovers the 0.8 slope on log d and GDP
    co-ranks with d."""
    slopes, rhos = [], []
    for tau in (0.05, 0.07, 0.15):
        for seed in range(3):
            out = tmp_path / f"t{tau}s{seed}"
            assert main(["simulate", "--mode", "mc", "--K", "221", "--samples", "20000",
                         "--tau", str(tau), "--seed", str(seed), "--out-dir", str(out)]) == 0
            income = out / "income.csv"
            assert write_model_income(out / "world.txt", tau, income, PANEL_SEED) >= 40
            assert main(["validate", str(out / "world.txt"), str(income),
                         "--out-dir", str(out)]) == 0
            rep = json.loads((out / "validation_report.json").read_text())
            slopes.append(rep["regressions"]["log_log"]["with_intercept"]["coefficients"][0])
            rhos.append(rep["spearman_gdp_d"]["statistic"])
    print(f"log-log slope on log d {min(slopes):.3f}..{max(slopes):.3f}, "
          f"spearman(gdp, d) {min(rhos):.3f}..{max(rhos):.3f}")
    assert all(abs(b - 0.8) <= 0.1 for b in slopes), slopes
    assert min(rhos) >= 0.9, rhos


def _real_paths():
    trade = os.environ.get(TRADE_ENV)
    income = os.environ.get(INCOME_ENV)
    if trade and income and Path(trade).exists() and Path(income).exists():
        return trade, income
    return None


@pytest.fixture(scope="module")
def real_bundle():
    paths = _real_paths()
    if paths is None:
        return None
    trade, income = paths
    x = ec.read_trade_csv(trade)
    m = ec.prune_degenerate(ec.binarize(x))
    panel = ec.read_income_csv(income)
    cm, pm, _, _ = ec.compute_metrics(m)
    regressions = ec.run_paper_regressions(m, panel, cm, pm)
    return {"matrix": m, "panel": panel, "country": cm, "product": pm,
            "regressions": regressions}


def _find(labels, candidates):
    for c in candidates:
        if c in labels:
            return labels.index(c)
    raise AssertionError(f"none of {candidates} in the supplied extract")


def test_criterion_08_reference_diversification(real_bundle):
    if real_bundle is None:
        unverified(8)
    m = real_bundle["matrix"]
    us = _find(m.country_labels, ("USA", "United States", "US"))
    gnb = _find(m.country_labels, ("GNB", "Guinea-Bissau", "Guinea Bissau"))
    d_us = int(m.diversification[us])
    d_gnb = int(m.diversification[gnb])
    report(8, d_us == 5036 and d_gnb == 85, f"US d={d_us}, GNB d={d_gnb}")


def test_criterion_09_income_rank_correlation(real_bundle):
    if real_bundle is None:
        unverified(9)
    stat = real_bundle["regressions"].spearman_gdp_d.statistic
    report(9, abs(stat - 0.83) <= 0.02, f"spearman {stat:.3f}")


def test_criterion_10_headline_regressions(real_bundle):
    if real_bundle is None:
        unverified(10)
    reg = real_bundle["regressions"]
    eci_fit = reg.eci_on_tdi["with_intercept"]
    fit_fit = reg.fitness_on_dlogd["with_intercept"]
    ok = (
        abs(eci_fit.coefficients[0] - 0.94) <= 0.05
        and abs(eci_fit.r_squared - 0.89) <= 0.03
        and abs(fit_fit.coefficients[0] - 1.24) <= 0.08
        and abs(fit_fit.r_squared - 0.94) <= 0.03
    )
    report(10, ok,
           f"ECI~TDI slope {eci_fit.coefficients[0]:.3f} R2 {eci_fit.r_squared:.3f}; "
           f"F~dlogd slope {fit_fit.coefficients[0]:.3f} R2 {fit_fit.r_squared:.3f}")


def test_criterion_11_cross_metric_correlations(real_bundle):
    if real_bundle is None:
        unverified(11)
    prod = real_bundle["regressions"].product_spearman
    targets = {"tsi_pci": 0.94, "tsi_q": 0.88, "pci_q": 0.94}
    ok = all(abs(prod[k].statistic - v) <= 0.03 for k, v in targets.items())
    detail = ", ".join(f"{k}={prod[k].statistic:.3f}" for k in targets)
    report(11, ok, detail)


def test_criterion_12_tau_from_real_sophistication(real_bundle):
    if real_bundle is None:
        unverified(12)
    tsi_values = real_bundle["product"].tsi
    tau_hat, ks = ec.estimate_tau(tsi_values, 221)
    report(12, abs(tau_hat - 0.07) <= 0.01, f"tau_hat {tau_hat:.3f} ks {ks:.4f}")
