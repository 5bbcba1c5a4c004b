"""Statistical harness linking metrics to income and to each other.

Provides rank correlation, classical OLS, the rank transforms used for
the income regressions, and a one-call report running the full battery
on a matrix + income panel: rank-rank and log-log income regressions
(with and without intercept), the ECI-on-TDI and fitness-on-d-log-d
fits, and the cross-metric rank correlations on the product side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Collinear, DegenerateInput, JoinEmpty
from .matrix import BinaryMatrix
from .metrics import CountryMetrics, ProductMetrics, _average_ranks, _spearman, compute_metrics

__all__ = [
    "IncomePanel",
    "RegressionResult",
    "CorrelationResult",
    "JoinReport",
    "RegressionReport",
    "spearman",
    "ols",
    "rank_transform",
    "join_panel",
    "run_paper_regressions",
    "BENCHMARK_RANK_COEFS",
    "BENCHMARK_LOG_COEFS",
]

_COND_LIMIT = 1e10

# Benchmark slopes the with/without-intercept variants are compared
# against when flagging which variant a replication should read:
# (diversification rank, rents rank) and (log diversification, log rents).
BENCHMARK_RANK_COEFS = (0.72, 0.32)
BENCHMARK_LOG_COEFS = (1.03, 0.30)


@dataclass(frozen=True)
class IncomePanel:
    """Per-country GDP (PPP) and natural-resource rents."""

    country_labels: tuple[str, ...]
    gdp: np.ndarray
    natural_rents: np.ndarray

    def __post_init__(self):
        if len(set(self.country_labels)) != len(self.country_labels):
            raise ValueError("duplicate country labels")
        n = len(self.country_labels)
        if len(self.gdp) != n or len(self.natural_rents) != n:
            raise ValueError("field lengths disagree")
        gdp, rents = np.asarray(self.gdp), np.asarray(self.natural_rents)
        if not np.all(np.isfinite(gdp) & (gdp > 0)):
            raise ValueError("gdp must be finite and strictly positive")
        if not np.all(np.isfinite(rents) & (rents >= 0)):
            raise ValueError("natural rents must be finite and non-negative")


@dataclass(frozen=True)
class RegressionResult:
    """OLS output. Coefficients follow regressor order, intercept last."""

    coefficients: np.ndarray
    standard_errors: np.ndarray
    p_values: np.ndarray
    r_squared: float
    intercept_included: bool

    def __post_init__(self):
        if not (-1e-9 <= self.r_squared <= 1 + 1e-9):
            raise ValueError(f"r_squared out of range: {self.r_squared}")
        if np.any(self.standard_errors < 0):
            raise ValueError("negative standard error")


@dataclass(frozen=True)
class CorrelationResult:
    statistic: float
    method: str
    n: int

    def __post_init__(self):
        if not (-1 - 1e-12 <= self.statistic <= 1 + 1e-12):
            raise ValueError(f"correlation out of range: {self.statistic}")


@dataclass(frozen=True)
class JoinReport:
    """Outcome of matching matrix country labels with panel labels."""

    matched: tuple[str, ...]
    unmatched_matrix: tuple[str, ...]
    unmatched_panel: tuple[str, ...]


def spearman(x, y) -> CorrelationResult:
    """Rank correlation: Pearson correlation of average ranks."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if x.size < 3:
        raise ValueError("need at least 3 observations")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInput("constant vector has no rank ordering")
    return CorrelationResult(statistic=_spearman(x, y), method="spearman", n=x.size)


def ols(y, X, intercept: bool = True) -> RegressionResult:
    """Least squares with classical standard errors.

    X is a sequence of regressor vectors. The intercept column, when
    requested, is appended last so coefficient order matches the
    regressor list. R-squared is centered when an intercept is included
    and uncentered otherwise. Raises Collinear when the design matrix
    condition number exceeds 1e10.
    """
    y = np.asarray(y, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in X]
    if not cols:
        raise ValueError("need at least one regressor")
    n = y.size
    for c in cols:
        if c.size != n:
            raise ValueError("regressor length mismatch")
    if intercept:
        cols = cols + [np.ones(n)]
    design = np.column_stack(cols)
    k = design.shape[1]
    if n < k + 1:
        raise DegenerateInput(
            f"{n} observations cannot support {k} parameters with a residual"
        )
    if np.linalg.cond(design) > _COND_LIMIT:
        raise Collinear("design matrix is numerically collinear")

    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    ssr = float(resid @ resid)
    dof = n - k
    sigma2 = ssr / dof
    xtx_inv = np.linalg.inv(design.T @ design)
    se = np.sqrt(np.clip(sigma2 * np.diag(xtx_inv), 0.0, None))

    # Imported here, so that only a command that fits regressions loads scipy.
    from scipy.special import stdtr

    # An exact fit (se 0) gives p 0 for a nonzero coefficient, 1 for a zero one.
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.abs(beta / se)
    p = np.where(se == 0, (beta == 0).astype(float), 2.0 * stdtr(dof, -t))

    if intercept:
        tss = float(((y - y.mean()) ** 2).sum())
    else:
        tss = float((y ** 2).sum())
    if tss == 0:
        raise DegenerateInput("response has no variation to explain")
    r2 = min(1.0, max(0.0, 1.0 - ssr / tss))
    return RegressionResult(
        coefficients=beta,
        standard_errors=se,
        p_values=p,
        r_squared=r2,
        intercept_included=intercept,
    )


def rank_transform(v, reversed: bool = True) -> np.ndarray:
    """Average ranks of v.

    reversed=True gives the largest value the largest rank number (so the
    most diversified of 160 countries gets rank 160); reversed=False is
    the mirrored convention where the largest value ranks 1.
    """
    v = np.asarray(v, dtype=float)
    if v.size < 1:
        raise ValueError("empty vector")
    r = _average_ranks(v)
    return r if reversed else v.size + 1 - r


def join_panel(m: BinaryMatrix, panel: IncomePanel) -> tuple[np.ndarray, np.ndarray, JoinReport]:
    """Match matrix and panel country labels exactly, sorted for determinism.

    Returns index arrays into the matrix rows and the panel rows plus a
    report listing what failed to match on each side. Raises JoinEmpty
    when no label is shared.
    """
    m_pos = {lab: i for i, lab in enumerate(m.country_labels)}
    p_pos = {lab: i for i, lab in enumerate(panel.country_labels)}
    matched = sorted(m_pos.keys() & p_pos.keys())
    if not matched:
        raise JoinEmpty("no country label is shared by matrix and panel")
    report = JoinReport(
        matched=tuple(matched),
        unmatched_matrix=tuple(sorted(m_pos.keys() - p_pos.keys())),
        unmatched_panel=tuple(sorted(p_pos.keys() - m_pos.keys())),
    )
    m_idx = np.array([m_pos[lab] for lab in matched], dtype=np.intp)
    p_idx = np.array([p_pos[lab] for lab in matched], dtype=np.intp)
    return m_idx, p_idx, report


@dataclass(frozen=True)
class RegressionReport:
    """Everything run_paper_regressions produces, in one bundle.

    ``design`` holds the joined-sample vectors the country regressions
    ran on, in ``join.matched`` order, keyed by scatter-table column:
    rank_gdp, rank_d, rank_rents, log_gdp, log_d, log_rents_offset, tdi,
    eci, dlogd_norm and fitness.
    """

    join: JoinReport
    rank_rank: dict = field(repr=False)
    log_log: dict = field(repr=False)
    eci_on_tdi: dict = field(repr=False)
    fitness_on_dlogd: dict = field(repr=False)
    spearman_gdp_d: CorrelationResult
    product_spearman: dict = field(repr=False)
    rent_offset: float
    design: dict = field(repr=False)


def _both_variants(y, X, benchmark=None) -> dict:
    """Fit with and without intercept; optionally flag the variant whose
    slope vector sits closer to a benchmark."""
    out = {
        "with_intercept": ols(y, X, intercept=True),
        "without_intercept": ols(y, X, intercept=False),
    }
    if benchmark is not None:
        bench = np.asarray(benchmark, dtype=float)
        dist_w = float(np.linalg.norm(out["with_intercept"].coefficients[: len(bench)] - bench))
        dist_wo = float(np.linalg.norm(out["without_intercept"].coefficients[: len(bench)] - bench))
        out["closer_to_benchmark"] = (
            "with_intercept" if dist_w <= dist_wo else "without_intercept"
        )
    return out


def run_paper_regressions(
    m: BinaryMatrix,
    panel: IncomePanel,
    metrics: CountryMetrics,
    product_metrics: ProductMetrics | None = None,
) -> RegressionReport:
    """Run the full validation battery on one matrix and income panel.

    Country-side regressions run on the joined sample: reversed-rank GDP
    on reversed-rank diversification and rents, log GDP on log
    diversification and log(rents + delta) with delta the smallest
    positive rent, ECI on TDI, and fitness on d log d / <d log d>. Each
    comes in with- and without-intercept variants. The product-side rank
    correlations (TSI vs PCI, TSI vs Q, PCI vs Q) use the supplied
    product metrics, or compute them from the matrix when not given.
    """
    m_idx, p_idx, report = join_panel(m, panel)
    if metrics.country_labels != m.country_labels:
        raise ValueError("metrics were computed on a different matrix")

    d = m.diversification[m_idx].astype(float)
    gdp = np.asarray(panel.gdp, dtype=float)[p_idx]
    rents = np.asarray(panel.natural_rents, dtype=float)[p_idx]

    positive = rents[rents > 0]
    delta = float(positive.min()) if positive.size else 1.0
    dlogd = d * np.log(d)
    if dlogd.mean() > 0:
        dlogd = dlogd / dlogd.mean()
    design = {
        "rank_gdp": rank_transform(gdp, reversed=True),
        "rank_d": rank_transform(d, reversed=True),
        "rank_rents": rank_transform(rents, reversed=True),
        "log_gdp": np.log(gdp),
        "log_d": np.log(d),
        "log_rents_offset": np.log(rents + delta),
        "tdi": metrics.tdi[m_idx],
        "eci": metrics.eci[m_idx],
        "dlogd_norm": dlogd,
        "fitness": metrics.fitness[m_idx],
    }
    rank_rank = _both_variants(
        design["rank_gdp"], [design["rank_d"], design["rank_rents"]],
        benchmark=BENCHMARK_RANK_COEFS,
    )
    log_log = _both_variants(
        design["log_gdp"], [design["log_d"], design["log_rents_offset"]],
        benchmark=BENCHMARK_LOG_COEFS,
    )
    eci_on_tdi = _both_variants(design["eci"], [design["tdi"]])
    fitness_on_dlogd = _both_variants(design["fitness"], [design["dlogd_norm"]])

    sp = spearman(gdp, d)

    if product_metrics is None:
        _, product_metrics, _, _ = compute_metrics(m)
    prod = {
        "tsi_pci": spearman(product_metrics.tsi, product_metrics.pci),
        "tsi_q": spearman(product_metrics.tsi, product_metrics.q),
        "pci_q": spearman(product_metrics.pci, product_metrics.q),
    }

    return RegressionReport(
        join=report,
        rank_rank=rank_rank,
        log_log=log_log,
        eci_on_tdi=eci_on_tdi,
        fitness_on_dlogd=fitness_on_dlogd,
        spearman_gdp_d=sp,
        product_spearman=prod,
        rent_offset=delta,
        design=design,
    )

