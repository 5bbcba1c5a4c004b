"""Statistical harness linking metrics to income and to each other.

Provides rank correlation, classical OLS, the rank transforms used for
the income regressions, and a one-call report running the full battery
on a matrix + income panel: rank-rank and log-log income regressions
(with and without intercept), the ECI-on-TDI and fitness-on-d-log-d
fits, and the cross-metric rank correlations on the product side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Collinear, DegenerateInput, JoinEmpty
from .matrix import BinaryMatrix, _first_repeat
from .metrics import CountryMetrics, ProductMetrics, _attempt, _average_ranks, _spearman

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
        if _first_repeat(self.country_labels) >= 0:
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
        raise DegenerateInput(f"need at least 3 observations, got {x.size}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateInput("correlation inputs must be finite")
    if np.all(x == x[0]) or np.all(y == y[0]):
        raise DegenerateInput("constant vector has no rank ordering")
    return CorrelationResult(statistic=_spearman(x, y), method="spearman", n=x.size)


# --- Student t tail ---------------------------------------------------------
#
# 2 P(T > |t|) for T with dof degrees of freedom is I_x(a, 1/2), the
# regularized incomplete beta function at x = dof / (dof + t^2), a = dof / 2.
# x and y = 1 - x are both formed from s = t^2 / dof, so neither loses digits
# to the other. Following DiDonato & Morris, ACM TOMS 18 (1992) 360-373, the
# continued fraction BFRAC gives I_x(a, 1/2) when t^2 >= 2, and
# 1 - I_y(1/2, a) when t^2 < 2, where p > 0.15 and the complement cannot
# cancel. Up to dof 10^6 it converges within 81 terms.

_LARGE_A = 16.0  # from here _log_gamma_ratio's series is exact to double precision
_EPS = 2.0 ** -52
_MAX_TERMS = 200


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)). For large a, where the difference
    of two lgamma values would cancel, its asymptotic series
    log(a) / 2 - sum_m (2 - 2^(1 - 2m)) B_2m / (2m (2m - 1) a^(2m - 1)),
    m = 1..5, from the Bernoulli-polynomial expansion of log Gamma."""
    if a < _LARGE_A:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    z = 1.0 / (a * a)
    return 0.5 * math.log(a) - (1 / 8 - (1 / 192 - (1 / 640 - (17 / 14336 - 31 / 18432 * z)
                                                    * z) * z) * z) / a


def _bfrac(a: float, b: float, x: float, y: float) -> float:
    """f with I_x(a, b) = x^a y^b / (B(a, b) f), by modified Lentz on the
    even part of the continued fraction (BFRAC; Boost's ibeta_fraction2)."""
    lam1 = a * y - b * x + 1.0
    f = c = a * lam1 / (a + 1.0)
    d = 0.0
    for m in range(1, _MAX_TERMS):
        k = a + 2 * m - 1.0
        mb = m * (b - m)
        num = (a + m - 1.0) * (a + b + m - 1.0) * mb * x * x / (k * k)
        den = m + mb * x / k + (a + m) * (lam1 + m * (1.0 + y)) / (k + 2.0)
        d = 1.0 / (den + num * d)
        c = den + num / c
        step = c * d
        f *= step
        if abs(step - 1.0) <= _EPS:
            return f
    raise ArithmeticError("Student t tail continued fraction did not converge")


def _student_t_two_sided(t: float, dof: int) -> float:
    """2 P(T > |t|) for Student's t with dof degrees of freedom; nan for
    a nan t."""
    s = t * t / dof
    if s != s:
        return s
    if s == 0:
        return 1.0
    a = 0.5 * dof
    if s < math.inf:
        log_x = -math.log1p(s)
        log_y = math.log(s) + log_x
        x, y = 1.0 / (1.0 + s), s / (1.0 + s)
    else:  # t * t overflows: x = dof / t^2 is negligible beside 1 except in x^a
        log_x, log_y, x, y = math.log(dof) - 2.0 * math.log(abs(t)), 0.0, 0.0, 1.0
    front = math.exp(a * log_x + 0.5 * log_y + _log_gamma_ratio(a) - 0.5 * math.log(math.pi))
    if t * t >= 2.0:
        return front / _bfrac(a, 0.5, x, y)
    return 1.0 - front / _bfrac(0.5, a, y, x)


def ols(y, X, intercept: bool = True) -> RegressionResult:
    """Least squares with classical standard errors.

    X is a sequence of regressor vectors. The intercept column, when
    requested, is appended last so coefficient order matches the
    regressor list. R-squared is centered when an intercept is included
    and uncentered otherwise. P-values are two-sided, from Student's t
    with n - k degrees of freedom. Raises DegenerateInput at a non-finite
    response or regressor value, and Collinear when the design matrix
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
    if not (np.isfinite(y).all() and np.isfinite(design).all()):
        raise DegenerateInput("response and regressors must be finite")
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

    # An exact fit (se 0) gives p 0 for a nonzero coefficient, 1 for a zero one.
    p = np.array([float(b == 0) if e == 0 else _student_t_two_sided(b / e, dof)
                  for b, e in zip(beta.tolist(), se.tolist())])

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


def rank_transform(v) -> np.ndarray:
    """Average ranks of v in the paper's reversed-rank convention: the
    largest value gets the largest rank number (so the most diversified
    of 160 countries gets rank 160).
    """
    v = np.asarray(v, dtype=float)
    if v.size < 1:
        raise ValueError("empty vector")
    return _average_ranks(v)


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
    eci, dlogd_norm and fitness. A fit or correlation whose input is
    missing, and a missing input's design vector, are None. So is one
    that raised EcomplexError, which ``errors`` keeps under its name.
    """

    join: JoinReport
    rank_rank: dict | None = field(repr=False)
    log_log: dict | None = field(repr=False)
    eci_on_tdi: dict | None = field(repr=False)
    fitness_on_dlogd: dict | None = field(repr=False)
    spearman_gdp_d: CorrelationResult | None
    product_spearman: dict = field(repr=False)
    rent_offset: float
    design: dict = field(repr=False)
    errors: dict = field(repr=False)


def _both_variants(y, X, benchmark=None) -> dict | None:
    """Fit with and without intercept; optionally flag the variant whose
    slope vector sits closer to a benchmark. None when an input is None."""
    if y is None or any(x is None for x in X):
        return None
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
    product_metrics: ProductMetrics,
) -> RegressionReport:
    """Run the full validation battery on one matrix and income panel.

    Country-side regressions run on the joined sample: reversed-rank GDP
    on reversed-rank diversification and rents, log GDP on log
    diversification and log(rents + delta) with delta the smallest
    positive rent, ECI on TDI, and fitness on d log d / <d log d>. Each
    comes in with- and without-intercept variants. The product-side rank
    correlations (TSI vs PCI, TSI vs Q, PCI vs Q) use the supplied
    product metrics. A failed metric family (a None field) makes every
    fit or correlation on it None; TDI fails only when d has no spread,
    and then the fits and the GDP correlation on d are None too. A fit or
    correlation that raises EcomplexError itself, for example on too few
    joined countries, is None and its error is kept in ``errors``; only
    an empty join (JoinEmpty) stops the battery.
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
    on_d = metrics.tdi is not None

    def joined(v):
        return None if v is None else v[m_idx]

    design = {
        "rank_gdp": rank_transform(gdp),
        "rank_d": rank_transform(d) if on_d else None,
        "rank_rents": rank_transform(rents),
        "log_gdp": np.log(gdp),
        "log_d": np.log(d) if on_d else None,
        "log_rents_offset": np.log(rents + delta),
        "tdi": joined(metrics.tdi),
        "eci": joined(metrics.eci),
        "dlogd_norm": dlogd if on_d else None,
        "fitness": joined(metrics.fitness),
    }
    errors: dict = {}
    fits = {
        "rank_rank": ("rank_gdp", ["rank_d", "rank_rents"], BENCHMARK_RANK_COEFS),
        "log_log": ("log_gdp", ["log_d", "log_rents_offset"], BENCHMARK_LOG_COEFS),
        "eci_on_tdi": ("eci", ["tdi"], None),
        "fitness_on_dlogd": ("fitness", ["dlogd_norm"], None),
    }
    for name, (y, xs, benchmark) in fits.items():
        fits[name] = _attempt(errors, name, lambda: _both_variants(
            design[y], [design[x] for x in xs], benchmark))
    sp = _attempt(errors, "spearman_gdp_d", lambda: spearman(gdp, d)) if on_d else None

    tsi, pci, q = product_metrics.tsi, product_metrics.pci, product_metrics.q
    prod = {name: _attempt(errors, name, lambda: spearman(a, b))
            if a is not None and b is not None else None
            for name, a, b in (("tsi_pci", tsi, pci), ("tsi_q", tsi, q), ("pci_q", pci, q))}

    return RegressionReport(
        join=report,
        **fits,
        spearman_gdp_d=sp,
        product_spearman=prod,
        rent_offset=delta,
        design=design,
        errors=errors,
    )

