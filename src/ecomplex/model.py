"""Combinatorial model of productive knowhow.

A product is a raw material plus a set of s techs; such a set "makes
sense" (is coherent) with probability tau^s. A country endowed with k
techs can attempt every subset of its endowment, which gives the
closed-form results implemented here: expected diversification
(1+tau)^k, the binomial sophistication distribution within a country,
and the world-level sophistication distribution obtained by pooling
countries k = 0..K.

The simulator realizes the model with nested endowments (country k holds
techs theta_1..theta_k) and one world-level coherence coin per tech
subset, shared by all countries, so a coherent product is coherent
everywhere and ubiquity is a pure counting consequence of nesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DegenerateInput, InfeasibleEnumeration
from .matrix import BinaryMatrix

__all__ = [
    "ModelParams",
    "SophisticationDistribution",
    "SyntheticWorld",
    "coherence_prob",
    "expected_diversification",
    "conditional_distribution",
    "expected_sophistication",
    "world_distribution",
    "gaussian_binomial_approx",
    "simulate_world",
    "estimate_tau",
]

_EXACT_COMB_MAX = 60
_EXACT_ENUM_MAX_K = 20


@dataclass(frozen=True)
class ModelParams:
    """tau: per-tech coherence probability; K: maximum tech endowment.

    tau = 1 is admitted as the deterministic limit where every subset is
    coherent and diversification doubles per tech.
    """

    tau: float
    K: int

    def __post_init__(self):
        if not (0 < self.tau <= 1):
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        if self.K < 0 or int(self.K) != self.K:
            raise ValueError(f"K must be a non-negative integer, got {self.K}")


@dataclass(frozen=True)
class SophisticationDistribution:
    """Probability vector over sophistication s = 0..K with its moments."""

    probabilities: np.ndarray
    mean: float
    std: float

    def __post_init__(self):
        p = self.probabilities
        if np.any(p < 0):
            raise ValueError("negative probability")
        if abs(float(p.sum()) - 1.0) > 1e-12:
            raise ValueError("probabilities do not sum to 1")

    @property
    def support(self) -> np.ndarray:
        return np.arange(len(self.probabilities))

    @property
    def standardized_support(self) -> np.ndarray:
        """Support points shifted/scaled by the distribution's own moments."""
        if self.std == 0:
            raise DegenerateInput("distribution has zero variance")
        return (self.support - self.mean) / self.std

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probabilities)


def _binom_float(n: int, k) -> np.ndarray:
    """C(n, k) as floats from exact integers; callers keep n <= _EXACT_COMB_MAX."""
    return np.array([float(math.comb(n, int(x))) for x in np.atleast_1d(k)])


def coherence_prob(params: ModelParams, s: int) -> float:
    """Probability that a set of s techs forms a coherent product: tau^s."""
    if s < 0:
        raise ValueError("s must be non-negative")
    return params.tau ** s


def expected_diversification(params: ModelParams, k: int) -> float:
    """Expected number of coherent products for a k-tech country: (1+tau)^k."""
    if not (0 <= k <= params.K):
        raise ValueError(f"k must be in [0, {params.K}], got {k}")
    return (1.0 + params.tau) ** k


def conditional_distribution(params: ModelParams, k: int) -> np.ndarray:
    """p(s | k) for s = 0..k: sophistication of a k-tech country's products.

    Equals C(k,s) tau^s / (1+tau)^k, a Binomial(k, tau/(1+tau)) law.
    """
    if not (0 <= k <= params.K):
        raise ValueError(f"k must be in [0, {params.K}], got {k}")
    tau = params.tau
    s = np.arange(k + 1)
    if k <= _EXACT_COMB_MAX:
        return _binom_float(k, s) * tau ** s / (1.0 + tau) ** k
    logp = (
        gammaln(k + 1)
        - gammaln(s + 1)
        - gammaln(k - s + 1)
        + s * math.log(tau)
        - k * math.log1p(tau)
    )
    return np.exp(logp)


def expected_sophistication(params: ModelParams, k: int) -> float:
    """First moment of p(s|k): tau k / (1 + tau)."""
    if not (0 <= k <= params.K):
        raise ValueError(f"k must be in [0, {params.K}], got {k}")
    return params.tau * k / (1.0 + params.tau)


def world_distribution(params: ModelParams) -> SophisticationDistribution:
    """Sophistication across all products made worldwide, countries pooled.

    p(s) is proportional to tau^{s+1} C(K+1, s+1); the proportionality
    constant is [(1+tau)^{K+1} - 1]^{-1} in closed form, and dividing by
    the computed term sum realizes exactly that constant (the sum
    telescopes to (1+tau)^{K+1} - 1 by the hockey-stick identity) while
    keeping the vector normalized to machine precision. Terms are built
    in log space above the exact-combinatorics cutoff so C(222, .) never
    overflows.
    """
    K, tau = params.K, params.tau
    s = np.arange(K + 1)
    if K + 1 <= _EXACT_COMB_MAX:
        terms = _binom_float(K + 1, s + 1) * tau ** (s + 1)
    else:
        logt = (
            gammaln(K + 2)
            - gammaln(s + 2)
            - gammaln(K + 1 - s)
            + (s + 1) * math.log(tau)
        )
        logt -= logt.max()
        terms = np.exp(logt)
    p = terms / terms.sum()
    mean = float((s * p).sum())
    var = float(((s - mean) ** 2 * p).sum())
    return SophisticationDistribution(probabilities=p, mean=mean, std=math.sqrt(var))


def gaussian_binomial_approx(n: int, x: int) -> float:
    """De Moivre-Laplace approximation to C(n, x).

    Returns 2^n / sqrt(pi n / 2) * exp(-(x - n/2)^2 / (n/2)), evaluated
    through a single exp so that n up to a few thousand stays finite.
    Good near the central region, poor in the tails.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= x <= n):
        raise ValueError("x must be in [0, n]")
    log_val = (
        n * math.log(2.0)
        - 0.5 * math.log(math.pi * n / 2.0)
        - (x - n / 2.0) ** 2 / (n / 2.0)
    )
    return math.exp(log_val)


def _subset_tables(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All 2^K subset masks of techs theta_1..theta_K with their size and
    highest tech index."""
    masks = np.arange(1 << K, dtype=np.int64)
    byte_pop = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)
    pop = np.zeros(masks.shape, dtype=np.int64)
    shifted = masks.copy()
    for _ in range((K + 7) // 8):
        pop += byte_pop[shifted & 0xFF]
        shifted >>= 8
    # frexp exponent of an integer m > 0 is floor(log2 m) + 1, which is
    # exactly the 1-based index of the highest tech in the mask.
    _, maxidx = np.frexp(masks.astype(np.float64))
    return masks, pop, maxidx.astype(np.int64)


@dataclass(frozen=True)
class SyntheticWorld:
    """A realized world: the country-product matrix plus product metadata.

    Countries are k = 0..K with nested endowments. ``product_sophistication``
    is the tech-set size s of each product (matrix column order);
    ``product_max_tech`` is the highest tech index in the set, which under
    nesting determines ubiquity as K + 1 - max_tech.
    """

    params: ModelParams
    matrix: BinaryMatrix
    product_sophistication: np.ndarray = field(repr=False)
    product_max_tech: np.ndarray = field(repr=False)

    def sophistication_counts(self, counting: str = "pool") -> np.ndarray:
        """Histogram of product sophistication over s = 0..K.

        counting="pool" counts each distinct product once; "per_country"
        weights each product by its ubiquity, i.e. counts every
        (country, product) pair. The model's world-level distribution
        corresponds to the per-country counting (pooling what every
        country makes); both are exposed because the distinction matters
        when comparing to closed forms.
        """
        K = self.params.K
        if counting == "pool":
            weights = None
        elif counting == "per_country":
            weights = self.matrix.ubiquity
        else:
            raise ValueError("counting must be 'pool' or 'per_country'")
        return np.bincount(self.product_sophistication, weights=weights,
                           minlength=K + 1).astype(float)


def _build_world(params: ModelParams, s_arr, maxidx_arr, labels) -> SyntheticWorld:
    """Assemble the nested-endowment matrix from per-product metadata."""
    K = params.K
    n_products = len(s_arr)
    ubiq = (K + 1 - maxidx_arr).astype(np.intp)
    cols = np.repeat(np.arange(n_products, dtype=np.intp), ubiq)
    if n_products:
        rows = np.concatenate(
            [np.arange(t, K + 1, dtype=np.intp) for t in maxidx_arr]
        )
    else:
        rows = np.zeros(0, dtype=np.intp)
    matrix = BinaryMatrix(
        tuple(f"k{k}" for k in range(K + 1)),
        tuple(labels),
        rows,
        cols,
    )
    return SyntheticWorld(
        params=params,
        matrix=matrix,
        product_sophistication=np.asarray(s_arr, dtype=np.int64),
        product_max_tech=np.asarray(maxidx_arr, dtype=np.int64),
    )


def simulate_world(
    params: ModelParams,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
) -> SyntheticWorld:
    """Realize one synthetic world.

    exact mode flips one coherence coin per tech subset (2^K of them,
    feasible up to K = 20); the resulting products are every coherent
    subset. monte_carlo mode draws ``samples`` subsets from the
    coherence-weighted law P(T) proportional to tau^|T| by sampling the
    size s from Binomial(K, tau/(1+tau)) and then a uniform s-subset;
    that proposal IS the target, so draws need no reweighting. Duplicates
    are merged. Either way products are ordered by (s, mask) and the
    matrix follows from nested endowments. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    K = params.K
    if mode == "exact":
        if K > _EXACT_ENUM_MAX_K:
            raise InfeasibleEnumeration(
                f"exact mode enumerates 2^K subsets; K={K} exceeds {_EXACT_ENUM_MAX_K}"
            )
        masks, pop, maxidx = _subset_tables(K)
        keep = rng.random(len(masks)) < params.tau ** pop
        masks, pop, maxidx = masks[keep], pop[keep], maxidx[keep]
        order = np.lexsort((masks, pop))
        masks, pop, maxidx = masks[order], pop[order], maxidx[order]
        labels = [f"p{int(m):x}" for m in masks]
        return _build_world(params, pop, maxidx, labels)

    if mode in ("monte_carlo", "mc"):
        if samples is None or samples < 1:
            raise ValueError("monte_carlo mode needs samples >= 1")
        q = params.tau / (1.0 + params.tau)
        sizes = rng.binomial(K, q, size=samples)
        seen: dict[int, tuple[int, int]] = {}
        for s in sizes:
            if s == 0:
                mask, top = 0, 0
            else:
                idx = rng.choice(K, size=int(s), replace=False)
                mask = 0
                for i in idx:
                    mask |= 1 << int(i)
                top = int(idx.max()) + 1
            seen.setdefault(mask, (int(s), top))
        ordered = sorted(seen.items(), key=lambda kv: (kv[1][0], kv[0]))
        labels = [f"p{mask:x}" for mask, _ in ordered]
        s_arr = np.array([meta[0] for _, meta in ordered], dtype=np.int64)
        top_arr = np.array([meta[1] for _, meta in ordered], dtype=np.int64)
        return _build_world(params, s_arr, top_arr, labels)

    raise ValueError(f"unknown mode {mode!r}")


def _ks_distance(model_x: np.ndarray, model_p: np.ndarray,
                 sample: np.ndarray) -> float:
    """Sup-distance between a discrete CDF and an empirical CDF.

    Both are right-continuous step functions, so the supremum is attained
    at (or just before) a jump point of either; evaluating both CDFs on
    the merged grid and comparing values and left limits covers every
    case.
    """
    grid = np.unique(np.concatenate([model_x, sample]))
    model_cdf = np.cumsum(model_p)[np.searchsorted(model_x, grid, side="right") - 1]
    model_cdf = np.where(np.searchsorted(model_x, grid, side="right") == 0,
                         0.0, model_cdf)
    emp_cdf = np.searchsorted(np.sort(sample), grid, side="right") / len(sample)
    d_at = np.abs(model_cdf - emp_cdf)
    d_left = np.abs(np.concatenate([[0.0], model_cdf[:-1]])
                    - np.concatenate([[0.0], emp_cdf[:-1]]))
    return float(max(d_at.max(), d_left.max()))


def estimate_tau(tsi_values, K: int) -> tuple[float, float]:
    """Grid-search tau so the standardized world distribution matches the
    empirical distribution of the supplied standardized values.

    Each candidate's distribution is standardized by its own mean and
    std; the objective is the Kolmogorov-Smirnov distance to the
    empirical CDF. The grid is 0.001..0.500 in steps of 0.001 and ties
    resolve to the smallest tau.

    Identification leans on the discrete support geometry: a candidate's
    standardized atoms sit at (s - mean)/std, and only the right tau puts
    them where the data's mass is. Model-generated check data should
    therefore be standardized with the generating distribution's own
    moments (the transform the model itself predicts), not per-sample
    moments, or every candidate pays the atom-misalignment penalty.

    Raises DegenerateInput on non-finite input and on fewer than two or
    constant values.
    """
    tsi_values = np.asarray(tsi_values, dtype=float)
    if K < 1:
        raise ValueError("K must be >= 1")
    if not np.all(np.isfinite(tsi_values)):
        raise DegenerateInput("input values must be finite")
    if tsi_values.size < 2 or tsi_values.std() == 0:
        raise DegenerateInput("input values have zero variance")
    best_tau, best_d = None, None
    for step in range(1, 501):
        tau = step / 1000.0
        dist = world_distribution(ModelParams(tau=tau, K=K))
        x = dist.standardized_support
        d = _ks_distance(x, dist.probabilities, tsi_values)
        if best_d is None or d < best_d:
            best_tau, best_d = tau, d
    return best_tau, best_d
