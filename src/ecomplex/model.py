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
from itertools import pairwise

import numpy as np

from .errors import DegenerateInput, InfeasibleEnumeration
from .matrix import BinaryMatrix

__all__ = [
    "ModelParams",
    "SophisticationDistribution",
    "SyntheticWorld",
    "expected_diversification",
    "conditional_distribution",
    "world_distribution",
    "simulate_world",
    "estimate_tau",
]

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


# For m in [0.5, 1) and r < 1022, m**r >= 2**-1021 is a normal float.
_POW_SPLIT = 1022


def _binomial_terms(n: int, j: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """C(n, j) tau^j, one row per tau, each row scaled by one power of two
    so that its largest term lies in [1/8, 1).

    Every factor is carried as a mantissa in [0.5, 1) and an integer
    exponent. C(n, j) is rounded once from the exact integer, so no
    coefficient overflows. With tau = m 2^e and j = qB + r (B =
    _POW_SPLIT), m^j = (m^B)^q m^r, and each power is split again before
    the next product, so none underflows while q < B. A term is lost
    only where it is below 2^-1074 of its row's largest.
    """
    exact = [math.comb(n, x) for x in j.tolist()]
    c_mant = np.array([x / (1 << x.bit_length()) for x in exact])
    c_exp = np.array([x.bit_length() for x in exact])
    m, e = np.frexp(taus[:, None])
    q, r = np.divmod(j, _POW_SPLIT)
    r_mant, r_exp = np.frexp(m ** r)
    b_mant, b_exp = np.frexp(m ** _POW_SPLIT)
    q_mant, q_exp = np.frexp(b_mant ** np.arange(q.max() + 1))
    mant = c_mant * r_mant * q_mant[:, q]
    exp = c_exp + r_exp + q_exp[:, q] + b_exp * q + e * j
    return np.ldexp(mant, exp - exp.max(axis=1, keepdims=True))


def expected_diversification(params: ModelParams, k: int) -> float:
    """Expected number of coherent products for a k-tech country: (1+tau)^k."""
    if not (0 <= k <= params.K):
        raise ValueError(f"k must be in [0, {params.K}], got {k}")
    return (1.0 + params.tau) ** k


def conditional_distribution(params: ModelParams, k: int) -> np.ndarray:
    """p(s | k) for s = 0..k: sophistication of a k-tech country's products.

    Equals C(k,s) tau^s / (1+tau)^k, a Binomial(k, tau/(1+tau)) law. The
    terms are divided by their own sum, which is (1+tau)^k: raising the
    rounded 1+tau to the k-th power would multiply its rounding error by k.
    """
    if not (0 <= k <= params.K):
        raise ValueError(f"k must be in [0, {params.K}], got {k}")
    s = np.arange(k + 1)
    terms = _binomial_terms(k, s, np.array([params.tau]))[0]
    return terms / terms.sum()


def _world_grid(K: int, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The world distribution for every tau at once: probabilities (one
    row per tau), means and standard deviations. world_distribution is the
    one-row case, so each row of a grid equals it bit for bit."""
    s = np.arange(K + 1)
    terms = _binomial_terms(K + 1, s + 1, taus)
    p = terms / terms.sum(axis=1, keepdims=True)
    mean = (s * p).sum(axis=1)
    var = ((s - mean[:, None]) ** 2 * p).sum(axis=1)
    return p, mean, np.sqrt(var)


def world_distribution(params: ModelParams) -> SophisticationDistribution:
    """Sophistication across all products made worldwide, countries pooled.

    p(s) is proportional to tau^{s+1} C(K+1, s+1); the proportionality
    constant is [(1+tau)^{K+1} - 1]^{-1} in closed form, and dividing by
    the computed term sum realizes exactly that constant (the sum
    telescopes to (1+tau)^{K+1} - 1 by the hockey-stick identity) while
    keeping the vector normalized to machine precision.
    """
    p, mean, std = _world_grid(params.K, np.array([params.tau]))
    return SophisticationDistribution(probabilities=p[0], mean=float(mean[0]),
                                      std=float(std[0]))


@dataclass(frozen=True)
class SyntheticWorld:
    """A realized world: the country-product matrix plus product metadata.

    Countries are k = 0..K with nested endowments. ``product_sophistication``
    is the tech-set size s of each product (matrix column order).
    """

    params: ModelParams
    matrix: BinaryMatrix
    product_sophistication: np.ndarray = field(repr=False)

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
    """Assemble the nested-endowment matrix from per-product metadata:
    product j is made by countries maxidx_j..K."""
    K = params.K
    top = np.asarray(maxidx_arr)
    # row by row, so the entries come in the (i, j) order BinaryMatrix keeps
    # country k makes every product whose top is at most k
    row_sizes = np.cumsum(np.bincount(top, minlength=K + 1))
    offsets = np.concatenate([[0], np.cumsum(row_sizes)])
    cols = np.empty(offsets[-1], dtype=np.int32)
    for k, (start, stop) in enumerate(pairwise(offsets.tolist())):
        cols[start:stop] = np.flatnonzero(top <= k)
    offsets.flags.writeable = cols.flags.writeable = False  # handed over, so stored uncopied
    matrix = BinaryMatrix(tuple(f"k{k}" for k in range(K + 1)), tuple(labels), offsets, cols)
    return SyntheticWorld(
        params=params,
        matrix=matrix,
        product_sophistication=np.asarray(s_arr, dtype=np.int64),
    )


_LABEL_ROWS = 1 << 12  # subset rows formatted per block by _hex_labels


def _hex_labels(words: np.ndarray, rows: np.ndarray) -> list[str]:
    """Product labels "p<hex mask>" of the given rows of a subset bit block
    (word w holding techs 64w+1..64w+64, lowest word first), _LABEL_ROWS
    rows at a time, so no world-sized copy, bytes or hex text is held."""
    width, labels = 16 * words.shape[1], []
    for start in range(0, len(rows), _LABEL_ROWS):
        # highest word first and big-endian, so each row reads as its mask in hex
        text = words[rows[start:start + _LABEL_ROWS], ::-1].astype(">u8").tobytes().hex()
        labels += ["p" + (text[k:k + width].lstrip("0") or "0") for k in range(0, len(text), width)]
    return labels


def _distinct_products(words: np.ndarray, top: np.ndarray,
                       sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """The distinct subsets of a bit block (one row per subset, as
    _floyd_subsets gives it) ordered by (s, mask), with their highest
    tech and label: the (sizes, top, labels) that _build_world takes."""
    # lexsort's last key leads, then high word to low
    order = np.lexsort((*words.T, sizes))
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for word in words.T:  # a word at a time, so no sorted copy of the block is made
        ranked = word[order]
        first[1:] |= ranked[1:] != ranked[:-1]
    keep = order[first]
    return sizes[keep], top[keep], _hex_labels(words, keep)


def _floyd_subsets(rng: np.random.Generator, K: int,
                   sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One uniform sizes[i]-subset of the K techs per sample, all drawn at
    once by Floyd's algorithm (Bentley & Floyd, CACM 30, 1987).

    Floyd's step for j = K-s..K-1 draws t uniform on 0..j and adds t, or j
    when t is already held; step k runs it for every sample with s > k.
    Returns the subsets as a samples x ceil(K/64) uint64 bit block (bit b
    of word w is tech 64w+b+1) and each sample's highest tech (0 when
    empty).
    """
    words = np.zeros((len(sizes), max(1, -(-K // 64))), dtype=np.uint64)
    top = np.zeros(len(sizes), dtype=np.int64)
    for k in range(int(sizes.max(initial=0))):
        active = np.flatnonzero(sizes > k)
        j = K - sizes[active] + k
        t = rng.integers(0, j + 1)
        held = (words[active, t >> 6] >> (t & 63).astype(np.uint64)) & np.uint64(1)
        pick = np.where(held == 1, j, t)
        words[active, pick >> 6] |= np.uint64(1) << (pick & 63).astype(np.uint64)
        # j exceeds every tech held so far, so the newest pick may raise the top
        top[active] = np.maximum(top[active], pick + 1)
    return words, top


def simulate_world(
    params: ModelParams,
    mode: str = "exact",
    samples: int | None = None,
    seed: int = 0,
) -> SyntheticWorld:
    """Realize one synthetic world.

    exact mode flips one coherence coin per tech subset (2^K of them,
    feasible up to K = 20); the resulting products are every coherent
    subset. mc (Monte Carlo) mode draws ``samples`` subsets from the
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
        masks = np.arange(1 << K, dtype=np.uint64)
        sizes = np.bitwise_count(masks)
        keep = rng.random(len(masks)) < params.tau ** sizes
        masks, sizes = masks[keep], sizes[keep]
        # frexp's exponent of an integer m > 0 is floor(log2 m) + 1, which is
        # exactly the 1-based index of the highest tech in the mask
        _, top = np.frexp(masks.astype(np.float64))
        sizes, top, labels = _distinct_products(masks[:, None], top, sizes)
    elif mode == "mc":
        if samples is None or samples < 1:
            raise ValueError("mc mode needs samples >= 1")
        q = params.tau / (1.0 + params.tau)
        sizes = rng.binomial(K, q, size=samples)
        # the samples' bit block lives only in this call, and their sizes are
        # rebound, so neither is held while the matrix is built
        sizes, top, labels = _distinct_products(*_floyd_subsets(rng, K, sizes), sizes)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _build_world(params, sizes, top, labels)


def _ks_distances(model_x: np.ndarray, model_p: np.ndarray,
                  sample_sorted: np.ndarray) -> np.ndarray:
    """Sup-distance between each row's discrete CDF and an empirical CDF.

    The model CDF F_m is flat between two of its atoms x_{s-1} and x_s,
    while the empirical CDF F_e only rises there, so the largest gap on
    that step is at one of its ends: |F_m(x_s) - F_e(x_s)| or
    |F_m(x_{s-1}) - F_e(x_s-)|, with F_m(x_{-1}) = 0. Past the last atom
    F_e rises to 1, so the last gap is |F_m(x_K) - 1|.
    """
    n = len(sample_sorted)
    model_cdf = np.cumsum(model_p, axis=1)
    emp_at = np.searchsorted(sample_sorted, model_x, side="right") / n
    emp_below = np.searchsorted(sample_sorted, model_x, side="left") / n
    emp_below[:, 1:] -= model_cdf[:, :-1]  # |a - b| is |b - a| exactly
    return np.maximum.reduce([np.abs(model_cdf - emp_at).max(axis=1),
                              np.abs(emp_below).max(axis=1),
                              np.abs(model_cdf[:, -1] - 1.0)])


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
    taus = np.arange(1, 501) / 1000.0
    p, mean, std = _world_grid(K, taus)
    x = (np.arange(K + 1) - mean[:, None]) / std[:, None]
    d = _ks_distances(x, p, np.sort(tsi_values))
    best = int(np.argmin(d))  # the first minimum: ties resolve to the smallest tau
    return float(taus[best]), float(d[best])
