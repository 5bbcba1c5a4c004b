import math
from itertools import combinations

import numpy as np
import pytest
from conftest import entries, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ecomplex import (
    DegenerateInput,
    InfeasibleEnumeration,
    ModelParams,
    SophisticationDistribution,
    conditional_distribution,
    estimate_tau,
    expected_diversification,
    simulate_world,
    world_distribution,
)
from ecomplex.model import _ks_distances, _world_grid


class TestParams:
    def test_validation(self):
        ModelParams(tau=0.07, K=221)
        ModelParams(tau=1.0, K=0)  # deterministic limit is admitted
        with pytest.raises(ValueError):
            ModelParams(tau=0.0, K=3)
        with pytest.raises(ValueError):
            ModelParams(tau=1.5, K=3)
        with pytest.raises(ValueError):
            ModelParams(tau=0.5, K=-1)


class TestClosedForms:
    def test_expected_diversification_base(self):
        assert expected_diversification(ModelParams(tau=0.3, K=5), 0) == 1.0
        assert expected_diversification(ModelParams(tau=1.0, K=3), 3) == 8.0

    def test_expected_diversification_binomial_sum(self):
        p = ModelParams(tau=0.07, K=10)
        total = sum(math.comb(10, s) * 0.07 ** s for s in range(11))
        assert_allclose(expected_diversification(p, 10), total, rtol=1e-12)

    def test_binomial_sum_identity_grid(self):
        # sum_s C(k,s) tau^s == (1+tau)^k across the full parameter grid
        for tau in (0.01, 0.07, 0.5, 0.99):
            p = ModelParams(tau=tau, K=50)
            for k in range(51):
                total = sum(math.comb(k, s) * tau ** s for s in range(k + 1))
                assert_allclose(expected_diversification(p, k), total, rtol=1e-12)

    def test_conditional_distribution_base(self):
        assert_allclose(conditional_distribution(ModelParams(tau=0.3, K=4), 0), [1.0])

    def test_conditional_zero_term(self):
        for tau in (0.07, 0.5):
            p = ModelParams(tau=tau, K=30)
            for k in (1, 7, 30):
                assert_allclose(conditional_distribution(p, k)[0],
                                (1 + tau) ** (-k), rtol=1e-12)

    def test_conditional_matches_subset_enumeration(self):
        # weight every one of the 2^10 tech subsets by tau^|subset|
        tau, k = 0.07, 10
        weights = np.zeros(k + 1)
        for size in range(k + 1):
            count = sum(1 for _ in combinations(range(k), size))
            weights[size] = count * tau ** size
        oracle = weights / weights.sum()
        got = conditional_distribution(ModelParams(tau=tau, K=10), k)
        assert_allclose(got, oracle, rtol=1e-12)

    def test_conditional_sums_to_one(self):
        for tau in (0.01, 0.07, 0.5, 0.99):
            p = ModelParams(tau=tau, K=50)
            for k in (0, 1, 13, 50):
                assert abs(conditional_distribution(p, k).sum() - 1) < 1e-12

    def test_expected_sophistication_is_first_moment(self):
        for tau in (0.01, 0.07, 0.5, 0.99):
            p = ModelParams(tau=tau, K=50)
            for k in (1, 9, 28, 50):
                dist = conditional_distribution(p, k)
                moment = float((np.arange(k + 1) * dist).sum())
                assert_allclose(moment, tau * k / (1 + tau), rtol=1e-12, atol=1e-12)

    def test_expected_sophistication_linear_in_k(self):
        tau = 0.23
        p = ModelParams(tau=tau, K=40)
        moments = [float((np.arange(k + 1) * conditional_distribution(p, k)).sum())
                   for k in (10, 20)]
        assert_allclose(moments, [tau * 10 / (1 + tau), tau * 20 / (1 + tau)], rtol=1e-12)
        assert_allclose(moments[1], 2 * moments[0], rtol=1e-12)


def test_hockey_stick_identity_exact():
    for K in (5, 17, 33, 60):
        for s in range(K + 1):
            lhs = sum(math.comb(k, s) for k in range(s, K + 1))
            assert lhs == math.comb(K + 1, s + 1)


class TestWorldDistribution:
    def test_normalized_at_headline_params(self):
        dist = world_distribution(ModelParams(tau=0.07, K=221))
        assert abs(dist.probabilities.sum() - 1) < 1e-12
        assert np.all(dist.probabilities >= 0)

    def test_single_tech_limit(self):
        dist = world_distribution(ModelParams(tau=0.4, K=0))
        assert_allclose(dist.probabilities, [1.0])

    def test_matches_double_sum(self):
        # p(s) proportional to sum_k C(k,s) tau^s, normalized by
        # sum_k over all conditional masses
        for tau in (0.07, 0.3):
            for K in (12, 40, 60):
                raw = np.array(
                    [
                        sum(math.comb(k, s) * tau ** s for k in range(K + 1))
                        for s in range(K + 1)
                    ]
                )
                oracle = raw / raw.sum()
                got = world_distribution(ModelParams(tau=tau, K=K)).probabilities
                assert_allclose(got, oracle, rtol=1e-10)

    def test_exponential_regime_strictly_decreasing(self):
        K = 221
        dist = world_distribution(ModelParams(tau=1.0 / K, K=K))
        # deep tail underflows to exactly zero; the decay is strict before that
        positive = dist.probabilities[dist.probabilities > 0]
        assert positive.size > 10
        assert np.all(np.diff(positive) < 0)

    def test_interior_mode_when_tau_large(self):
        dist = world_distribution(ModelParams(tau=0.07, K=221))
        mode = int(np.argmax(dist.probabilities))
        assert 0 < mode < 221
        # the ratio p(s+1)/p(s) = tau (K - s) / (s + 2) pins the mode
        assert mode == 13

    def test_moments_consistent(self):
        dist = world_distribution(ModelParams(tau=0.07, K=221))
        s = dist.support
        assert_allclose(dist.mean, float((s * dist.probabilities).sum()))
        var = float(((s - dist.mean) ** 2 * dist.probabilities).sum())
        assert_allclose(dist.std, math.sqrt(var))

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            SophisticationDistribution(np.array([0.5, 0.4]), mean=0.0, std=1.0)
        with pytest.raises(ValueError):
            SophisticationDistribution(np.array([1.5, -0.5]), mean=0.0, std=1.0)


@pytest.mark.parametrize("K", [12, 59, 221, 500])
@pytest.mark.parametrize("tau", [1e-6, 1e-3, 0.07, 0.5, 1.0])
def test_distributions_match_exact_rationals(K, tau):
    """Both distributions against exact rational arithmetic on tau's binary
    value: relative error at most 1e-15 wherever the exact probability is a
    normal float. At K=59, tau=1e-6 the terms tau^s of the upper tail fall
    below the normal range, so rounding tau^s alone cannot meet this."""
    a, b = tau.as_integer_ratio()
    params = ModelParams(tau=tau, K=K)
    cases = (
        (world_distribution(params).probabilities,
         [math.comb(K + 1, j) * a ** j * b ** (K + 1 - j) for j in range(1, K + 2)]),
        (conditional_distribution(params, K),
         [math.comb(K, j) * a ** j * b ** (K - j) for j in range(K + 1)]),
    )
    for got, weights in cases:
        total = sum(weights)
        checked = 0
        for g, w in zip(got.tolist(), weights):
            if w << 1022 < total:  # exact value below 2^-1022, the smallest normal
                continue
            num, den = g.as_integer_ratio()
            assert 10 ** 15 * abs(num * total - w * den) <= w * den, (g, w / total)
            checked += 1
        assert checked > 10


def top_techs(world) -> np.ndarray:
    """Each product's highest tech, read from its label p<hex mask> (bit b
    is tech b+1), a source independent of the matrix."""
    return np.array([int(lab[1:], 16).bit_length() for lab in world.matrix.product_labels])


class TestSimulator:
    def test_tau_one_makes_every_subset(self):
        w = simulate_world(ModelParams(tau=1.0, K=3), "exact", seed=0)
        assert list(w.matrix.diversification) == [1, 2, 4, 8]
        assert w.matrix.n_products == 8

    def test_ubiquity_follows_nesting(self):
        w = simulate_world(ModelParams(tau=0.3, K=12), "exact", seed=77)
        K = 12
        tops = top_techs(w)
        assert np.array_equal(w.matrix.ubiquity, K + 1 - tops)
        # country k's endowment covers a product iff its top tech fits
        dense = w.matrix.to_dense()
        for j, top in enumerate(tops):
            assert np.array_equal(dense[:, j], (np.arange(K + 1) >= top))

    def test_empty_set_always_coherent(self):
        for seed in range(5):
            w = simulate_world(ModelParams(tau=0.05, K=8), "exact", seed=seed)
            assert w.product_sophistication[0] == 0
            assert w.matrix.ubiquity[0] == 9

    def test_deterministic_per_seed(self):
        a = simulate_world(ModelParams(tau=0.3, K=10), "exact", seed=123)
        b = simulate_world(ModelParams(tau=0.3, K=10), "exact", seed=123)
        assert entries(a.matrix) == entries(b.matrix)
        assert a.matrix.product_labels == b.matrix.product_labels
        c = simulate_world(ModelParams(tau=0.3, K=10), "exact", seed=124)
        assert entries(c.matrix) != entries(a.matrix)

    def test_exact_mode_bounded(self):
        with pytest.raises(InfeasibleEnumeration):
            simulate_world(ModelParams(tau=0.1, K=21), "exact", seed=0)

    def test_mc_needs_samples(self):
        with pytest.raises(ValueError):
            simulate_world(ModelParams(tau=0.1, K=50), "mc", seed=0)
        with pytest.raises(ValueError, match="unknown mode 'monte_carlo'"):
            simulate_world(ModelParams(tau=0.1, K=50), "monte_carlo", samples=5, seed=0)

    def test_mc_deterministic_and_consistent(self):
        params = ModelParams(tau=0.07, K=100)
        a = simulate_world(params, "mc", samples=500, seed=3)
        b = simulate_world(params, "mc", samples=500, seed=3)
        assert entries(a.matrix) == entries(b.matrix)
        assert np.array_equal(a.matrix.ubiquity, 101 - top_techs(a))
        pop = [bin(int(lab[1:], 16)).count("1") for lab in a.matrix.product_labels]
        assert pop == list(a.product_sophistication)

    def test_mc_world_holds_no_row_array(self):
        """The world is built as row offsets plus columns: no entry-sized
        row array sits next to the columns at the peak."""
        params = ModelParams(tau=0.07, K=221)
        worlds = []
        peak = traced_peak(lambda: worlds.append(simulate_world(params, "mc", samples=20_000,
                                                                seed=1)))
        m = worlds[0].matrix
        assert m.offsets.shape == (m.n_countries + 1,) and m.offsets[-1] == m.n_entries
        # about 1.75x 8 bytes per entry; 2.7x when the labels were cut from one hex text of
        # every product, 3.5x with intp columns and the subset bit block held through the
        # build, 4.5x when the builder repeated each country's index per entry
        assert peak < 2.0 * 8 * m.n_entries

    def test_mean_diversification_tracks_closed_form(self):
        params = ModelParams(tau=0.3, K=8)
        reps = 400
        acc = np.zeros((reps, 9))
        for seed in range(reps):
            acc[seed] = simulate_world(params, "exact", seed=seed).matrix.diversification
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / math.sqrt(reps)
        expect = 1.3 ** np.arange(9)
        assert mean[0] == 1.0
        z = np.abs(mean[1:] - expect[1:]) / se[1:]
        assert z.max() < 4  # generous; the acceptance gate uses 3 with more seeds

    def test_sophistication_countings(self):
        w = simulate_world(ModelParams(tau=0.4, K=6), "exact", seed=5)
        pool = w.sophistication_counts("pool")
        per_country = w.sophistication_counts("per_country")
        assert pool.sum() == w.matrix.n_products
        assert per_country.sum() == w.matrix.n_entries
        for s in range(7):
            sel = w.product_sophistication == s
            assert pool[s] == sel.sum()
            assert per_country[s] == w.matrix.ubiquity[sel].sum()
        with pytest.raises(ValueError):
            w.sophistication_counts("nope")


class TestEstimateTau:
    def test_self_consistency_headline(self):
        dist = world_distribution(ModelParams(tau=0.07, K=221))
        rng = np.random.default_rng(8)
        draws = rng.choice(dist.support, p=dist.probabilities, size=15000)
        values = (draws - dist.mean) / dist.std
        tau_hat, ks = estimate_tau(values, 221)
        assert abs(tau_hat - 0.07) <= 0.01
        assert ks < 0.05

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateInput):
            estimate_tau(np.zeros(100), 221)

    def test_bad_K(self):
        with pytest.raises(ValueError):
            estimate_tau(np.random.default_rng(0).normal(size=50), 0)


def _hockey_top_pmf(K: int, s: int) -> np.ndarray:
    """P(top = t | s) = C(t-1, s-1) / C(K, s) for t = 1..K."""
    return np.array([math.comb(t - 1, s - 1) for t in range(1, K + 1)]) / math.comb(K, s)


def _chi2_within(observed, expected, z=5.0) -> bool:
    """Pearson chi-square after lumping bins with expected count < 5,
    against a generous normal bound dof + z * sqrt(2 dof)."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    big = expected >= 5
    obs = np.append(observed[big], observed[~big].sum())
    exp = np.append(expected[big], expected[~big].sum())
    keep = exp > 0
    obs, exp = obs[keep], exp[keep]
    dof = max(len(obs) - 1, 1)
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat < dof + z * math.sqrt(2 * dof)


class TestMonteCarloLaw:
    """The MC world's products follow P(T) proportional to tau^|T|: sizes
    are Binomial(K, tau/(1+tau)) and, given its size, a set is uniform."""

    K, TAU, SAMPLES = 40, 0.2, 20000

    @pytest.fixture(scope="class", params=[0, 1, 2])
    def world(self, request):
        params = ModelParams(tau=self.TAU, K=self.K)
        return simulate_world(params, "mc", samples=self.SAMPLES, seed=request.param)

    def test_size_histogram_is_binomial(self, world):
        K, N = self.K, self.SAMPLES
        q = self.TAU / (1 + self.TAU)
        s = np.arange(K + 1)
        p = np.array([math.comb(K, k) * q ** k * (1 - q) ** (K - k) for k in s])
        # Where a given set is expected to be drawn at most 1e-3 times,
        # merging duplicates removes a negligible share of the draws.
        rare = N * p / np.array([math.comb(K, k) for k in s]) <= 1e-3
        assert rare.sum() >= 10
        counts = world.sophistication_counts("pool")
        assert _chi2_within(counts[rare], N * p[rare])

    def test_each_tech_included_at_rate_s_over_K(self, world):
        K = self.K
        masks = [int(lab[1:], 16) for lab in world.matrix.product_labels]
        bits = np.array([[(mk >> t) & 1 for t in range(K)] for mk in masks])
        sizes = world.product_sophistication
        assert np.array_equal(bits.sum(axis=1), sizes)
        for s in range(1, K + 1):
            sel = sizes == s
            if sel.sum() < 50:
                continue
            observed = bits[sel].sum(axis=0)
            assert _chi2_within(observed, np.full(K, sel.sum() * s / K)), s

    def test_top_tech_law_given_size(self, world):
        K = self.K
        sizes, tops = world.product_sophistication, top_techs(world)
        assert np.all(tops[sizes == 0] == 0)
        tested = 0
        for s in range(1, K + 1):
            sel = sizes == s
            if sel.sum() < 100:
                continue
            observed = np.bincount(tops[sel] - 1, minlength=K)
            assert _chi2_within(observed, sel.sum() * _hockey_top_pmf(K, s)), s
            tested += 1
        assert tested >= 5


class TestUbiquityLaw:
    """Under nesting a product's ubiquity is u = K + 1 - top tech, and the
    top tech is at most m with probability (1+tau)^-(K-m), in both modes;
    so P(u >= v) = (1+tau)^-(v-1) for v = 1..K+1, a geometric law
    truncated at K + 1. The empirical survival of u stays within 2/sqrt(n)
    of it: by the DKW inequality a sup deviation that large has
    probability below 2 exp(-8) for n independent products."""

    @staticmethod
    def max_deviation(world, tau: float, K: int) -> tuple[float, int]:
        u = world.matrix.ubiquity
        v = np.arange(1, K + 2)
        survival = (u[:, None] >= v).mean(axis=0)
        return float(np.abs(survival - (1 + tau) ** -(v - 1.0)).max()), u.size

    @pytest.mark.parametrize("tau", [0.07, 0.15])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mc_world(self, tau, seed):
        world = simulate_world(ModelParams(tau=tau, K=221), "mc", samples=20_000, seed=seed)
        deviation, n = self.max_deviation(world, tau, 221)
        assert n == 20_000  # no draw merged: the law holds for every product
        assert deviation < 2 / math.sqrt(n)  # 0.0028-0.0053 against 0.0141

    def test_exact_world(self):
        world = simulate_world(ModelParams(tau=0.5, K=18), "exact", seed=2)
        deviation, n = self.max_deviation(world, 0.5, 18)
        assert n == 1469
        assert deviation < 2 / math.sqrt(n)  # 0.0149 against 0.0522


def _reference_ks(model_x, model_p, sample):
    """The KS distance evaluated on the full merged grid, as a direct
    transcription of its definition."""
    grid = np.unique(np.concatenate([model_x, sample]))
    pos = np.searchsorted(model_x, grid, side="right")
    model_cdf = np.where(pos == 0, 0.0, np.cumsum(model_p)[pos - 1])
    emp_cdf = np.searchsorted(np.sort(sample), grid, side="right") / len(sample)
    d_at = np.abs(model_cdf - emp_cdf)
    d_left = np.abs(np.concatenate([[0.0], model_cdf[:-1]])
                    - np.concatenate([[0.0], emp_cdf[:-1]]))
    return float(max(d_at.max(), d_left.max()))


def _brute_force_ks(model_x, model_p, sample):
    """The KS distance from its definition: both CDFs, and their left
    limits, at every jump point of either, one point at a time."""
    cdf = np.cumsum(model_p)

    def model(t, left):
        k = int(np.sum(model_x < t if left else model_x <= t))
        return cdf[k - 1] if k else 0.0

    def empirical(t, left):
        return np.sum(sample < t if left else sample <= t) / len(sample)

    return max(abs(model(t, left) - empirical(t, left))
               for t in np.concatenate([model_x, sample]) for left in (False, True))


@st.composite
def _ks_cases(draw):
    """Grid rows of the world distribution and a sample that may sit on
    their atoms, below the first and above the last. Rows scaled to half
    their mass are the ones where the gap past the last atom counts."""
    K = draw(st.integers(1, 30))
    steps = draw(st.lists(st.integers(1, 500), min_size=1, max_size=4, unique=True))
    p, mean, std = _world_grid(K, np.array(sorted(steps)) / 1000.0)
    p = p * draw(st.sampled_from([1.0, 0.5]))
    x = (np.arange(K + 1) - mean[:, None]) / std[:, None]
    edges = [*(x[:, 0] - 1.0), *np.nextafter(x[:, 0], -np.inf),
             *np.nextafter(x[:, -1], np.inf), *(x[:, -1] + 1.0)]
    value = st.one_of(st.sampled_from(x.ravel().tolist()), st.sampled_from(edges),
                      st.floats(-20.0, 20.0))
    sample = np.sort(np.array(draw(st.lists(value, min_size=1, max_size=50))))
    return x, p, sample


@settings(max_examples=300, deadline=None)
@given(_ks_cases())
def test_ks_distances_equal_brute_force(case):
    x, p, sample = case
    got = _ks_distances(x, p, sample)
    assert got.tolist() == [_brute_force_ks(xr, pr, sample) for xr, pr in zip(x, p)]  # bitwise


def _reference_estimate_tau(values, K):
    best_tau, best_d = None, None
    for step in range(1, 501):
        tau = step / 1000.0
        dist = world_distribution(ModelParams(tau=tau, K=K))
        d = _reference_ks(dist.standardized_support, dist.probabilities, values)
        if best_d is None or d < best_d:
            best_tau, best_d = tau, d
    return best_tau, best_d


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ties", [False, True])
def test_estimate_tau_equals_full_grid_reference(seed, ties):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(3, 60))
    n = int(rng.integers(2, 400))
    if ties:
        # atoms of a candidate distribution plus repeats: grid points shared
        # between sample and model, and repeated sample values
        tau = int(rng.integers(1, 501)) / 1000.0  # a grid candidate
        dist = world_distribution(ModelParams(tau=tau, K=K))
        values = rng.choice(dist.standardized_support[:6], size=n)
        values[0], values[1] = -1.0, 2.0
    else:
        values = rng.normal(size=n)
    got = estimate_tau(values, K)
    expected = _reference_estimate_tau(values, K)
    assert got[0] == expected[0]
    assert got[1] == expected[1]  # bitwise
