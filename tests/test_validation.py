import math

import numpy as np
import pytest
import scipy.stats
from conftest import SameHash
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ecomplex import (
    BinaryMatrix,
    Collinear,
    CountryMetrics,
    DegenerateInput,
    IncomePanel,
    JoinEmpty,
    compute_metrics,
    join_panel,
    ols,
    rank_transform,
    run_paper_regressions,
    spearman,
)
from ecomplex.validation import _student_t_two_sided


class TestSpearman:
    def test_monotone_transform_is_perfect(self):
        x = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
        r = spearman(x, np.exp(x))
        assert abs(r.statistic - 1.0) < 1e-12
        assert r.method == "spearman"
        assert r.n == 6

    def test_reversal_is_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert abs(spearman(x, -x).statistic + 1.0) < 1e-12

    def test_ties_use_average_ranks(self):
        # midranks make this 4.5 / sqrt(4.5 * 5) = 3 / sqrt(10)
        r = spearman([1.0, 2.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert_allclose(r.statistic, 3.0 / np.sqrt(10.0), rtol=1e-14)
        assert_allclose(r.statistic, 0.9486832980505138)

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateInput):
            spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_non_finite_input_rejected(self):
        """A NaN once made the statistic NaN, which the result rejected
        with a ValueError; it is degenerate input (exit 75)."""
        with pytest.raises(DegenerateInput, match="^correlation inputs must be finite$") as info:
            spearman([math.nan, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert info.value.exit_code == 75
        with pytest.raises(DegenerateInput):
            spearman([1.0, 2.0, 3.0, 4.0], [1.0, math.inf, 3.0, 4.0])

    def test_shape_errors(self):
        with pytest.raises(DegenerateInput, match="need at least 3 observations, got 2"):
            spearman([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=30, unique=True),
           st.permutations(range(4)))
    @settings(max_examples=25, deadline=None)
    def test_bounded_and_symmetric(self, xs, _):
        x = np.array(xs)
        rng = np.random.default_rng(len(xs))
        y = rng.permutation(x)
        if np.all(y == y[0]):
            return
        a = spearman(x, y).statistic
        b = spearman(y, x).statistic
        assert -1 - 1e-12 <= a <= 1 + 1e-12
        assert_allclose(a, b, rtol=1e-12, atol=1e-12)


class TestOls:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        res = ols(2.0 * x + 1.0, [x])
        assert_allclose(res.coefficients, [2.0, 1.0], rtol=1e-12)
        assert res.r_squared == 1.0
        # zero residual collapses the standard errors; slopes stay significant
        assert_allclose(res.standard_errors, [0.0, 0.0], atol=1e-10)
        assert res.p_values[0] < 1e-30

    def test_frozen_simple_regression(self):
        # cross-checked against the closed-form slope/intercept formulas
        res = ols([1.1, 1.9, 3.2, 3.8, 5.1], [[0.0, 1.0, 2.0, 3.0, 4.0]])
        assert_allclose(res.coefficients, [0.99, 1.04], rtol=1e-10)
        assert_allclose(res.standard_errors,
                        [0.0597215762238964, 0.14628738838327798], rtol=1e-10)
        assert_allclose(res.p_values,
                        [0.00047785755895127696, 0.0057265261986234675], rtol=1e-10)
        assert_allclose(res.r_squared, 0.9892006459426725, rtol=1e-10)
        assert res.intercept_included

    def test_orthogonal_regressor(self):
        x = np.array([1.0, -1.0, 1.0, -1.0])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        res = ols(y, [x])
        assert_allclose(res.coefficients, [0.0, 0.0], atol=1e-14)
        assert np.all(res.standard_errors > 0)
        assert_allclose(res.p_values, [1.0, 1.0])

    def test_uncentered_r2(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        res = ols(2.0 * x, [x], intercept=False)
        assert not res.intercept_included
        assert_allclose(res.coefficients, [2.0], rtol=1e-12)
        assert res.r_squared == 1.0

    def test_collinear_design(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(Collinear):
            ols([1.0, 2.0, 1.0, 2.0, 3.0], [x, x])
        with pytest.raises(Collinear):
            # constant regressor duplicates the intercept column
            ols([1.0, 2.0, 1.0, 2.0, 3.0], [[1.0] * 5])

    def test_non_finite_response_rejected(self):
        """A NaN response once gave NaN coefficients with r_squared 0.0."""
        with pytest.raises(DegenerateInput, match="^response and regressors must be finite$"):
            ols([1.0, math.nan, 3.0, 4.0, 5.0], [[1.0, 2.0, 3.0, 4.5, 5.0]])
        with pytest.raises(DegenerateInput):
            ols([1.0, -math.inf, 3.0, 4.0, 5.0], [[1.0, 2.0, 3.0, 4.5, 5.0]], intercept=False)

    def test_non_finite_regressor_rejected(self):
        """A NaN regressor once failed in the SVD of the condition number
        with numpy's LinAlgError."""
        with pytest.raises(DegenerateInput, match="^response and regressors must be finite$"):
            ols([1.0, 2.0, 3.0, 4.0, 5.0], [[1.0, 2.0, math.nan, 4.5, 5.0]])
        with pytest.raises(DegenerateInput):
            ols([1.0, 2.0, 3.0, 4.0, 5.0], [[1.0, 2.0, 3.0, 4.5, 5.0], [0.0, 1.0, 0.0, math.inf, 2.0]])

    def test_too_few_observations(self):
        with pytest.raises(DegenerateInput):
            ols([1.0, 2.0], [[1.0, 2.0]])

    def test_constant_response_rejected(self):
        with pytest.raises(DegenerateInput):
            ols([3.0, 3.0, 3.0, 3.0], [[1.0, 2.0, 3.0, 4.0]])

    def test_noiseless_multivariate_recovery(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 3))
        beta = np.array([1.5, -2.0, 0.25])
        y = X @ beta + 0.7
        res = ols(y, list(X.T))
        assert_allclose(res.coefficients, [1.5, -2.0, 0.25, 0.7], atol=1e-9)
        assert res.r_squared > 1 - 1e-12

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_normal_equations(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        X = rng.normal(size=(n, 2))
        y = X @ [1.0, -0.5] + rng.normal(size=n)
        try:
            res = ols(y, list(X.T))
        except Collinear:
            return
        design = np.column_stack([X, np.ones(n)])
        direct = np.linalg.solve(design.T @ design, design.T @ y)
        assert_allclose(res.coefficients, direct, rtol=1e-8, atol=1e-8)


    @pytest.mark.parametrize("seed", range(5))
    def test_p_values_equal_student_t(self, seed):
        rng = np.random.default_rng(seed)
        n = 8 + 5 * seed
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        y = 0.3 * x1 + rng.normal(size=n)
        for intercept in (True, False):
            res = ols(y, [x1, x2], intercept=intercept)
            dof = n - len(res.coefficients)
            t = res.coefficients / res.standard_errors
            assert_student_t_tail(res.p_values, 2.0 * scipy.stats.t.sf(np.abs(t), dof))


def assert_student_t_tail(p, expected):
    """p agrees with expected to 1e-12 relative where expected >= 1e-290,
    and to 1e-300 absolute below that."""
    p, expected = np.asarray(p), np.asarray(expected)
    normal = expected >= 1e-290
    assert_allclose(p[normal], expected[normal], rtol=1e-12, atol=0)
    assert_allclose(p[~normal], expected[~normal], rtol=0, atol=1e-300)


class TestStudentTail:
    """The two-sided Student t p-value of ols, against scipy as an oracle
    and against the closed forms for 1 and 2 degrees of freedom."""

    T = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 801)])
    DOFS = [*range(1, 61), 100, 227, 228, 1000, 10 ** 4, 10 ** 6]

    @staticmethod
    def tail(ts, dof):
        return np.array([_student_t_two_sided(t, dof) for t in ts.tolist()])

    @pytest.mark.parametrize("dof", DOFS[1:])
    def test_matches_scipy(self, dof):
        # dof 1 is checked against its closed form below: there scipy 1.17's
        # t.sf is off by up to 3.1e-9 (at |t| = 1e-8, against atan and mpmath)
        assert_student_t_tail(self.tail(self.T, dof), 2.0 * scipy.stats.t.sf(self.T, dof))

    def test_one_degree_of_freedom_is_cauchy(self):
        t = self.T[1:]
        assert_student_t_tail(self.tail(t, 1), 2.0 / np.pi * np.arctan(1.0 / t))

    def test_two_degrees_of_freedom(self):
        t = self.T[1:]
        r = np.sqrt(2.0 + t * t)
        # 1 - t / r, without the cancellation at large t
        assert_student_t_tail(self.tail(t, 2), 2.0 / (r * (r + t)))

    @pytest.mark.parametrize("dof", DOFS)
    def test_a_probability_falling_in_abs_t(self, dof):
        p = self.tail(self.T, dof)
        assert p[0] == 1.0
        assert np.all((0.0 <= p) & (p <= 1.0))
        assert np.all(np.diff(p) <= 0.0)
        assert _student_t_two_sided(math.inf, dof) == 0.0
        assert np.array_equal(self.tail(-self.T, dof), p)


class TestRankTransform:
    def test_plain(self):
        assert_allclose(rank_transform([10.0, 30.0, 20.0]), [1.0, 3.0, 2.0])

    def test_ties(self):
        assert_allclose(rank_transform([5.0, 5.0, 7.0]), [1.5, 1.5, 3.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_transform([])


class TestJoinPanel:
    @staticmethod
    def _matrix(labels):
        dense = np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
        return BinaryMatrix.from_dense(dense, country_labels=labels)

    def test_partial_overlap(self):
        m = self._matrix(("FRA", "USA", "NER"))
        panel = IncomePanel(("USA", "DEU", "NER"),
                            np.array([50000.0, 45000.0, 900.0]),
                            np.array([1.0, 0.5, 12.0]))
        m_idx, p_idx, report = join_panel(m, panel)
        assert report.matched == ("NER", "USA")
        assert report.unmatched_matrix == ("FRA",)
        assert report.unmatched_panel == ("DEU",)
        assert [m.country_labels[i] for i in m_idx] == ["NER", "USA"]
        assert [panel.country_labels[i] for i in p_idx] == ["NER", "USA"]

    def test_disjoint_raises(self):
        m = self._matrix(("A", "B", "C"))
        panel = IncomePanel(("X",), np.array([1.0]), np.array([0.0]))
        with pytest.raises(JoinEmpty):
            join_panel(m, panel)

    def test_panel_validation(self):
        with pytest.raises(ValueError):
            IncomePanel(("A", "A"), np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            IncomePanel(("A", "B"), np.array([1.0, -2.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            IncomePanel(("A", "B"), np.array([1.0, 2.0]), np.array([0.0, -0.1]))

    def test_panel_labels_checked_by_the_matrix_rule(self):
        """Distinct labels that share a hash are kept; a repeat is not."""
        labels = tuple(map(SameHash, "ABC"))
        assert IncomePanel(labels, np.ones(3), np.zeros(3)).country_labels == labels
        with pytest.raises(ValueError, match="^duplicate country labels$"):
            IncomePanel(labels + (SameHash("B"),), np.ones(4), np.zeros(4))

    @pytest.mark.parametrize("gdp, rents", [
        ([1.0, np.nan], [0.0, 0.0]),
        ([1.0, 2.0], [np.nan, 0.0]),
        ([np.inf, 2.0], [0.0, 0.0]),
        ([1.0, 2.0], [0.0, np.inf]),
    ])
    def test_panel_rejects_non_finite(self, gdp, rents):
        with pytest.raises(ValueError):
            IncomePanel(("A", "B"), np.array(gdp), np.array(rents))


class TestRegressionBattery:
    @staticmethod
    def _setup():
        rng = np.random.default_rng(20260821)
        while True:
            dense = (rng.random((8, 12)) < 0.45).astype(np.int8)
            m = BinaryMatrix.from_dense(dense)
            d = m.diversification
            u = m.ubiquity
            if d.min() >= 2 and u.min() >= 2 and len(set(d)) > 2:
                try:
                    metrics, product_metrics, _, _ = compute_metrics(m)
                except Exception:
                    continue
                break
        gdp = 100.0 * 2.0 ** m.diversification.astype(float)
        rents = rng.uniform(0.0, 10.0, size=8)
        rents[0] = 0.0
        panel = IncomePanel(m.country_labels, gdp, rents)
        return m, panel, metrics, product_metrics

    def test_monotone_income_gives_perfect_rank_stats(self):
        m, panel, metrics, product_metrics = self._setup()
        report = run_paper_regressions(m, panel, metrics, product_metrics)
        assert abs(report.spearman_gdp_d.statistic - 1.0) < 1e-12
        assert report.join.matched == tuple(sorted(m.country_labels))
        assert report.join.unmatched_matrix == ()
        # gdp ranks reproduce diversification ranks exactly, so the
        # rank-rank fit with intercept explains everything
        assert report.rank_rank["with_intercept"].r_squared > 1 - 1e-9
        assert_allclose(report.rank_rank["with_intercept"].coefficients[0], 1.0,
                        atol=1e-9)

    def test_identity_regression_when_eci_equals_tdi(self):
        m, panel, metrics, product_metrics = self._setup()
        doctored = CountryMetrics(
            country_labels=metrics.country_labels,
            diversification=metrics.diversification,
            tdi=metrics.tdi,
            eci=metrics.tdi.copy(),
            fitness=metrics.fitness,
        )
        report = run_paper_regressions(m, panel, doctored, product_metrics)
        fit = report.eci_on_tdi["with_intercept"]
        assert_allclose(fit.coefficients, [1.0, 0.0], atol=1e-10)
        assert fit.r_squared > 1 - 1e-12

    def test_rent_offset_is_smallest_positive(self):
        m, panel, metrics, product_metrics = self._setup()
        report = run_paper_regressions(m, panel, metrics, product_metrics)
        positive = panel.natural_rents[panel.natural_rents > 0]
        assert report.rent_offset == positive.min()

    def test_product_side_correlations(self):
        m, panel, metrics, product_metrics = self._setup()
        report = run_paper_regressions(m, panel, metrics, product_metrics)
        assert set(report.product_spearman) == {"tsi_pci", "tsi_q", "pci_q"}
        for corr in report.product_spearman.values():
            assert -1 <= corr.statistic <= 1
            assert corr.n == m.n_products

    def test_variant_flags_present(self):
        m, panel, metrics, product_metrics = self._setup()
        report = run_paper_regressions(m, panel, metrics, product_metrics)
        for block in (report.rank_rank, report.log_log):
            assert block["closer_to_benchmark"] in ("with_intercept",
                                                    "without_intercept")
            assert block["with_intercept"].intercept_included
            assert not block["without_intercept"].intercept_included

    def test_deterministic(self):
        m, panel, metrics, product_metrics = self._setup()
        a = run_paper_regressions(m, panel, metrics, product_metrics)
        b = run_paper_regressions(m, panel, metrics, product_metrics)
        assert np.array_equal(a.log_log["with_intercept"].coefficients,
                              b.log_log["with_intercept"].coefficients)
        assert a.spearman_gdp_d.statistic == b.spearman_gdp_d.statistic

    def test_foreign_metrics_rejected(self):
        m, panel, metrics, product_metrics = self._setup()
        relabeled = CountryMetrics(
            country_labels=tuple(f"x{i}" for i in range(len(metrics.country_labels))),
            diversification=metrics.diversification,
            tdi=metrics.tdi,
            eci=metrics.eci,
            fitness=metrics.fitness,
        )
        with pytest.raises(ValueError):
            run_paper_regressions(m, panel, relabeled, product_metrics)

