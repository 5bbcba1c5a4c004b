import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from conftest import fitness_iterations, random_connected_matrix, traced_peak
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from ecomplex import (
    BinaryMatrix,
    DegenerateSpectrum,
    DegenerateVector,
    DisconnectedMatrix,
    EcomplexError,
    ModelParams,
    NonConvergence,
    NumericalUnderflow,
    compute_metrics,
    eci_pci,
    fitness_complexity,
    prune_degenerate,
    run_metrics,
    simulate_world,
    spearman,
    standardize,
    tdi,
    tsi,
    write_matrix,
)
from ecomplex import metrics
from ecomplex.cli import main
from ecomplex.metrics import _average_ranks, _flip, _spearman

ROOT_3_2 = np.sqrt(1.5)  # pop-std-1 value of the extreme point of a 3-point
                         # vector with equally spaced entries


class TestStandardize:
    def test_hand_example(self):
        # mean 2, population std sqrt(2)
        out = standardize([1, 1, 4])
        assert_allclose(out, [-0.7071067811865475, -0.7071067811865475,
                              1.4142135623730951])

    def test_constant_raises(self):
        with pytest.raises(DegenerateVector):
            standardize([5, 5, 5])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        v = standardize(rng.random(40))
        assert_allclose(standardize(v), v, atol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(2)
        out = standardize(rng.random(100) * 37 + 5)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std() - 1) < 1e-12


class TestTdiTsi:
    def test_tdi_equally_spaced_logs(self):
        dense = np.zeros((3, 1000))
        dense[0, :10] = 1
        dense[1, :100] = 1
        dense[2, :1000] = 1
        out = tdi(BinaryMatrix.from_dense(dense))
        assert_allclose(out, [-ROOT_3_2, 0.0, ROOT_3_2], atol=1e-12)

    def test_tdi_constant_raises(self):
        with pytest.raises(DegenerateVector):
            tdi(BinaryMatrix.from_dense([[1, 1, 0], [0, 1, 1]]))

    def test_tdi_is_standardized_log_d(self, matrix_factory):
        m = matrix_factory(3)
        assert_allclose(tdi(m), standardize(np.log(m.diversification)))

    def test_tdi_argmax_has_max_d(self, matrix_factory):
        m = matrix_factory(4)
        assert m.diversification[np.argmax(tdi(m))] == m.diversification.max()

    def test_tsi_hand_example(self):
        dense = np.zeros((16, 3))
        dense[:2, 0] = 1
        dense[:2, 1] = 1
        dense[:, 2] = 1
        out = tsi(BinaryMatrix.from_dense(dense))
        assert_allclose(out, [0.7071067811865475, 0.7071067811865475,
                              -1.4142135623730951])

    def test_tsi_constant_raises(self):
        with pytest.raises(DegenerateVector):
            tsi(BinaryMatrix.from_dense([[1, 1], [1, 1], [1, 1]]))

    def test_tsi_is_negated_standardized_log_u(self, matrix_factory):
        m = matrix_factory(5)
        assert_allclose(tsi(m), -standardize(np.log(m.ubiquity)))

    def test_most_ubiquitous_has_min_tsi(self, matrix_factory):
        m = matrix_factory(6)
        assert m.ubiquity[np.argmin(tsi(m))] == m.ubiquity.max()


def _dense_eigen_oracle(m: BinaryMatrix):
    """Straight nonsymmetric eigendecomposition of the averaging operator,
    kept deliberately different from the module's symmetric route."""
    dense = m.to_dense()
    w = dense / m.diversification.astype(float)[:, None]
    w_star = (dense / m.ubiquity.astype(float)[None, :]).T
    vals, vecs = np.linalg.eig(w @ w_star)
    order = np.argsort(-np.abs(vals))
    return vals[order], vecs[:, order]


class TestAverageRanks:
    """The package's rank kernel reproduces scipy.stats.rankdata bit for bit."""

    # Few distinct values force ties; inf and NaN are rank edge cases.
    _values = st.one_of(
        st.sampled_from([-2.0, 0.0, -0.0, 1.5, 3.0, np.inf, -np.inf]),
        st.floats(allow_nan=False),
    )

    @given(st.lists(_values, min_size=1, max_size=300),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_rankdata(self, xs, with_nan):
        v = np.array(xs)
        if with_nan:
            v[len(v) // 2] = np.nan
        expected = scipy.stats.rankdata(v)
        got = _average_ranks(v)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()

    @given(st.lists(st.tuples(_values, _values, st.integers(1, 5)), min_size=1, max_size=60),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_counts_stand_for_repeated_values(self, rows, with_nan):
        """Ranks and Spearman correlation with counts are those of each value
        repeated counts times, bit for bit: the rank sums are exact."""
        a, b, counts = (np.array(column, dtype=float) for column in zip(*rows))
        if with_nan:
            a[len(a) // 2] = np.nan
        repeats = counts.astype(int)
        last = np.cumsum(repeats) - 1  # each value's last copy
        expanded = _average_ranks(np.repeat(a, repeats))[last]
        assert _average_ranks(a, counts).tobytes() == expanded.tobytes()
        got = _spearman(a, b, counts)
        want = _spearman(np.repeat(a, repeats), np.repeat(b, repeats))
        assert got == want or (np.isnan(got) and np.isnan(want))

    @pytest.mark.parametrize("counts", [None, np.array([])])
    def test_empty_input_gives_empty_ranks(self, counts):
        ranks = _average_ranks(np.array([]), counts)
        assert ranks.shape == (0,) and ranks.dtype == float


class TestEciPci:
    def test_nested_ordering_and_values(self, nested3):
        eci, pci, report = eci_pci(nested3)
        assert eci[0] > eci[1] > eci[2]
        assert pci[0] < pci[1] < pci[2]
        assert_allclose([eci[0], eci[2]], [ROOT_3_2, -ROOT_3_2], atol=1e-9)
        assert abs(eci[1]) < 1e-9
        assert_allclose([pci[0], pci[2]], [-ROOT_3_2, ROOT_3_2], atol=1e-9)
        assert_allclose(report.leading_eigenvalue, 1.0, atol=1e-10)
        assert_allclose(report.second_eigenvalue, 0.25, atol=1e-10)

    def test_output_is_standardized(self, matrix_factory):
        m = matrix_factory(7)
        eci, pci, _ = eci_pci(m)
        for v in (eci, pci):
            assert abs(v.mean()) < 1e-9
            assert abs(v.std() - 1) < 1e-9

    def test_matches_dense_oracle_up_to_sign(self, matrix_factory):
        for seed in range(8, 14):
            m = matrix_factory(seed)
            eci, _, _ = eci_pci(m)
            vals, vecs = _dense_eigen_oracle(m)
            v2 = np.real(vecs[:, 1])
            oracle = (v2 - v2.mean()) / v2.std()
            err = min(np.abs(oracle - eci).max(), np.abs(oracle + eci).max())
            assert err < 1e-6

    def test_sign_contract(self, matrix_factory):
        for seed in range(14, 20):
            m = matrix_factory(seed)
            eci, pci, _ = eci_pci(m)
            assert spearman(eci, m.diversification).statistic > 0
            assert spearman(pci, m.ubiquity).statistic < 0

    def test_leading_pair_uniform(self, matrix_factory):
        m = matrix_factory(21)
        vals, vecs = _dense_eigen_oracle(m)
        assert abs(np.real(vals[0]) - 1) < 1e-8
        v0 = np.real(vecs[:, 0])
        assert np.abs(v0 / v0.mean() - 1).max() < 1e-8

    def test_permutation_equivariance(self, matrix_factory):
        m = matrix_factory(22)
        eci, pci, _ = eci_pci(m)
        rng = np.random.default_rng(0)
        cp = rng.permutation(m.n_countries)
        pp = rng.permutation(m.n_products)
        dense = m.to_dense()[cp][:, pp]
        perm = BinaryMatrix.from_dense(
            dense,
            country_labels=[m.country_labels[i] for i in cp],
            product_labels=[m.product_labels[j] for j in pp],
        )
        eci_p, pci_p, _ = eci_pci(perm)
        assert_allclose(eci_p, eci[cp], atol=1e-8)
        assert_allclose(pci_p, pci[pp], atol=1e-8)

    def test_disconnected_raises(self):
        blocks = BinaryMatrix.from_dense(
            [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
        )
        with pytest.raises(DisconnectedMatrix):
            eci_pci(blocks)

    def test_uniform_matrix_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            eci_pci(BinaryMatrix.from_dense(np.ones((4, 5))))

    def test_constant_diversification_keeps_orientation(self, monkeypatch):
        # every country has d = 3: the ECI/diversification rank and linear
        # correlations are 0, so the first nonzero component is made positive,
        # whatever sign the solver gave the eigenvector
        m = BinaryMatrix.from_dense(np.array([
            [0, 1, 0, 0, 1, 0, 1],
            [0, 0, 1, 1, 1, 0, 0],
            [0, 0, 1, 0, 1, 1, 0],
            [0, 1, 1, 1, 0, 0, 0],
            [1, 0, 0, 1, 0, 1, 0],
        ]))
        assert np.all(m.diversification == 3)
        eci, pci, report = eci_pci(m)
        assert eci[np.flatnonzero(eci)[0]] > 0
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda s: (lambda w, v: (w, -v))(*eigh(s)))
        eci_neg, pci_neg, report_neg = eci_pci(m)
        assert_array_equal(eci_neg, eci)
        assert_array_equal(pci_neg, pci)
        assert report_neg.eci_sign_flipped is not report.eci_sign_flipped

    def test_sign_ties_fall_back_to_pearson_then_the_first_component(self):
        ref = np.array([1.0, 2.0, 3.0, 4.0])
        v = np.array([0.2, 0.9, 0.1, 0.3])  # ranks 2, 4, 1, 3: Spearman exactly 0
        assert _spearman(v, ref) == 0.0
        assert _flip(v, ref, 1) and not _flip(v, ref, -1)  # the Pearson correlation is < 0
        tied = np.array([2.0, 4.0, 1.0, 3.0])  # Spearman and Pearson exactly 0
        for sign in (1, -1):
            assert not _flip(tied, ref, sign) and _flip(-tied, ref, sign)
        assert _flip(np.array([0.0, -1.0, 1.0, 0.0]), np.ones(4), 1)  # a constant ref

    def test_constant_product_vector_raises(self, monkeypatch):
        # countries 0 and 1, and 2 and 3, make equally many products and get
        # opposite values of the second vector, so each class, {0, 1},
        # {2, 3} or {0, 1, 2, 3}, averages its countries' values to 0
        columns = {(0, 1): 3, (2, 3): 2, (0, 1, 2, 3): 4}
        dense = np.zeros((4, sum(columns.values())))
        j = 0
        for countries, copies in columns.items():
            dense[list(countries), j:j + copies] = 1
            j += copies
        m = BinaryMatrix.from_dense(dense)
        assert len(m.column_classes.first) == 3
        vectors = np.eye(4)
        vectors[:, 1] = [0.3, -0.3, 0.8, -0.8]
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda s: (np.array([1.0, 0.5, 0.2, 0.1]), vectors))
        with pytest.raises(DegenerateVector, match="^product-side eigenvector is constant$"):
            eci_pci(m)

    def test_sign_by_spearman_computes_no_pearson(self, monkeypatch):
        """The Pearson correlation of v itself is formed only on a Spearman
        tie; a nonzero Spearman correlation is one Pearson call, on ranks."""
        calls = []
        pearson = metrics._pearson

        def counted(a, b, counts=None):
            calls.append(1)
            return pearson(a, b, counts)

        monkeypatch.setattr(metrics, "_pearson", counted)
        ref = np.array([1.0, 2.0, 3.0, 4.0])
        v = np.array([0.1, 0.3, 0.2, 0.9])
        assert _spearman(v, ref) != 0 and len(calls) == 1
        calls.clear()
        assert not _flip(v, ref, 1) and len(calls) == 1

    def test_too_small_raises(self):
        with pytest.raises(DegenerateVector):
            eci_pci(BinaryMatrix.from_dense([[1, 1], [1, 1]]))

    def test_peak_is_about_one_class_matrix(self):
        """A is scaled in place and its buffer reused for W*, so the call
        holds about one float country x class matrix at its peak."""
        m = BinaryMatrix.from_dense(np.random.default_rng(0).random((230, 5000)) < 0.3)
        n_classes = len(m.column_classes.first)  # built, and cached, before the trace
        assert n_classes == 5000
        peak = traced_peak(lambda: eci_pci(m))
        # about 1.15x; 2.1x with a float temporary per step
        assert peak <= 1.3 * 8 * m.n_countries * n_classes

    def test_peak_holds_about_two_product_vectors(self):
        """Past the class matrix, only PCI itself is product-sized: its
        sign, constancy check and ubiquities are read per class."""
        dense = np.random.default_rng(0).random((50, 100)) < 0.3
        m = BinaryMatrix.from_dense(np.tile(dense, (1, 1000)))  # 100 classes of 1,000 products
        n_classes = len(m.column_classes.first)  # built, and cached, before the trace
        assert n_classes == 100
        peak = traced_peak(lambda: eci_pci(m))
        # about 2.1x; 8.1x when the sign was decided over products
        assert peak <= 2.5 * 8 * m.n_products + 1.3 * 8 * m.n_countries * n_classes


def _flip_over_products(v, ref, sign) -> bool:
    """The PCI sign rule taken over every product: Spearman, then Pearson,
    then the first nonzero component (reference)."""
    corr = _spearman(v, ref) or metrics._pearson(v, ref)
    if corr != 0:
        return sign * corr < 0
    return bool(v[np.flatnonzero(v)[0]] < 0)


def _product_level_eci_pci(m: BinaryMatrix):
    """eci_pci with PCI expanded to products before it is standardized and
    oriented by _flip_over_products (reference for the per-class tail);
    returns eci, pci and the two sign flags."""
    d = m.diversification.astype(float)
    u = m.ubiquity.astype(float)
    cls = m.column_classes
    u_cls = u[cls.first]
    a = cls.matrix / np.sqrt(d)[:, None] / np.sqrt(u_cls / cls.counts)[None, :]
    eigvals, eigvecs = np.linalg.eigh(a @ a.T)
    c_raw = eigvecs[:, np.argsort(np.abs(eigvals))[::-1][1]] / np.sqrt(d)
    eci = standardize(c_raw)
    flip_c = _flip_over_products(eci, d, 1)
    p_raw = ((cls.matrix / u_cls[None, :]).T @ c_raw)[cls.inverse]
    assert not np.allclose(p_raw, p_raw.mean())
    pci = standardize(p_raw)
    flip_p = _flip_over_products(pci, u, -1)
    return -eci if flip_c else eci, -pci if flip_p else pci, flip_c, flip_p


class TestPciSignPerClass:
    """eci_pci decides PCI's sign per column class, each class counted
    once per product; outputs and flags equal the product-level rule's."""

    @staticmethod
    def _assert_product_level(m: BinaryMatrix):
        eci, pci, report = eci_pci(m)
        ref_eci, ref_pci, flip_c, flip_p = _product_level_eci_pci(m)
        assert eci.tobytes() == ref_eci.tobytes()
        assert pci.tobytes() == ref_pci.tobytes()
        assert (report.eci_sign_flipped, report.pci_sign_flipped) == (flip_c, flip_p)
        return pci, report

    @given(st.integers(0, 2**32 - 1), st.integers(1, 80))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_with_repeated_columns(self, seed, copies):
        rng = np.random.default_rng(seed)
        m = _with_repeated_columns(random_connected_matrix(rng, 20, 30), rng, copies)
        try:
            eci_pci(m)
        except DegenerateSpectrum:
            assume(False)
        self._assert_product_level(m)

    @pytest.mark.parametrize("seed, u_constant", [(154, False), (650, True)])
    def test_rank_correlation_exactly_zero(self, seed, u_constant):
        # the classes' weighted Spearman correlation with u is exactly 0, so
        # the products' Pearson correlation decides, or with a constant u
        # the first nonzero component
        rng = np.random.default_rng(seed)
        copies = int(rng.integers(1, 12))
        m = _with_repeated_columns(random_connected_matrix(rng, 8, 10), rng, copies)
        cls = m.column_classes
        assert len(cls.first) < m.n_products
        pci, _ = self._assert_product_level(m)
        u_cls = m.ubiquity[cls.first]
        assert _spearman(pci[cls.first], u_cls, cls.counts) == 0.0
        assert (u_cls == u_cls[0]).all() == u_constant
        assert (metrics._pearson(pci, m.ubiquity) == 0.0) == u_constant

    def test_classes_tied_in_pci(self, monkeypatch):
        # every country makes 7 products, and the second vector gives
        # countries 0 and 1, and 2 and 3, opposite values: the classes
        # {0, 1}, {2, 3} and {0, 1, 2, 3} (u 2, 2 and 4; 1, 2 and 3
        # products) all get p = 0 exactly, a tie the ranks must share
        # across classes; the solver's sign moves the flag, not PCI
        columns = {(0, 1): 1, (2, 3): 2, (0, 1, 2, 3): 3, (0,): 2, (1,): 2, (2,): 1, (3,): 1,
                   (0, 2): 1, (1, 3): 1}
        dense = np.zeros((4, sum(columns.values())))
        j = 0
        for countries, copies in columns.items():
            dense[list(countries), j:j + copies] = 1
            j += copies
        m = BinaryMatrix.from_dense(dense[:, np.random.default_rng(5).permutation(j)])
        assert (m.diversification == 7).all()
        results = []
        for solver_sign in (1, -1):
            vectors = np.eye(4)
            vectors[:, 1] = solver_sign * np.array([0.3, -0.3, 0.8, -0.8])
            monkeypatch.setattr(np.linalg, "eigh",
                                lambda s, v=vectors: (np.array([1.0, 0.5, 0.2, 0.1]), v))
            results.append(self._assert_product_level(m))
        (pci, report), (pci_neg, report_neg) = results
        pci_cls = pci[m.column_classes.first]
        assert len(np.unique(pci_cls)) == len(pci_cls) - 2
        assert pci_neg.tobytes() == pci.tobytes()
        assert report_neg.pci_sign_flipped is not report.pci_sign_flipped


def _longdouble_fitness(dense, steps):
    """Independent extended-precision re-implementation of the iteration."""
    mat = np.asarray(dense, dtype=np.longdouble)
    c = np.ones(mat.shape[0], dtype=np.longdouble)
    p = np.ones(mat.shape[1], dtype=np.longdouble)
    for _ in range(steps):
        c_next = mat.dot(p) / p.mean()
        p_next = 1.0 / (c.mean() * (1.0 / c).dot(mat))
        c, p = c_next, p_next
    return (c / c.mean()).astype(float), (p / p.mean()).astype(float)


class TestFitness:
    def test_all_ones_exact_fixed_point(self):
        m = BinaryMatrix.from_dense(np.ones((8, 16)))
        f, q, iterations = fitness_complexity(m)
        assert np.all(f == 1.0)
        assert np.all(q == 1.0)
        for f_n, q_n in islice(fitness_iterations(m), 50):
            assert np.all(f_n == 1.0) and np.all(q_n == 1.0)

    def test_means_are_one_at_every_iteration(self, matrix_factory):
        m = matrix_factory(30)
        for f, q in islice(fitness_iterations(m), 200):
            assert abs(f.mean() - 1) < 1e-9
            assert abs(q.mean() - 1) < 1e-9
            assert np.all(f > 0) and np.all(q > 0)

    def test_nested_ordering_matches_longdouble(self, nested3):
        steps = 200
        f_mod, q_mod = list(islice(fitness_iterations(nested3), steps + 1))[-1]
        f_ref, q_ref = _longdouble_fitness(nested3.to_dense(), steps)
        assert_allclose(f_mod, f_ref, rtol=1e-12)
        assert_allclose(q_mod, q_ref, rtol=1e-12)
        assert f_mod[0] > f_mod[1] > f_mod[2] > 0

    def test_converges_on_random_matrices(self, matrix_factory):
        for seed in range(31, 36):
            m = matrix_factory(seed)
            f, q, iterations = fitness_complexity(m, tol=1e-10, max_iter=10000)
            assert iterations <= 10000
            assert abs(f.mean() - 1) < 1e-9 and abs(q.mean() - 1) < 1e-9

    def test_duplicate_rows_anonymous(self, matrix_factory):
        m = matrix_factory(37)
        dense = m.to_dense()
        dup = np.vstack([dense, dense[3]])
        labels = list(m.country_labels) + ["copy-of-3"]
        m2 = BinaryMatrix.from_dense(dup, country_labels=labels)
        f, _, _ = fitness_complexity(m2)
        assert abs(f[3] - f[-1]) < 1e-10

    def test_nested_never_meets_relative_tolerance(self, nested3):
        # components decay polynomially, so the relative change plateaus
        with pytest.raises(NonConvergence) as excinfo:
            fitness_complexity(nested3, tol=1e-10, max_iter=500)
        err = excinfo.value
        assert err.iterations == 500
        assert err.last_change >= 1e-10
        assert err.fitness[0] > err.fitness[1] > err.fitness[2]

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_max_iter_below_one(self, nested3, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            fitness_complexity(nested3, max_iter=max_iter)

    def test_geometric_decay_underflows(self):
        # two countries hold only the universal product; their fitness
        # decays geometrically and crosses the positivity floor
        star = BinaryMatrix.from_dense([[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]])
        with pytest.raises(NumericalUnderflow):
            fitness_complexity(star, max_iter=1_000_000)

    def test_rankings_concordant_on_nested(self, nested3):
        t = tdi(nested3)
        eci, _, _ = eci_pci(nested3)
        f, _ = list(islice(fitness_iterations(nested3), 101))[-1]
        assert np.array_equal(np.argsort(t), np.argsort(eci))
        assert np.array_equal(np.argsort(t), np.argsort(f))


def _dense_eci_pci(m: BinaryMatrix):
    """The per-product spectral kernel on the dense matrix, kept as the
    reference the column-class kernel must reproduce."""
    dense = np.zeros((m.n_countries, m.n_products))
    dense[m.rows, m.cols] = 1.0
    d = m.diversification.astype(float)
    u = m.ubiquity.astype(float)
    a = dense / np.sqrt(d)[:, None] / np.sqrt(u)[None, :]
    eigvals, eigvecs = np.linalg.eigh(a @ a.T)
    order = np.argsort(np.abs(eigvals))[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    c_raw = eigvecs[:, 1] / np.sqrt(d)
    p_raw = (dense / u[None, :]).T @ c_raw
    return _oriented(standardize(c_raw), d, 1), _oriented(standardize(p_raw), u, -1), eigvals


def _oriented(v, ref, sign):
    """v or -v, whichever co-ranks (sign 1) or counter-ranks (sign -1) with
    ref; on an exact rank tie by the sign of the covariance with ref, and
    when that is 0 too, with its first nonzero component positive."""
    for corr in (spearman(v, ref).statistic, np.dot(v - v.mean(), ref - ref.mean())):
        if corr != 0:
            return v if sign * corr > 0 else -v
    return v if v[np.flatnonzero(v)[0]] > 0 else -v


def _dense_fitness_iterations(m: BinaryMatrix):
    """The per-product fitness iteration on the dense matrix (reference)."""
    dense = np.zeros((m.n_countries, m.n_products))
    dense[m.rows, m.cols] = 1.0
    c = np.ones(m.n_countries)
    p = np.ones(m.n_products)
    yield c / c.mean(), p / p.mean()
    while True:
        c_new = (dense @ p) / p.mean()
        p_new = 1.0 / (c.mean() * ((1.0 / c) @ dense))
        if np.any(c_new < 1e-300) or np.any(p_new < 1e-300):
            raise NumericalUnderflow("below the floor")
        c, p = c_new, p_new
        yield c / c.mean(), p / p.mean()


def _with_repeated_columns(m: BinaryMatrix, rng, copies: int) -> BinaryMatrix:
    """m with `copies` extra copies of random columns, shuffled in."""
    dense = m.to_dense()
    extra = rng.integers(0, m.n_products, size=copies)
    order = rng.permutation(m.n_products + copies)
    return BinaryMatrix.from_dense(np.hstack([dense, dense[:, extra]])[:, order])


@st.composite
def _columns_from_a_pool(draw) -> BinaryMatrix:
    """An unpruned matrix whose columns are drawn, with repeats, from a
    small pool that holds an all-zero column; the country counts put the
    packed column key on either side of a byte boundary."""
    n = draw(st.sampled_from([0, 1, 7, 8, 9, 16, 17]))
    pool = draw(hnp.arrays(np.uint8, (n, draw(st.integers(1, 6))), elements=st.integers(0, 1)))
    pool[:, 0] = 0
    picks = draw(st.lists(st.integers(0, pool.shape[1] - 1), max_size=40))
    return BinaryMatrix.from_dense(pool[:, picks].reshape(n, len(picks)))


def _dense_column_classes(m: BinaryMatrix):
    """Unique dense columns in order of first occurrence, as float 0/1."""
    dense = m.to_dense()
    classes = {}
    inverse = [classes.setdefault(dense[:, j].tobytes(), len(classes))
               for j in range(m.n_products)]
    first = [inverse.index(c) for c in range(len(classes))]
    return (dense[:, first], np.bincount(inverse, minlength=len(classes)).astype(float),
            np.array(inverse, dtype=np.intp), np.array(first, dtype=np.intp))


def _per_product_fitness_iterations(m: BinaryMatrix):
    """The class-weighted fitness iteration with Q expanded to every
    product on each step, as it ran before the loop kept Q per class."""
    cls = m.column_classes
    mat, cnt, n_p = cls.matrix.astype(float), cls.counts, m.n_products
    c = np.ones(m.n_countries)
    p = np.ones(len(cnt))
    weighted = cnt * p
    p_mean = weighted.sum() / n_p
    yield c / c.mean(), (p / p_mean)[cls.inverse]
    while True:
        c_new = (mat @ weighted) / p_mean
        p_new = 1.0 / (c.mean() * ((1.0 / c) @ mat))
        if np.any(c_new < 1e-300) or np.any(p_new < 1e-300):
            raise NumericalUnderflow("below the floor")
        c, p = c_new, p_new
        weighted = cnt * p
        p_mean = weighted.sum() / n_p
        yield c / c.mean(), (p / p_mean)[cls.inverse]


def _per_product_fitness_complexity(m: BinaryMatrix, tol: float, max_iter: int):
    """The stopping rule on the per-product iterates, the relative change
    taken over every product on each step: the reference the per-class
    rule must match bit for bit. Returns ("converged", f, q, steps),
    ("nonconvergence", f, q, last change) or ("underflow", step)."""
    it = _per_product_fitness_iterations(m)
    f, q = next(it)
    prev = np.concatenate([f, q])
    for n in range(1, max_iter + 1):
        try:
            f, q = next(it)
        except NumericalUnderflow:
            return ("underflow", n)
        cur = np.concatenate([f, q])
        change = float(np.max(np.abs(cur - prev) / np.abs(prev)))
        if change < tol:
            return ("converged", f, q, n)
        prev = cur
    return ("nonconvergence", f, q, change)


def _fitness_outcome(m: BinaryMatrix, tol: float, max_iter: int):
    """fitness_complexity's result in the reference's shape, bits compared."""
    try:
        f, q, n = fitness_complexity(m, tol=tol, max_iter=max_iter)
        return ("converged", f.tobytes(), q.tobytes(), n)
    except NonConvergence as exc:
        assert exc.iterations == max_iter
        return ("nonconvergence", exc.fitness.tobytes(), exc.q.tobytes(), exc.last_change)


_STAR = [[1, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0]]  # two countries decay to the floor


class TestFitnessPerClass:
    """fitness_complexity tests the relative change on the per-class
    state and expands Q once; it gives the per-product loop's F, Q, step
    count and errors bit for bit."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([1e-10, 1e-4]),
           st.sampled_from([2, 25, 10000]))
    @settings(max_examples=40, deadline=None)
    def test_equals_per_product_loop(self, seed, copies, tol, max_iter):
        rng = np.random.default_rng(seed)
        m = _with_repeated_columns(random_connected_matrix(rng, 20, 60), rng, copies)
        expected = _per_product_fitness_complexity(m, tol, max_iter)
        if expected[0] == "underflow":
            with pytest.raises(NumericalUnderflow):
                fitness_complexity(m, tol=tol, max_iter=max_iter)
            return
        bits = (expected[0], expected[1].tobytes(), expected[2].tobytes(), expected[3])
        assert _fitness_outcome(m, tol, max_iter) == bits
        for (f, q), (ref_f, ref_q) in islice(
                zip(fitness_iterations(m), _per_product_fitness_iterations(m)), 30):
            assert f.tobytes() == ref_f.tobytes() and q.tobytes() == ref_q.tobytes()

    @pytest.mark.parametrize("copies", [0, 5])
    def test_underflow_at_the_same_step(self, copies):
        rng = np.random.default_rng(copies)
        m = _with_repeated_columns(BinaryMatrix.from_dense(_STAR), rng, copies)
        outcome = _per_product_fitness_complexity(m, 1e-10, 1_000_000)
        assert outcome[0] == "underflow"
        step = outcome[1]
        with pytest.raises(NumericalUnderflow):
            fitness_complexity(m, max_iter=step)
        # one step short of the underflow, both stop with the same last iterate
        expected = _per_product_fitness_complexity(m, 1e-10, step - 1)
        assert expected[0] == "nonconvergence"
        assert _fitness_outcome(m, 1e-10, step - 1) == (
            expected[0], expected[1].tobytes(), expected[2].tobytes(), expected[3])
        yielded = 0
        with pytest.raises(NumericalUnderflow):
            for _ in fitness_iterations(m):
                yielded += 1
        assert yielded == step  # the all-ones state and step - 1 updates

    def test_nested_nonconvergence(self, nested3):
        expected = _per_product_fitness_complexity(nested3, 1e-10, 500)
        assert _fitness_outcome(nested3, 1e-10, 500) == (
            expected[0], expected[1].tobytes(), expected[2].tobytes(), expected[3])

    def test_peak_is_a_small_share_of_one_class_matrix(self):
        """The iteration reads the cached float class matrix as it is."""
        m = BinaryMatrix.from_dense(np.random.default_rng(0).random((230, 5000)) < 0.3)
        n_classes = len(m.column_classes.first)  # built, and cached, before the trace
        assert n_classes == 5000
        peak = traced_peak(lambda: fitness_complexity(m))
        # about 0.03x; 1.03x with a float copy of the class matrix per call
        assert peak <= 0.1 * 8 * m.n_countries * n_classes


_CONVERGENT = [[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1],
               [0, 0, 1, 1, 1, 1], [1, 1, 1, 0, 1, 0]]


class TestTracedFitness:
    """The benchmark's tracer (bench/tracer.py) counts the iterates a
    traced run draws from the fitness generators on the span of
    fitness_complexity, and reports them as the fitness iteration count.
    It wraps only public functions, so the generator fitness_complexity
    drives must be one."""

    @pytest.mark.parametrize("dense, status", [(_CONVERGENT, "ok"), (_STAR, "NumericalUnderflow")])
    def test_span_counts_every_iterate(self, tmp_path, dense, status):
        m = BinaryMatrix.from_dense(dense)
        outcome = _per_product_fitness_complexity(m, 1e-10, 10000)
        # the all-ones state, then one iterate per step (the last one raising)
        yields = outcome[3] + 1 if outcome[0] == "converged" else outcome[1]
        write_matrix(m, tmp_path / "m.txt")
        root = Path(__file__).resolve().parents[1]
        spans_path = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "tracer.py"), str(spans_path), "p", "--",
             "metrics", str(tmp_path / "m.txt"), "--out-dir", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        spans = [span for span in json.loads(spans_path.read_text())["spans"]
                 if span["name"] == "metrics.fitness_complexity"]
        assert [span["status"] for span in spans] == [status]
        assert spans[0]["counts"] == {"cells": m.n_countries * m.n_products, "yields": yields}


class TestRunMetrics:
    def test_failed_family_leaves_its_fields_none(self, nested3):
        cm, pm, eigen, iters, errors = run_metrics(nested3, max_iter=300)
        assert list(errors) == ["fitness"]
        assert isinstance(errors["fitness"], NonConvergence)
        assert cm.fitness is None and pm.q is None and iters is None
        assert_array_equal(cm.tdi, tdi(nested3))
        assert_array_equal(pm.tsi, tsi(nested3))
        eci, pci, report = eci_pci(nested3)
        assert_array_equal(cm.eci, eci)
        assert_array_equal(pm.pci, pci)
        assert eigen == report

    def test_compute_metrics_raises_the_first_failure(self, nested3):
        with pytest.raises(DegenerateVector):
            compute_metrics(BinaryMatrix.from_dense(np.ones((5, 6), dtype=int)))
        with pytest.raises(NonConvergence) as info:
            compute_metrics(nested3, max_iter=300)
        assert info.value.iterations == 300

    def test_families_run_through_the_module_names(self, monkeypatch):
        """A caller that rebinds a family's module name (the benchmark's
        tracer does) sees every call compute_metrics makes."""
        calls = []
        for name in ("tdi", "tsi", "eci_pci", "fitness_complexity"):
            def counted(*args, _name=name, _original=getattr(metrics, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(metrics, name, counted)
        compute_metrics(BinaryMatrix.from_dense(_CONVERGENT))
        # eci_pci runs on a second thread, so only the calls, not their order, are fixed
        assert Counter(calls) == Counter(["tdi", "tsi", "eci_pci", "fitness_complexity"])


def _bits(v) -> np.ndarray:
    return np.ascontiguousarray(v, dtype=float).view(np.uint64)


def _one_after_another(m: BinaryMatrix) -> dict:
    """Each family's outputs, or the EcomplexError it raised, from the
    public functions called one after another on this thread."""
    out = {}
    for name, call in (("tdi", lambda: (tdi(m),)), ("tsi", lambda: (tsi(m),)),
                       ("eci_pci", lambda: eci_pci(m)), ("fitness", lambda: fitness_complexity(m))):
        try:
            out[name] = call()
        except EcomplexError as exc:
            out[name] = exc
    return out


def _assert_one_after_another(result, ref: dict):
    """run_metrics' result holds ref's outputs bit for bit and its
    errors, by type and message, in FAMILIES order."""
    cm, pm, eigen, iters, errors = result
    got = {"tdi": (cm.tdi,), "tsi": (pm.tsi,), "eci_pci": (cm.eci, pm.pci, eigen),
           "fitness": (cm.fitness, pm.q, iters)}
    assert list(errors) == [name for name, want in ref.items() if isinstance(want, EcomplexError)]
    for name, want in ref.items():
        if name in errors:
            assert type(errors[name]) is type(want) and str(errors[name]) == str(want)
            assert all(g is None for g in got[name])
            continue
        for g, w in zip(got[name], want, strict=True):
            if isinstance(w, np.ndarray):
                assert_array_equal(_bits(g), _bits(w))
            else:
                assert g == w


class TestThreadedRunMetrics:
    """run_metrics runs ECI/PCI on a second thread while TDI, TSI and
    fitness run on the caller's."""

    @pytest.mark.parametrize("world", ["dense", "nested"])
    def test_bitwise_equal_to_the_families_one_after_another(self, world):
        if world == "dense":
            dense = np.random.default_rng(3).random((230, 5000)) < 0.09
            m = prune_degenerate(BinaryMatrix.from_dense(dense))
        else:
            params = ModelParams(tau=0.07, K=60)
            m = prune_degenerate(simulate_world(params, mode="mc", samples=5000, seed=2).matrix)
        ref = _one_after_another(m)
        failed = [name for name, want in ref.items() if isinstance(want, EcomplexError)]
        assert failed == ([] if world == "dense" else ["fitness"])
        for _ in range(3):
            _assert_one_after_another(run_metrics(m), ref)

    def test_concurrent_callers_under_fast_switching(self):
        """Four callers, so eight threads, with the interpreter switching
        threads every microsecond: every call gives the results and errors
        of the families run one after another."""
        worlds = [random_connected_matrix(np.random.default_rng(seed)) for seed in range(3)]
        worlds.append(BinaryMatrix.from_dense(_STAR))  # fitness underflows
        refs = [_one_after_another(m) for m in worlds]
        assert isinstance(refs[-1]["fitness"], NumericalUnderflow)
        failures = []

        def caller():
            try:
                for _ in range(5):
                    for m, ref in zip(worlds, refs):
                        _assert_one_after_another(run_metrics(m), ref)
            except BaseException as exc:  # kept for the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller) for _ in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert failures == []

    def test_errors_keep_the_family_order(self, monkeypatch):
        """ECI/PCI fails only after fitness has, on a daemon thread of its
        own, and is still listed first; fitness runs on the caller's thread,
        where the benchmark's tracer counts its iterations."""
        fitness_failed = threading.Event()
        threads = {}

        def eci_fails(m):
            threads["eci_pci"] = threading.current_thread()
            assert fitness_failed.wait(30)
            raise DegenerateSpectrum("eci")

        def fitness_fails(m, **kwargs):
            threads["fitness"] = threading.current_thread()
            fitness_failed.set()
            raise NonConvergence("fitness")

        monkeypatch.setattr(metrics, "eci_pci", eci_fails)
        monkeypatch.setattr(metrics, "fitness_complexity", fitness_fails)
        cm, pm, eigen, iters, errors = run_metrics(BinaryMatrix.from_dense(_CONVERGENT))
        assert list(errors) == ["eci_pci", "fitness"]
        assert (cm.eci, cm.fitness, eigen, iters) == (None, None, None, None)
        assert_array_equal(cm.tdi, tdi(BinaryMatrix.from_dense(_CONVERGENT)))
        assert threads["fitness"] is threading.current_thread()
        assert threads["eci_pci"] is not threads["fitness"] and threads["eci_pci"].daemon

    def test_second_thread_failure_propagates(self, monkeypatch, capsys):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        fitness_failed = threading.Event()

        def eci_breaks(m):
            fitness_failed.wait(30)
            raise RuntimeError("a bug in eci_pci")

        def fitness_breaks(m, **kwargs):
            fitness_failed.set()
            return 1 / 0

        monkeypatch.setattr(metrics, "eci_pci", eci_breaks)
        fitness_failed.set()
        with pytest.raises(RuntimeError, match="a bug in eci_pci"):
            run_metrics(BinaryMatrix.from_dense(_CONVERGENT))
        # ECI/PCI comes before fitness in FAMILIES, so its failure wins over
        # fitness's, though fitness failed first
        fitness_failed.clear()
        monkeypatch.setattr(metrics, "fitness_complexity", fitness_breaks)
        with pytest.raises(RuntimeError, match="a bug in eci_pci"):
            run_metrics(BinaryMatrix.from_dense(_CONVERGENT))
        assert hooked == []
        assert capsys.readouterr().err == ""

    def test_caller_thread_failure_starts_no_later_family(self, monkeypatch):
        started = []
        monkeypatch.setattr(metrics, "tsi", lambda m: 1 / 0)
        monkeypatch.setattr(metrics, "fitness_complexity",
                            lambda m, **kwargs: started.append("fitness"))
        with pytest.raises(ZeroDivisionError):
            run_metrics(BinaryMatrix.from_dense(_CONVERGENT))
        assert started == []

    def test_column_classes_built_once_per_call(self, monkeypatch):
        builds = []
        build = BinaryMatrix.column_classes.func

        def counted(self):
            builds.append(self)
            time.sleep(0.05)  # time for a second thread to start a build of its own
            return build(self)

        prop = cached_property(counted)
        prop.__set_name__(BinaryMatrix, "column_classes")
        monkeypatch.setattr(BinaryMatrix, "column_classes", prop)
        for seed in range(3):
            m = random_connected_matrix(np.random.default_rng(seed))
            run_metrics(m)
            assert len(builds) == 1 and builds[0] is m
            builds.clear()

    def test_peak_is_about_one_class_matrix(self):
        """ECI/PCI's scaled copy of the class matrix is the one class-sized
        buffer; fitness, running beside it, reads the cached matrix."""
        m = BinaryMatrix.from_dense(np.random.default_rng(0).random((230, 5000)) < 0.3)
        n_classes = len(m.column_classes.first)  # built, and cached, before the trace
        assert n_classes == 5000
        peak = traced_peak(lambda: run_metrics(m))
        # about 1.16x; 2.14x when fitness made its own float copy of the class matrix
        assert peak <= 1.3 * 8 * m.n_countries * n_classes


class TestColumnClasses:
    """ECI/PCI and fitness run on the country x column-class matrix."""

    def test_classes_of_a_small_matrix(self):
        m = BinaryMatrix.from_dense([[1, 0, 1, 1, 0], [1, 1, 1, 0, 1], [0, 1, 0, 1, 1]])
        cls = m.column_classes
        assert cls.first.tolist() == [0, 1, 3]
        assert cls.inverse.tolist() == [0, 1, 0, 2, 1]
        assert cls.counts.tolist() == [2.0, 2.0, 1.0]
        assert cls.matrix.tolist() == [[1, 0, 1], [1, 1, 0], [0, 1, 1]]
        assert cls.matrix.dtype == np.float64 and cls.matrix.flags.c_contiguous
        assert not cls.matrix.flags.writeable
        assert m.column_classes is cls  # built once per matrix
        with pytest.raises(ValueError, match="read-only"):
            cls.inverse[0] = 1

    @given(_columns_from_a_pool())
    @settings(max_examples=200, deadline=None)
    def test_classes_match_unique_dense_columns(self, m):
        for got, ref in zip(m.column_classes, _dense_column_classes(m), strict=True):
            assert_array_equal(got, ref, strict=True)

    def test_class_keys_peak_below_the_entry_array(self):
        m = simulate_world(ModelParams(tau=0.07, K=221), mode="mc", samples=20_000, seed=1).matrix
        # about 0.9x 8 bytes per entry; 2.8x when the keys were packed from a dense
        # products x countries block
        assert traced_peak(lambda: m.column_classes) < 1.5 * 8 * m.n_entries

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60))
    @example(seed=172, copies=40)  # ECI's Spearman correlation with d is exactly 0
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_kernels_with_repeated_columns(self, seed, copies):
        rng = np.random.default_rng(seed)
        m = _with_repeated_columns(random_connected_matrix(rng, 20, 60), rng, copies)
        ref_eci, ref_pci, ref_vals = _dense_eci_pci(m)
        # rounding moves the eigenvector by about eps / gap
        assume(abs(ref_vals[1]) - abs(ref_vals[2]) > 1e-3)
        eci, pci, report = eci_pci(m)
        assert_allclose(eci, ref_eci, rtol=0, atol=1e-12)
        assert_allclose(pci, ref_pci, rtol=0, atol=1e-12)
        assert_allclose([report.leading_eigenvalue, report.second_eigenvalue],
                        ref_vals[:2], rtol=0, atol=1e-12)
        for (f, q), (ref_f, ref_q) in islice(
                zip(fitness_iterations(m), _dense_fitness_iterations(m)), 60):
            assert_allclose(f, ref_f, rtol=0, atol=1e-12)
            assert_allclose(q, ref_q, rtol=0, atol=1e-12)
        # products made by the same countries get the same PCI and Q
        inverse = m.column_classes.inverse
        first = m.column_classes.first[inverse]
        assert np.array_equal(pci, pci[first])
        assert np.array_equal(q, q[first])

    @pytest.mark.parametrize("seed", range(40, 46))
    def test_bitwise_dense_without_repeated_columns(self, matrix_factory, seed):
        m = matrix_factory(seed)
        assert len(m.column_classes.first) == m.n_products
        eci, pci, report = eci_pci(m)
        ref_eci, ref_pci, ref_vals = _dense_eci_pci(m)
        assert eci.tobytes() == ref_eci.tobytes()
        assert pci.tobytes() == ref_pci.tobytes()
        assert report.second_eigenvalue == ref_vals[1]
        for (f, q), (ref_f, ref_q) in islice(
                zip(fitness_iterations(m), _dense_fitness_iterations(m)), 100):
            assert f.tobytes() == ref_f.tobytes()
            assert q.tobytes() == ref_q.tobytes()

    def test_model_world_metrics_build_no_dense_matrix(self, tmp_path, monkeypatch):
        world = simulate_world(ModelParams(tau=0.07, K=221), mode="mc", samples=20000, seed=1)
        path = tmp_path / "world.txt"
        write_matrix(world.matrix, path)

        def no_dense(self):
            raise AssertionError("metrics built a dense matrix")

        with monkeypatch.context() as patch:
            patch.setattr(BinaryMatrix, "to_dense", no_dense)
            assert main(["metrics", str(path), "--out-dir", str(tmp_path / "out")]) == 0
            m = prune_degenerate(world.matrix)
            steps = 0
            with pytest.raises(NumericalUnderflow):
                for _ in fitness_iterations(m):
                    steps += 1
        report = json.loads((tmp_path / "out" / "metrics_report.json").read_text())
        assert list(report["errors"]) == ["fitness"]
        assert report["errors"]["fitness"].startswith("NumericalUnderflow")
        assert report["matrix"]["product_classes"] < 222 < m.n_products
        ref_steps = 0
        with pytest.raises(NumericalUnderflow):
            for _ in _dense_fitness_iterations(m):
                ref_steps += 1
        assert steps == ref_steps
