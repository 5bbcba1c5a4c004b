"""Shared fixtures: the nested 3x3 matrix and a random-matrix factory,
plus a tracemalloc peak probe, per-entry and per-product views and a
label type of one shared hash that only tests need."""

import tracemalloc

import numpy as np
import pytest

from ecomplex import BinaryMatrix, EmptyMatrix, fitness_class_iterations, prune_degenerate


def entries(m) -> frozenset[tuple[int, int]]:
    """The matrix's (i, j) entries as a set."""
    return frozenset(zip(m.rows.tolist(), m.cols.tolist()))


class SameHash(str):
    """A label whose hash is every other SameHash label's, so label checks
    must compare the labels themselves."""

    def __hash__(self):
        return 7


def fitness_iterations(m: BinaryMatrix):
    """The (F, Q) iterates of fitness_class_iterations with Q expanded
    from column classes to products."""
    inverse = m.column_classes.inverse
    for f, q in fitness_class_iterations(m):
        yield f, q[inverse]


def traced_peak(call) -> int:
    """Bytes allocated at the peak of call() beyond those allocated before
    it; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def bipartite_connected(m: BinaryMatrix) -> bool:
    """Breadth-first check that every country and product is reachable."""
    dense = m.to_dense()
    n_c, n_p = dense.shape
    if n_c == 0 or n_p == 0:
        return False
    seen_c = np.zeros(n_c, bool)
    seen_p = np.zeros(n_p, bool)
    stack = [("c", 0)]
    seen_c[0] = True
    while stack:
        kind, i = stack.pop()
        if kind == "c":
            for j in np.nonzero(dense[i])[0]:
                if not seen_p[j]:
                    seen_p[j] = True
                    stack.append(("p", j))
        else:
            for i2 in np.nonzero(dense[:, i])[0]:
                if not seen_c[i2]:
                    seen_c[i2] = True
                    stack.append(("c", i2))
    return bool(seen_c.all() and seen_p.all())


def random_connected_matrix(rng, max_countries=40, max_products=200) -> BinaryMatrix:
    """Random pruned connected BinaryMatrix with margins of at least 2.

    Margins of exactly 1 can put the fitness iteration on a boundary
    where some component decays geometrically and a relative-change
    stopping rule never fires, so the factory resamples until every
    country holds >= 2 products and every product >= 2 countries.
    """
    while True:
        n_c = int(rng.integers(5, max_countries + 1))
        n_p = int(rng.integers(10, max_products + 1))
        density = float(rng.uniform(0.08, 0.5))
        dense = rng.random((n_c, n_p)) < density
        if not dense.any():
            continue
        try:
            m = prune_degenerate(BinaryMatrix.from_dense(dense))
        except EmptyMatrix:
            continue
        if (
            m.n_countries >= 3
            and m.n_products >= 3
            and m.diversification.min() >= 2
            and m.ubiquity.min() >= 2
            and bipartite_connected(m)
        ):
            return m


@pytest.fixture
def nested3() -> BinaryMatrix:
    """The triangular 3x3 matrix: country 0 makes everything, country 2
    only the universal product."""
    return BinaryMatrix.from_dense([[1, 1, 1], [1, 1, 0], [1, 0, 0]])


@pytest.fixture
def matrix_factory():
    def make(seed: int, **kwargs) -> BinaryMatrix:
        return random_connected_matrix(np.random.default_rng(seed), **kwargs)

    return make
