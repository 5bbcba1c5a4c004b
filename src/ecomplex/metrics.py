"""Complexity metrics on a binary country-product matrix.

Three families:

* TDI/TSI: standardized log-diversification and negative standardized
  log-ubiquity. Cheap, monotone in the raw counts.
* ECI/PCI: second-dominant eigenvectors of the row- and column-averaging
  operators W W* and W* W, standardized and sign-oriented.
* Fitness/Q: the normalized harmonic-mean fixed point, iterated to a
  relative-change tolerance.

ECI/PCI and fitness see a product only through the countries that make
it, so both run on the country x column-class matrix
(``BinaryMatrix.column_classes``) and expand per-class values back to
products: products made by the same countries get equal PCI and Q.

All vectors are standardized with the population (divide by N) standard
deviation so the mean-0/std-1 contract is exact, not approximate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DegenerateVector,
    DisconnectedMatrix,
    EcomplexError,
    NonConvergence,
    NumericalUnderflow,
)
from .matrix import BinaryMatrix

__all__ = [
    "CountryMetrics",
    "ProductMetrics",
    "EigenReport",
    "standardize",
    "tdi",
    "tsi",
    "eci_pci",
    "fitness_class_iterations",
    "fitness_complexity",
    "run_metrics",
    "compute_metrics",
]

_FLOOR = 1e-300
_EIGEN_TIE_TOL = 1e-10


@dataclass(frozen=True)
class CountryMetrics:
    country_labels: tuple[str, ...]
    diversification: np.ndarray
    tdi: np.ndarray | None
    eci: np.ndarray | None
    fitness: np.ndarray | None


@dataclass(frozen=True)
class ProductMetrics:
    product_labels: tuple[str, ...]
    ubiquity: np.ndarray
    tsi: np.ndarray | None
    pci: np.ndarray | None
    q: np.ndarray | None


@dataclass(frozen=True)
class EigenReport:
    """Diagnostics from the spectral computation.

    ``leading_eigenvalue`` should be 1 up to solver tolerance (the
    averaging operators are row-stochastic). ``second_eigenvalue`` is the
    one whose eigenvector becomes ECI. Sign flags record whether the raw
    solver output had to be negated to satisfy the orientation rule.
    """

    leading_eigenvalue: float
    second_eigenvalue: float
    eci_sign_flipped: bool
    pci_sign_flipped: bool
    solver: str = "dense symmetric"


def standardize(v) -> np.ndarray:
    """Shift to mean 0 and scale to population std 1.

    Raises DegenerateVector when the input has zero variance, since no
    affine map can then spread it.
    """
    v = np.asarray(v, dtype=float)
    if v.size < 2:
        raise DegenerateVector("need at least two values to standardize")
    return _standardize_in_place(v.copy())


def _standardize_in_place(v: np.ndarray) -> np.ndarray:
    """standardize's arithmetic, (v - mean) / std, written over v."""
    mu = v.mean()
    sigma = v.std()
    if sigma == 0:
        raise DegenerateVector("zero variance")
    v -= mu
    v /= sigma
    return v


def tdi(m: BinaryMatrix) -> np.ndarray:
    """Standardized log-diversification, one value per country."""
    d = m.diversification
    if np.any(d < 1):
        raise DegenerateVector("prune zero-diversification countries first")
    return standardize(np.log(d))


def tsi(m: BinaryMatrix) -> np.ndarray:
    """Negative standardized log-ubiquity, one value per product.

    Rare products (low u) score high.
    """
    u = m.ubiquity
    if np.any(u < 1):
        raise DegenerateVector("prune zero-ubiquity products first")
    return -standardize(np.log(u))


def _average_ranks(v, counts=None) -> np.ndarray:
    """1-based ranks in which tied values share the mean of their
    positions; any NaN makes every rank NaN. With counts, v[k] stands
    for counts[k] equal values, and gets their shared rank."""
    v = np.asarray(v, dtype=float)
    if np.isnan(v).any():
        return np.full(v.shape, np.nan)
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[v.size > 0, ordered[1:] != ordered[:-1]])
    ties = np.diff(np.r_[starts, v.size])
    w = (np.ones(v.size) if counts is None else np.asarray(counts, dtype=float))[order]
    # positions before each tie group, and the positions it spans
    before = (np.cumsum(w) - w)[starts]
    size = np.add.reduceat(w, starts)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(before + (size + 1) / 2, ties)
    return ranks


def _pearson(a, b, counts=None) -> float:
    """Pearson correlation, pair k counted counts[k] times (once without
    counts); 0 when either side is constant."""
    ca, cb = (v - np.average(v, weights=counts)
              for v in (np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    w = 1.0 if counts is None else counts
    denom = np.sqrt((w * ca * ca).sum() * (w * cb * cb).sum())
    if denom == 0:
        return 0.0
    return float((w * ca * cb).sum() / denom)


def _spearman(a, b, counts=None) -> float:
    """Pearson correlation of average ranks, pair k counted counts[k]
    times (once without counts); 0 when either side is constant."""
    return _pearson(_average_ranks(a, counts), _average_ranks(b, counts), counts)


def _flip(v: np.ndarray, ref: np.ndarray, sign: int, counts=None) -> bool:
    """Whether v must be negated to co-rank (sign 1) or counter-rank
    (sign -1) with ref: by the Spearman correlation, on an exact tie by
    the Pearson correlation, and when that is 0 too so that the first
    nonzero component of v is positive. With counts, pair k counts
    counts[k] times in both correlations."""
    corr = _spearman(v, ref, counts) or _pearson(v, ref, counts)
    if corr != 0:
        return sign * corr < 0
    return bool(v[np.flatnonzero(v)[0]] < 0)


def eci_pci(m: BinaryMatrix) -> tuple[np.ndarray, np.ndarray, EigenReport]:
    """Second-dominant eigenvectors of the two averaging operators.

    The country operator is W W* with w_ij = m_ij/d_i and w*_ji = m_ij/u_j.
    It is similar to the symmetric matrix S = A A^T where
    A = D^{-1/2} M U^{-1/2}, so the spectrum is computed with a symmetric
    solver on S and the eigenvectors mapped back through D^{-1/2}. The
    products of one column class add equal terms to S, so A keeps one
    column per class, scaled by the square root of its product count. The
    product-side vector is obtained by propagating the country vector
    through W*, which lands exactly on the corresponding eigenvector of
    W* W (same eigenvalue) without a second decomposition.

    Signs are fixed so that ECI co-ranks with diversification and PCI
    counter-ranks with ubiquity. When a Spearman correlation is exactly 0,
    the Pearson correlation with d (or u) decides, and when that is 0 as
    well, the first nonzero component is made positive, so the solver's
    arbitrary eigenvector sign never decides.

    PCI is oriented, and checked for constancy, on the column classes, each
    counted once per product. The first-component step is the products'
    exactly (classes are numbered by their first product); the Spearman step
    is too while the rank sums are exact, below about 2e5 products. Past
    that, or for the Pearson step in floating point, the decision can differ
    only when the correlation is within rounding of 0. Only PCI itself is
    expanded to products, so the call allocates about two product-sized arrays.
    """
    n_c, n_p = m.n_countries, m.n_products
    if n_c < 3 or n_p < 3:
        raise DegenerateVector("need at least 3 countries and 3 products")
    d = m.diversification.astype(float)
    if np.any(d < 1) or np.any(m.ubiquity < 1):
        raise DegenerateVector("prune zero-marginal rows/columns first")

    cls = m.column_classes
    u_cls = m.ubiquity[cls.first].astype(float)
    # one class-sized buffer: A is scaled in place, and reused below for W*
    a = np.divide(cls.matrix, np.sqrt(d)[:, None])
    a /= np.sqrt(u_cls / cls.counts)[None, :]
    s = a @ a.T
    eigvals, eigvecs = np.linalg.eigh(s)
    order = np.argsort(np.abs(eigvals))[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    leading = float(eigvals[0])
    second = float(eigvals[1])

    if abs(second) >= 1.0 - _EIGEN_TIE_TOL:
        raise DisconnectedMatrix(
            "second eigenvalue magnitude is 1; the matrix has several "
            "connected components and the second eigenvector is not unique"
        )
    third = float(eigvals[2])
    if abs(abs(second) - abs(third)) < _EIGEN_TIE_TOL:
        raise DegenerateSpectrum(
            f"second and third eigenvalue magnitudes tie "
            f"(|{second:.3e}| vs |{third:.3e}|)"
        )

    # Map the symmetric-problem eigenvector back to the similar
    # nonsymmetric operator's eigenvector.
    c_raw = eigvecs[:, 1] / np.sqrt(d)
    eci = standardize(c_raw)
    flip_c = _flip(eci, d, 1)
    if flip_c:
        eci = -eci

    # W* applied to the country eigenvector gives the product eigenvector,
    # once per class. pci, expanded to products, is the one product-sized
    # result, standardized and oriented in place.
    p_cls = np.divide(cls.matrix, u_cls[None, :], out=a).T @ c_raw
    if np.allclose(p_cls, p_cls @ cls.counts / n_p):  # against the products' mean
        raise DegenerateVector("product-side eigenvector is constant")
    pci = _standardize_in_place(p_cls[cls.inverse])
    flip_p = _flip(pci[cls.first], u_cls, -1, cls.counts)
    if flip_p:
        np.negative(pci, out=pci)

    report = EigenReport(
        leading_eigenvalue=leading,
        second_eigenvalue=second,
        eci_sign_flipped=flip_c,
        pci_sign_flipped=flip_p,
    )
    return eci, pci, report


def fitness_class_iterations(m: BinaryMatrix):
    """Generator over (F, Q) iterates of the normalized fixed point, one
    Q per column class, each class weighted by its product count
    (``q[m.column_classes.inverse]`` is each product's Q).

    Yields the normalized pair after each synchronous update, starting
    from the all-ones state. Infinite; fitness_complexity drives it.
    Raises NumericalUnderflow if any component of the unnormalized state
    drops below 1e-300.
    """
    cls = m.column_classes
    mat, cnt, n_p = cls.matrix, cls.counts, m.n_products
    c = np.ones(m.n_countries)
    p = np.ones(len(cnt))  # one value per class
    while True:
        weighted = cnt * p
        p_mean = weighted.sum() / n_p
        yield c / c.mean(), p / p_mean
        c_new = (mat @ weighted) / p_mean
        p_new = 1.0 / (c.mean() * ((1.0 / c) @ mat))
        if np.any(c_new < _FLOOR) or np.any(p_new < _FLOOR):
            raise NumericalUnderflow(
                "an iterate fell below the positivity floor (1e-300)"
            )
        c, p = c_new, p_new


def fitness_complexity(
    m: BinaryMatrix, tol: float = 1e-10, max_iter: int = 10000
) -> tuple[np.ndarray, np.ndarray, int]:
    """Iterate the fitness fixed point to a relative-change tolerance.

    Both updates use the previous step's values (synchronous scheme).
    Stops when the largest relative change over the normalized F and Q
    drops below tol; raises NonConvergence when max_iter synchronous
    steps do not get there, attaching the last iterate for inspection.
    Every product's Q is its column class's Q, so the largest change is
    taken over the classes, and Q is expanded to products only for the
    result.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    inverse = m.column_classes.inverse
    it = fitness_class_iterations(m)
    prev_f, prev_q = next(it)
    for n in range(1, max_iter + 1):
        f, q = next(it)
        # np.maximum, unlike max, keeps a NaN change from either side;
        # an empty side (no countries or no products) changes by -inf
        change = float(np.maximum(
            np.max(np.abs(f - prev_f) / np.abs(prev_f), initial=-np.inf),
            np.max(np.abs(q - prev_q) / np.abs(prev_q), initial=-np.inf)))
        if change < tol:
            return f, q[inverse], n
        prev_f, prev_q = f, q
    raise NonConvergence(
        f"fitness iteration did not converge in {max_iter} steps "
        f"(last relative change {change:.3e})",
        fitness=f,
        q=q[inverse],
        iterations=max_iter,
        last_change=change,
    )


# The metric families run_metrics runs, by the name its errors use, in
# the order it reports them. Each calls its function through the module
# global, so a rebound name is the one called.
FAMILIES = {
    "tdi": lambda m, tol, max_iter: tdi(m),
    "tsi": lambda m, tol, max_iter: tsi(m),
    "eci_pci": lambda m, tol, max_iter: eci_pci(m),
    "fitness": lambda m, tol, max_iter: fitness_complexity(m, tol=tol, max_iter=max_iter),
}
# The family run_metrics runs on a second thread; the others run on the
# caller's, so a tracer that keeps one span stack (the benchmark's does)
# still sees fitness iterate under fitness_complexity's span.
_SECOND_THREAD = "eci_pci"


def _attempt(errors: dict, key: str, run):
    """run(), or None with the EcomplexError it raised kept as errors[key]."""
    try:
        return run()
    except EcomplexError as exc:
        errors[key] = exc
        return None


def run_metrics(
    m: BinaryMatrix, tol: float = 1e-10, max_iter: int = 10000
) -> tuple[CountryMetrics, ProductMetrics, EigenReport | None, int | None,
           dict[str, EcomplexError]]:
    """Every family on the same matrix: ECI/PCI on a second thread while
    TDI, TSI and then fitness run on the caller's. Neither thread reads
    the other's output or writes an array the other reads, so the results
    are those of running the families one after another.

    A family that raises EcomplexError leaves its fields, and the eigen
    report or iteration count it gives, None; the last item maps each
    failed family (a FAMILIES key) to its error, in FAMILIES order. Any
    other exception is raised once both threads are done, the first in
    FAMILIES order; the caller's thread starts no family after one
    raised it."""
    m.column_classes  # 3.12's cached_property has no lock: build it before two threads read it
    errors, results, raised = {}, {}, {}

    def run(name):
        try:
            results[name] = _attempt(errors, name, lambda: FAMILIES[name](m, tol, max_iter))
        except BaseException as exc:  # kept for the caller; nothing reaches threading.excepthook
            raised[name] = exc

    # a daemon, so an interrupted caller does not wait for it at exit
    second = threading.Thread(target=run, args=(_SECOND_THREAD,), daemon=True)
    second.start()
    for name in FAMILIES:
        if name != _SECOND_THREAD:
            run(name)
            if name in raised:
                break
    second.join()
    if raised:
        raise next(raised[name] for name in FAMILIES if name in raised)
    errors = {name: errors[name] for name in FAMILIES if name in errors}
    eci, pci, report = results["eci_pci"] or (None, None, None)
    f, q, iters = results["fitness"] or (None, None, None)
    cm = CountryMetrics(m.country_labels, m.diversification, results["tdi"], eci, f)
    pm = ProductMetrics(m.product_labels, m.ubiquity, results["tsi"], pci, q)
    return cm, pm, report, iters, errors


def compute_metrics(
    m: BinaryMatrix, tol: float = 1e-10, max_iter: int = 10000
) -> tuple[CountryMetrics, ProductMetrics, EigenReport, int]:
    """All four families (TDI, TSI, ECI/PCI, fitness) on the same matrix,
    as run_metrics runs them; raises the first family's failure in
    FAMILIES order (run_metrics reports failures instead)."""
    *result, errors = run_metrics(m, tol, max_iter)
    if errors:
        raise next(iter(errors.values()))
    return tuple(result)
