"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the production code paths: roots come from
companion-matrix eigenvalues (``np.roots``), singular values from a full
SVD, preconditioned spectra from a dense generalized eigensolver.
"""

import numpy as np
import scipy.linalg as sla

from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    random_system,
    regularization_ratio,
    schur_complements,
    validate,
)


def companion_roots(cubic) -> np.ndarray:
    """Sorted real parts of the companion-matrix eigenvalues of a monic cubic."""
    return np.sort(np.roots([1.0, cubic.c2, cubic.c1, cubic.c0]).real)


def svd_extremes(matrix) -> tuple[float, float]:
    """Full-SVD oracle for the extreme singular values of a wide matrix."""
    vals = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    return float(vals[-1]), float(vals[0])


def generalized_spectrum(matrix, metric) -> np.ndarray:
    """Dense generalized eigenvalues of (matrix, metric), ascending."""
    return np.sort(sla.eigh(matrix, metric, eigvals_only=True))


def random_extremes(rng, n, m, p, d_zero=False, e_zero=False) -> BlockExtremes:
    """Plausible random extremes, honoring single-value blocks."""

    def positive_pair(base, k):
        lo = base * rng.uniform(0.5, 1.5)
        hi = lo * rng.uniform(1.5, 4.0)
        if k == 1:
            lo = hi
        return lo, hi

    def psd_pair(base, k, zero):
        if zero:
            return 0.0, 0.0
        hi = base * rng.uniform(0.3, 1.2)
        lo = 0.0 if rng.random() < 0.5 else hi * rng.uniform(0.1, 0.6)
        if k == 1:
            lo = hi
        return lo, hi

    mu_a = positive_pair(0.8, n)
    sigma_b = positive_pair(0.6, m)
    sigma_c = positive_pair(0.5, p)
    mu_d = psd_pair(0.6, m, d_zero)
    mu_e = psd_pair(0.5, p, e_zero)
    return BlockExtremes(*mu_a, *sigma_b, *sigma_c, *mu_d, *mu_e)


def random_valid_system(rng, n, m, p, d_zero=False, e_zero=False):
    """Seeded random system with full-row-rank couplings, plus its extremes."""
    extremes = random_extremes(rng, n, m, p, d_zero=d_zero, e_zero=e_zero)
    seed = int(rng.integers(0, 2**31))
    return random_system(n, m, p, seed, extremes), extremes


def singular_s1_system() -> DoubleSaddleSystem:
    """A = I and two equal rows of B with D = 0: S1 = B B^T is formed
    exactly, so its Cholesky meets an exactly zero pivot."""
    return DoubleSaddleSystem(
        A=np.eye(4),
        B=np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
        C=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        D=np.zeros((3, 3)),
        E=np.eye(2),
    )


def measured_etas(system) -> tuple[float, float]:
    """(eta_d, eta_e) as ``analyze`` measures them: the Schur pair's Grams
    with the rank verdicts of :func:`validate`."""
    report = validate(system)
    pair = schur_complements(system)
    return (regularization_ratio(system.D, pair.gram_b, report.b_full_row_rank),
            regularization_ratio(system.E, pair.gram_c, report.c_full_row_rank))


def random_dims(rng, n_max=14):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, n + 1))
    p = int(rng.integers(1, m + 1))
    return n, m, p
