"""Eigenvalue and singular-value kernels.

Dense symmetric decompositions below a size cutoff, Lanczos with full
reorthogonalization above it.  Also home to the Schur complements of a
system and the two regularization ratios (largest generalized eigenvalues
of the regularization blocks against the coupling Grams) that drive the
inexact-preconditioner bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .errors import (
    ConvergenceError,
    DefinitenessError,
    OracleSizeError,
    ParameterError,
)
from .system import DoubleSaddleSystem, _sym

ORACLE_CUTOFF = 4096
EIG_TOL = 1e-10
ZERO_TOL = 1e-11

# fixed Lanczos start vector seed: identical runs give identical estimates
_LANCZOS_SEED = 0x5ADD1E


@dataclass(frozen=True)
class BlockExtremes:
    """The ten extremal eigen/singular values feeding every bound formula."""

    mu_min_a: float
    mu_max_a: float
    sigma_min_b: float
    sigma_max_b: float
    sigma_min_c: float
    sigma_max_c: float
    mu_min_d: float
    mu_max_d: float
    mu_min_e: float
    mu_max_e: float

    def __post_init__(self):
        if not self.mu_min_a > 0:
            raise ParameterError("leading-block eigenvalues must be positive")
        if self.mu_min_d < 0 or self.mu_min_e < 0:
            raise ParameterError("regularization blocks must be positive semidefinite")
        if self.sigma_min_b < 0 or self.sigma_min_c < 0:
            raise ParameterError("singular values cannot be negative")
        pairs = (
            (self.mu_min_a, self.mu_max_a),
            (self.sigma_min_b, self.sigma_max_b),
            (self.sigma_min_c, self.sigma_max_c),
            (self.mu_min_d, self.mu_max_d),
            (self.mu_min_e, self.mu_max_e),
        )
        for lo, hi in pairs:
            if lo > hi:
                raise ParameterError(f"extreme pair out of order: {lo} > {hi}")

    @classmethod
    def from_system(cls, system: DoubleSaddleSystem) -> "BlockExtremes":
        """Measure the extremes of each block of a system.

        Semidefinite blocks may report tiny negative minima from round-off;
        those are clamped to zero.
        """
        mu_a = extremal_eigs(system.A)
        sig_b = extremal_svals(system.B)
        sig_c = extremal_svals(system.C)
        mu_d = extremal_eigs(system.D)
        mu_e = extremal_eigs(system.E)

        def clamp(pair):
            lo, hi = pair
            scale = max(abs(lo), abs(hi), 1.0)
            if lo < 0 and lo >= -1e-12 * scale:
                lo = 0.0
            return lo, max(hi, lo)

        mu_d = clamp(mu_d)
        mu_e = clamp(mu_e)
        return cls(*mu_a, *sig_b, *sig_c, *mu_d, *mu_e)

    def without_regularization(self) -> "BlockExtremes":
        return replace(self, mu_min_d=0.0, mu_max_d=0.0, mu_min_e=0.0, mu_max_e=0.0)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and zero eigenvalues."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def astuple(self) -> tuple[int, int, int]:
        return self.n_plus, self.n_minus, self.n_zero


@dataclass(frozen=True)
class SchurPair:
    """Both Schur complements, the ``cho_factor`` results of A and S1, and
    the regularization ratio constants, each solved on first read.

    ``eta_d`` is the largest generalized eigenvalue of (D, B A^-1 B^T) and
    ``eta_e`` of (E, C S1^-1 C^T); either is ``inf`` when the corresponding
    coupling block is row-rank-deficient while the regularization block is
    nonzero, and exactly zero when the regularization block vanishes.
    """

    s1: np.ndarray
    s2: np.ndarray
    cho_a: tuple = field(repr=False)
    cho_1: tuple = field(repr=False)
    pencil_d: tuple = field(repr=False)
    pencil_e: tuple = field(repr=False)

    @cached_property
    def eta_d(self) -> float:
        return _regularization_ratio(*self.pencil_d)

    @cached_property
    def eta_e(self) -> float:
        return _regularization_ratio(*self.pencil_e)


def extremal_eigs(
    matrix,
    dense_cutoff: int = ORACLE_CUTOFF,
    eig_tol: float = EIG_TOL,
    max_iter: int = 600,
) -> tuple[float, float]:
    """Smallest and largest eigenvalues of a symmetric matrix.

    Dense decomposition up to ``dense_cutoff``; beyond that a Lanczos
    iteration with full reorthogonalization and a fixed-seed start vector,
    certified by the residual test ||A v - t v|| <= eig_tol * ||A||.
    """
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if a.shape != (dim, dim):
        raise ParameterError(f"matrix must be square, got {a.shape}")
    if dim <= dense_cutoff:
        vals = np.linalg.eigvalsh(_sym(a))
        return float(vals[0]), float(vals[-1])
    return _lanczos_extremes(_sym(a), eig_tol, max_iter)


def _lanczos_extremes(a: np.ndarray, eig_tol: float, max_iter: int):
    dim = a.shape[0]
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)

    basis = np.empty((max_iter, dim))
    alphas = np.empty(max_iter)
    betas = np.empty(max_iter)
    basis[0] = q
    best = None

    k = 0
    while k < max_iter:
        w = a @ basis[k]
        alphas[k] = basis[k] @ w
        w -= alphas[k] * basis[k]
        if k > 0:
            w -= betas[k - 1] * basis[k - 1]
        # full reorthogonalization keeps the Ritz extremes trustworthy
        w -= basis[: k + 1].T @ (basis[: k + 1] @ w)
        beta = np.linalg.norm(w)
        k += 1

        scale_run = max(float(np.abs(alphas[:k]).max()), float(np.abs(betas[: k - 1]).max(initial=0.0)))
        breakdown = beta <= 1e-14 * max(scale_run, np.finfo(float).tiny)
        if k % 8 == 0 or breakdown or k == max_iter:
            theta, vecs = sla.eigh_tridiagonal(
                alphas[:k], betas[: k - 1], select="a", eigvals_only=False
            )
            scale = max(abs(theta[0]), abs(theta[-1]), np.finfo(float).tiny)
            lo_vec = basis[:k].T @ vecs[:, 0]
            hi_vec = basis[:k].T @ vecs[:, -1]
            res_lo = np.linalg.norm(a @ lo_vec - theta[0] * lo_vec)
            res_hi = np.linalg.norm(a @ hi_vec - theta[-1] * hi_vec)
            best = (float(theta[0]), float(theta[-1]))
            if max(res_lo, res_hi) <= eig_tol * scale:
                return best
        if breakdown or k == max_iter:
            break
        basis[k] = w / beta
        betas[k - 1] = beta

    raise ConvergenceError(
        f"Lanczos failed to certify extremal eigenvalues after {k} iterations",
        best=best,
    )


def extremal_svals(matrix) -> tuple[float, float]:
    """Smallest and largest of the r singular values of an r x c matrix, r <= c.

    The smallest is the r-th largest singular value and is zero exactly when
    the matrix is row-rank-deficient.  Computed from the r x r Gram matrix.
    """
    a = np.asarray(matrix, dtype=float)
    r, c = a.shape
    if r > c:
        raise ParameterError(f"expected a wide matrix (rows <= cols), got {a.shape}")
    lo, hi = extremal_eigs(a @ a.T)
    return float(np.sqrt(max(lo, 0.0))), float(np.sqrt(max(hi, 0.0)))


def full_spectrum(matrix, oracle_cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending; desk scale only."""
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if dim > oracle_cutoff:
        raise OracleSizeError(
            f"full spectrum refused for dimension {dim} > cutoff {oracle_cutoff}"
        )
    return np.linalg.eigvalsh(_sym(a))


def inertia(
    matrix,
    zero_tol: float = ZERO_TOL,
    oracle_cutoff: int = ORACLE_CUTOFF,
) -> Inertia:
    """Inertia of a symmetric matrix via a pivoted LDL^T factorization.

    Signs are counted on the 1x1 and 2x2 blocks of the block-diagonal
    factor, which Sylvester's law makes congruence-exact.  A factorization
    failure falls back to counting the dense spectrum; eigenvalues with
    magnitude at most ``zero_tol * ||M||`` count as zero.
    """
    a = _sym(np.asarray(matrix, dtype=float))
    dim = a.shape[0]
    scale = max(float(np.abs(a).sum(axis=0).max(initial=0.0)), np.finfo(float).tiny)
    cut = zero_tol * scale

    try:
        _, d, _ = sla.ldl(a)
    except (sla.LinAlgError, ValueError):
        d = None

    if d is not None:
        vals, i = [], 0
        while i < dim:
            if i + 1 < dim and abs(d[i + 1, i]) > cut:
                # 2x2 pivot block: take its two eigenvalues directly
                t = 0.5 * (d[i, i] + d[i + 1, i + 1])
                radius = np.hypot(0.5 * (d[i, i] - d[i + 1, i + 1]), d[i + 1, i])
                vals += [t - radius, t + radius]
                i += 2
            else:
                vals.append(d[i, i])
                i += 1
        vals = np.array(vals)
    elif dim > oracle_cutoff:
        raise OracleSizeError(
            f"inertia fallback needs a dense spectrum; dimension {dim} exceeds "
            f"cutoff {oracle_cutoff}"
        )
    else:
        vals = full_spectrum(a, oracle_cutoff)
    n_plus = int(np.count_nonzero(vals > cut))
    n_minus = int(np.count_nonzero(vals < -cut))
    return Inertia(n_plus, n_minus, vals.size - n_plus - n_minus)


def schur_complements(system: DoubleSaddleSystem) -> SchurPair:
    """Form S1 = D + B A^-1 B^T and S2 = E + C S1^-1 C^T with their ratios.

    Both complements are built with triangular solves against Cholesky
    factors, which the result keeps.  The ratios are symmetric generalized
    eigenproblems (D v = eta * (B A^-1 B^T) v and its analogue), which need
    the coupling Gram to be definite, i.e. the coupling block to have full
    row rank.
    """
    try:
        cho_a = sla.cho_factor(_sym(system.A))
    except sla.LinAlgError as exc:
        raise DefinitenessError("leading block is not positive definite") from exc
    gram_b = _sym(system.B @ sla.cho_solve(cho_a, system.B.T))
    s1 = _sym(system.D + gram_b)
    try:
        cho_1 = sla.cho_factor(s1)
    except sla.LinAlgError as exc:
        raise DefinitenessError("first Schur complement is not positive definite") from exc
    gram_c = _sym(system.C @ sla.cho_solve(cho_1, system.C.T))
    s2 = _sym(system.E + gram_c)

    return SchurPair(
        s1=s1,
        s2=s2,
        cho_a=cho_a,
        cho_1=cho_1,
        pencil_d=(system.D, gram_b),
        pencil_e=(system.E, gram_c),
    )


def _regularization_ratio(reg: np.ndarray, gram: np.ndarray) -> float:
    if not np.any(reg):
        return 0.0
    try:
        vals = sla.eigh(_sym(reg), gram, eigvals_only=True)
    except sla.LinAlgError:  # the Gram is singular
        return float("inf")
    return max(float(vals[-1]), 0.0)
