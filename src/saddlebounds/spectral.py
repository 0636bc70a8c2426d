"""Eigenvalue and singular-value kernels, and the structural checks built on them.

Extremal eigenvalues come from a dense symmetric decomposition up to
``ORACLE_CUTOFF`` and from ARPACK (``eigsh``) above it.  Singular values,
and with them every rank decision, come from one SVD helper.  Also home to
the Schur complements of a system, the two regularization ratios (largest
generalized eigenvalues of the regularization blocks against the coupling
Grams) that drive the inexact-preconditioner bounds, and :func:`validate`,
which checks the hypotheses of the bounds with these same kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping

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
SYM_TOL = 1e-12
RANK_TOL = 1e-10
EIG_TOL = 1e-10
ZERO_TOL = 1e-11

# fixed start vector seed: identical runs give identical estimates
_ARPACK_SEED = 0x5ADD1E
# work cap: a 32-vector Lanczos basis restarted at most 20 times is about
# 630 matrix-vector products
_ARPACK_NCV = 32
_ARPACK_RESTARTS = 20

_TINY = float(np.finfo(float).tiny)


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
            if lo < 0 and lo >= -SYM_TOL * scale:
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
class ValidationReport:
    """Outcome of every structural check on a system.

    ``kernel_conditions`` are the three necessary invertibility conditions
    (no common kernel between stacked blocks); ``schur_definite`` records
    positive definiteness of the two Schur complements, which is sufficient
    for invertibility and implies every kernel condition.
    """

    symmetric_ok: Mapping[str, bool]
    definiteness_ok: Mapping[str, bool]
    kernel_conditions: tuple[bool, bool, bool]
    schur_definite: tuple[bool, bool]
    b_full_row_rank: bool
    c_full_row_rank: bool
    c_nullity_k: int

    @property
    def ok(self) -> bool:
        return (
            all(self.symmetric_ok.values())
            and all(self.definiteness_ok.values())
            and all(self.kernel_conditions)
            and all(self.schur_definite)
        )


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


def extremal_eigs(matrix, dense_cutoff: int = ORACLE_CUTOFF) -> tuple[float, float]:
    """Smallest and largest eigenvalues of a symmetric matrix.

    Dense decomposition up to ``dense_cutoff``; beyond that ARPACK from a
    fixed-seed start vector, certified by the residual test
    ||A v - t v|| <= EIG_TOL * max|t|.
    """
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if a.shape != (dim, dim):
        raise ParameterError(f"matrix must be square, got {a.shape}")
    if dim <= dense_cutoff:
        vals = np.linalg.eigvalsh(_sym(a))
        return float(vals[0]), float(vals[-1])
    return _arpack_extremes(_sym(a))  # _sym copies, so the shift stays local


def _arpack_extremes(a: np.ndarray) -> tuple[float, float]:
    # imported here: loading ARPACK adds about 2 MB of resident memory, and
    # only blocks above the cutoff need it
    import scipy.sparse.linalg as spla

    dim = a.shape[0]
    # ARPACK judges each Ritz value relative to itself.  Shifting by twice
    # the infinity norm puts every eigenvalue in [|a|, 3 |a|], so its test
    # becomes one relative to the norm, like the certificate; the factor
    # 1e-3 covers the gap between the norm and the spectral radius.
    shift = 2.0 * float(np.abs(a).sum(axis=1).max())
    if shift == 0.0:
        return 0.0, 0.0
    a.flat[:: dim + 1] += shift
    start = np.random.default_rng(_ARPACK_SEED).standard_normal(dim)
    try:
        theta, vecs = spla.eigsh(
            a, k=2, which="BE", v0=start, ncv=min(dim, _ARPACK_NCV),
            maxiter=_ARPACK_RESTARTS, tol=1e-3 * EIG_TOL,
        )
    except spla.ArpackNoConvergence as exc:
        found = exc.eigenvalues - shift
        best = (float(found.min()), float(found.max())) if len(found) else None
        raise ConvergenceError(
            "ARPACK did not converge to both extremal eigenvalues", best=best
        ) from exc
    residual = float(np.linalg.norm(a @ vecs - vecs * theta, axis=0).max())
    best = (float(theta[0] - shift), float(theta[-1] - shift))
    if residual > EIG_TOL * max(abs(best[0]), abs(best[1]), _TINY):
        raise ConvergenceError(
            f"ARPACK extremes failed the residual certificate ({residual:.3e})",
            best=best,
        )
    return best


def _singular_values(matrix) -> np.ndarray:
    """All singular values, descending: the one source of ranks and sigma extremes."""
    return np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)


def _rank(svals: np.ndarray) -> int:
    return int(np.count_nonzero(svals > RANK_TOL * max(float(svals[0]), _TINY)))


def extremal_svals(matrix) -> tuple[float, float]:
    """Smallest and largest of the r singular values of an r x c matrix, r <= c.

    The smallest is the r-th largest singular value and is zero exactly when
    the matrix is row-rank-deficient.
    """
    a = np.asarray(matrix, dtype=float)
    r, c = a.shape
    if r > c:
        raise ParameterError(f"expected a wide matrix (rows <= cols), got {a.shape}")
    svals = _singular_values(a)
    return float(svals[-1]), float(svals[0])


def full_spectrum(matrix, oracle_cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending; desk scale only."""
    a = np.asarray(matrix, dtype=float)
    dim = a.shape[0]
    if dim > oracle_cutoff:
        raise OracleSizeError(
            f"full spectrum refused for dimension {dim} > cutoff {oracle_cutoff}"
        )
    return np.linalg.eigvalsh(_sym(a))


def inertia(matrix) -> Inertia:
    """Inertia of a symmetric matrix via a pivoted LDL^T factorization.

    Signs are counted on the 1x1 and 2x2 blocks of the block-diagonal
    factor, which Sylvester's law makes congruence-exact.  A factorization
    failure falls back to counting the dense spectrum; eigenvalues with
    magnitude at most ``ZERO_TOL * ||M||`` count as zero.
    """
    a = _sym(np.asarray(matrix, dtype=float))
    dim = a.shape[0]
    scale = max(float(np.abs(a).sum(axis=0).max(initial=0.0)), np.finfo(float).tiny)
    cut = ZERO_TOL * scale

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
    elif dim > ORACLE_CUTOFF:
        raise OracleSizeError(
            f"inertia fallback needs a dense spectrum; dimension {dim} exceeds "
            f"cutoff {ORACLE_CUTOFF}"
        )
    else:
        vals = full_spectrum(a)
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


def _symmetry_ok(block: np.ndarray) -> bool:
    scale = max(float(np.abs(block).max(initial=0.0)), _TINY)
    return bool(float(np.abs(block - block.T).max(initial=0.0)) <= SYM_TOL * scale)


def _definite(eig_range: tuple[float, float]) -> bool:
    lo, hi = eig_range
    return bool(lo > SYM_TOL * max(abs(lo), abs(hi), _TINY))


def _semidefinite(eig_range: tuple[float, float]) -> bool:
    lo, hi = eig_range
    return bool(lo >= -SYM_TOL * max(abs(lo), abs(hi), _TINY))


def _full_column_rank(stacked: np.ndarray) -> bool:
    return _rank(_singular_values(stacked)) == stacked.shape[1]


def validate(system: DoubleSaddleSystem) -> ValidationReport:
    """Run every structural invariant check and report the outcome.

    Symmetry and definiteness are judged relative to ``SYM_TOL``, ranks by
    singular values above ``RANK_TOL`` times the largest one; the nullity
    of C^T is p - rank(C).  A kernel condition whose top block is injective
    (A definite, B or C of full row rank) holds without a rank test of the
    stack.  S1 and S2 come from :func:`schur_complements`.
    """
    A, B, C, D, E = system.A, system.B, system.C, system.D, system.E
    _, m, p = system.dims

    symmetric_ok = {name: _symmetry_ok(getattr(system, name)) for name in "ADE"}
    a_pd = _definite(extremal_eigs(A))
    definiteness_ok = {
        "A": a_pd,
        "D": _semidefinite(extremal_eigs(D)),
        "E": _semidefinite(extremal_eigs(E)),
    }

    b_full_row_rank = _rank(_singular_values(B)) == m
    rank_c = _rank(_singular_values(C))
    c_full_row_rank = rank_c == p

    kernel_conditions = (
        a_pd or _full_column_rank(np.vstack([_sym(A), B])),
        b_full_row_rank or _full_column_rank(np.vstack([B.T, _sym(D), C])),
        c_full_row_rank or _full_column_rank(np.vstack([C.T, _sym(E)])),
    )

    s1_pd = s2_pd = False
    if a_pd:
        try:
            pair = schur_complements(system)
        except DefinitenessError:
            pass
        else:
            s1_pd = _definite(extremal_eigs(pair.s1))
            s2_pd = s1_pd and _definite(extremal_eigs(pair.s2))

    return ValidationReport(
        symmetric_ok=symmetric_ok,
        definiteness_ok=definiteness_ok,
        kernel_conditions=kernel_conditions,
        schur_definite=(s1_pd, s2_pd),
        b_full_row_rank=b_full_row_rank,
        c_full_row_rank=c_full_row_rank,
        c_nullity_k=p - rank_c,
    )
