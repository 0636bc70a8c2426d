"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the production code paths: roots come from
companion-matrix eigenvalues (``np.roots``), singular values from a full
SVD, preconditioned spectra from a dense generalized eigensolver.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from saddlebounds import (
    BlockExtremes,
    DoubleSaddleSystem,
    random_system,
    regularization_ratio,
    schur_complements,
    validate,
)
from saddlebounds.errors import DefinitenessError
from saddlebounds.krylov import BREAKDOWN_REL, RTOL_DEFAULT, SolveResult


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


def perturbed_entry(system, name, row, col, rel=1e-10) -> DoubleSaddleSystem:
    """``system`` with entry (row, col) of block ``name`` scaled by 1 + rel;
    in A, D or E entry (col, row) too, so the block stays symmetric.  A
    sparse block stays sparse."""
    block = getattr(system, name)
    values = block.toarray() if sp.issparse(block) else block.copy()
    for i, j in {(row, col), (col, row)} if name in "ADE" else {(row, col)}:
        values[i, j] *= 1 + rel
    values = sp.csr_array(values) if sp.issparse(block) else values
    return dataclasses.replace(system, **{name: values})


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


def _inner(u, v) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(u @ v)


def reference_minres(operator, preconditioner, rhs, rtol=RTOL_DEFAULT, maxit=None):
    """Preconditioned MINRES as a plain two-term recurrence that allocates
    every vector it forms: the loop ``krylov.minres`` runs on preallocated
    vectors, with the same operations in the same order, so the two agree
    bit for bit.  Inputs are taken as valid (``minres`` checks them)."""
    b = np.asarray(rhs, dtype=float)
    dim = b.shape[0]
    matvec = operator if callable(operator) else (lambda v: operator @ v)
    psolve = (lambda v: v) if preconditioner is None else preconditioner.apply_inverse
    maxit = 4 * dim if maxit is None else maxit

    x = np.zeros(dim)
    r1 = b.copy()
    y = psolve(r1)
    beta1_sq = _inner(r1, y)
    if beta1_sq < 0.0:
        raise DefinitenessError("preconditioner is not positive definite")
    beta1 = math.sqrt(beta1_sq)
    history = [beta1]
    if not math.isfinite(beta1):
        return SolveResult(x, tuple(history), 0, False, "non-finite")
    if beta1 == 0.0:
        return SolveResult(x, tuple(history), 0, True)

    breakdown_tol = BREAKDOWN_REL * beta1
    target = rtol * beta1
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    w = np.zeros(dim)
    w2 = np.zeros(dim)
    r2 = r1
    eps = np.finfo(float).eps
    iterations, converged, breakdown = 0, False, None

    for itn in range(1, maxit + 1):
        s = 1.0 / beta
        v = s * y
        y = matvec(v)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = _inner(v, y)
        if not math.isfinite(alfa):
            breakdown = "non-finite"
            break
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        y = psolve(r2)
        oldb = beta
        beta_sq = _inner(r2, y)
        if not math.isfinite(beta_sq):
            breakdown = "non-finite"
            break
        if beta_sq < 0.0:
            raise DefinitenessError("preconditioner is not positive definite")
        beta = math.sqrt(beta_sq)

        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(math.hypot(gbar, beta), eps)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar

        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        x = x + phi * w

        iterations = itn
        history.append(phibar)
        if phibar <= target:
            converged = True
            break
        if beta <= breakdown_tol:
            breakdown = "lanczos-breakdown"
            converged = phibar <= target
            break

    return SolveResult(x, tuple(history), iterations, converged, breakdown)
