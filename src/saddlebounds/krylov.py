"""Preconditioned MINRES with residual history.

Implements the classic two-term recurrence: the preconditioner enters only
through its inverse action, and the tracked residual is the norm induced by
that inverse, in which MINRES is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DefinitenessError, ParameterError
from .precond import PreconditionerOperator

RTOL_DEFAULT = 1e-8
BREAKDOWN_REL = 1e-14


@dataclass(frozen=True)
class SolveResult:
    solution: np.ndarray
    residual_history: tuple[float, ...]
    iterations: int
    converged: bool
    breakdown: str | None = None

    @property
    def relative_history(self) -> tuple[float, ...]:
        base = self.residual_history[0]
        if base == 0.0:
            return self.residual_history
        return tuple(r / base for r in self.residual_history)


def check_stopping(rtol: float, maxit: int | None) -> None:
    """Reject a stopping rule MINRES cannot run: ``rtol`` must be finite and
    positive, ``maxit`` None or non-negative."""
    if not (math.isfinite(rtol) and rtol > 0):
        raise ParameterError(f"rtol must be finite and positive, got {rtol}")
    if maxit is not None and maxit < 0:
        raise ParameterError(f"maxit must be non-negative, got {maxit}")


def _inner(u: np.ndarray, v: np.ndarray) -> float:
    """u^T v; an overflow gives inf or nan without a warning, and MINRES
    stops on it with ``breakdown="non-finite"``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(u @ v)


def minres(
    operator,
    preconditioner: PreconditionerOperator | None,
    rhs: np.ndarray,
    rtol: float = RTOL_DEFAULT,
    maxit: int | None = None,
) -> SolveResult:
    """Solve a symmetric (possibly indefinite) system with preconditioned MINRES.

    ``operator`` is a dense/sparse symmetric matrix or a callable matvec.
    ``preconditioner`` must be SPD (or None for plain MINRES); an indefinite
    one is detected through a negative inner product and rejected.
    Convergence is declared when the preconditioned residual norm drops
    below ``rtol`` times that of the right-hand side.  The zero start vector
    makes runs deterministic for fixed inputs.  A non-finite Lanczos
    coefficient stops the run with ``breakdown="non-finite"``.
    """
    b = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ParameterError("right-hand side must be finite")
    check_stopping(rtol, maxit)
    dim = b.shape[0]
    if callable(operator):
        matvec = operator
    else:
        mat = operator
        matvec = lambda v: mat @ v  # noqa: E731
    if preconditioner is None:
        psolve = lambda v: v  # noqa: E731
    else:
        psolve = preconditioner.apply_inverse

    if maxit is None:
        maxit = 4 * dim

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

    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(dim)
    w2 = np.zeros(dim)
    r2 = r1
    eps = np.finfo(float).eps

    iterations = 0
    converged = False
    breakdown = None

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
            # invariant subspace reached: the iterate is exact in it
            breakdown = "lanczos-breakdown"
            converged = phibar <= target
            break

    return SolveResult(
        solution=x,
        residual_history=tuple(history),
        iterations=iterations,
        converged=converged,
        breakdown=breakdown,
    )

