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
# a true relative 2-norm residual above this times rtol is a residual gap.
# MINRES stops in the P^-1-norm; at rtol = 1e-8 the h = 1/32 and 1/64
# distributed-control solves at beta = 1e-3 end 270 to 1,000 times rtol
# in the 2-norm, and the beta = 1e-8 solve at h = 1/32 1.8e7 times
RESIDUAL_GAP = 1e4


@dataclass(frozen=True)
class SolveResult:
    solution: np.ndarray
    residual_history: tuple[float, ...]
    iterations: int
    converged: bool
    breakdown: str | None = None

    @property
    def stop(self) -> str:
        """Why the run stopped: ``rtol`` (converged), ``breakdown:<kind>``
        or ``maxit``."""
        if self.converged:
            return "rtol"
        return f"breakdown:{self.breakdown}" if self.breakdown else "maxit"

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


def minres(
    operator,
    preconditioner: PreconditionerOperator | None,
    rhs: np.ndarray,
    rtol: float = RTOL_DEFAULT,
    maxit: int | None = None,
) -> SolveResult:
    """Solve a symmetric (possibly indefinite) system with preconditioned MINRES.

    ``rhs`` is a 1-d vector of some length dim, and ``operator`` a
    dense/sparse symmetric matrix of shape (dim, dim) (else
    :class:`ParameterError`) or a callable matvec.
    ``preconditioner`` must be SPD (or None for plain MINRES); an indefinite
    one is detected through a negative inner product and rejected.
    Convergence is declared when the preconditioned residual norm drops
    below ``rtol`` times that of the right-hand side.  The zero start vector
    makes runs deterministic for fixed inputs.  A non-finite Lanczos
    coefficient stops the run with ``breakdown="non-finite"``.

    The iteration allocates only what the operator and the preconditioner
    return: every other vector lives in one of eight arrays allocated up
    front and updated in place, in the order of the textbook recurrence,
    so the history and the solution are bitwise those of a run that forms
    each vector anew.  The operator's and the preconditioner's results are
    only read.  The run is one ``np.errstate`` scope: an overflow anywhere
    in it gives inf or nan without a warning, and the next inner product
    ends the run with ``breakdown="non-finite"``.
    """
    b = np.asarray(rhs, dtype=float)
    if b.ndim != 1:
        raise ParameterError(f"right-hand side must be a 1-d vector, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ParameterError("right-hand side must be finite")
    check_stopping(rtol, maxit)
    dim = b.shape[0]
    if callable(operator):
        matvec = operator
    else:
        shape = np.shape(operator)
        if shape != (dim, dim):
            raise ParameterError(
                f"operator must be {dim} x {dim} to match the right-hand side, got {shape}")
        mat = operator
        matvec = lambda v: mat @ v  # noqa: E731
    if preconditioner is None:
        psolve = lambda v: v  # noqa: E731
    else:
        psolve = preconditioner.apply_inverse

    if maxit is None:
        maxit = 4 * dim

    x = np.zeros(dim)
    # r2 is the latest residual and r1 the one before; each step writes the
    # next residual over r1, which is dead by then, and swaps the two
    r1 = np.empty(dim)
    r2 = b.copy()
    v = np.empty(dim)
    # the three newest search directions rotate through w1, w2 and w
    w1 = np.empty(dim)
    w2 = np.zeros(dim)
    w = np.zeros(dim)
    scratch = np.empty(dim)

    iterations = 0
    converged = False
    breakdown = None

    with np.errstate(over="ignore", invalid="ignore"):
        y = psolve(r2)
        beta1_sq = float(r2 @ y)
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
        eps = np.finfo(float).eps

        for itn in range(1, maxit + 1):
            np.multiply(y, 1.0 / beta, out=v)
            y = matvec(v)
            if itn >= 2:
                np.multiply(r1, beta / oldb, out=scratch)
                y = np.subtract(y, scratch, out=r1)
            alfa = float(v @ y)
            if not math.isfinite(alfa):
                breakdown = "non-finite"
                break
            np.multiply(r2, alfa / beta, out=scratch)
            np.subtract(y, scratch, out=r1)
            r1, r2 = r2, r1
            y = psolve(r2)
            oldb = beta
            beta_sq = float(r2 @ y)
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

            # w = (v - oldeps * w1 - delta * w2) / gamma, into the oldest
            # direction's array
            w1, w2, w = w2, w, w1
            np.multiply(w1, oldeps, out=scratch)
            np.subtract(v, scratch, out=w)
            np.multiply(w2, delta, out=scratch)
            np.subtract(w, scratch, out=w)
            np.divide(w, gamma, out=w)
            np.multiply(w, phi, out=scratch)
            np.add(x, scratch, out=x)

            iterations = itn
            history.append(phibar)
            if phibar <= target:
                converged = True
                break
            if beta <= breakdown_tol:
                # invariant subspace reached: the iterate is exact in it
                breakdown = "lanczos-breakdown"
                break

    return SolveResult(
        solution=x,
        residual_history=tuple(history),
        iterations=iterations,
        converged=converged,
        breakdown=breakdown,
    )
