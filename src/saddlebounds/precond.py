"""Block-diagonal Schur-complement preconditioners, exact and approximate.

The exact preconditioner stacks the leading block with the two nested Schur
complements.  Approximate variants replace individual blocks by cheaper
spectrally equivalent matrices; every admissible block is an explicit SPD
matrix at desk scale so that equivalence constants stay measurable.

The dense split-preconditioned matrix is the Cholesky congruence U^-T K U^-1,
U = diag(U_i) with P_i = U_i^T U_i: isospectral to P^-1 K, but for
non-diagonal blocks its entries differ from the form P^-1/2 K P^-1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .bounds import Interval
from .errors import (
    DefinitenessError,
    OracleSizeError,
    ParameterError,
    StrategyMismatchError,
)
from .spectral import ORACLE_CUTOFF, _regularization_ratio, schur_complements
from .system import DoubleSaddleSystem, _sym

_BLOCK_LABELS = ("leading", "first-schur", "second-schur")


@dataclass(frozen=True)
class PoissonControlContext:
    """Structure metadata a distributed-control system carries along.

    ``mass`` and ``stiffness`` are the interior finite-element matrices and
    ``beta`` the control regularization weight.  The square-completion
    approximation of the tail Schur complement and the reference
    regularization-ratio constant used when reporting inexact bounds for
    this problem family both live here.
    """

    mass: np.ndarray
    stiffness: np.ndarray
    beta: float

    def square_completion_block(self) -> np.ndarray:
        """(M + sqrt(beta) K) M^-1 (M + sqrt(beta) K): the square-completion
        approximation of M + beta K M^-1 K, whose equivalence constants are
        [1/2, 1]."""
        m, k = self.mass, self.stiffness
        shifted = m + math.sqrt(self.beta) * k
        cho_m = sla.cho_factor(_sym(m))
        return _sym(shifted @ sla.cho_solve(cho_m, shifted))

    def reference_regularization_ratio(self) -> float:
        """beta-scaled top of the (mass, K M^-1 K) pencil.

        This is the published scale constant for the tail regularization of
        this problem family: beta divided by the squared smallest
        stiffness-to-mass generalized eigenvalue, which is O(beta) and tiny
        for practical beta.
        """
        cho_m = sla.cho_factor(_sym(self.mass))
        gram = _sym(self.stiffness @ sla.cho_solve(cho_m, self.stiffness))
        return self.beta * _regularization_ratio(self.mass, gram)

    def assumed_constants(self) -> tuple[float, float]:
        """Equivalence interval guaranteed for the square-completion block."""
        return 0.5, 1.0


@dataclass(frozen=True)
class PreconditionerOperator:
    """Three factorized SPD blocks applied block-diagonally."""

    blocks: tuple[np.ndarray, np.ndarray, np.ndarray]
    strategy: tuple[str, str, str]
    dims: tuple[int, int, int]
    _factors: tuple = field(repr=False, default=None)

    def apply_inverse(self, vector: np.ndarray) -> np.ndarray:
        """Blockwise triangular solves: the action of the inverse on a vector."""
        v = np.asarray(vector, dtype=float)
        n, m, p = self.dims
        if v.shape[0] != n + m + p:
            raise ParameterError(
                f"vector length {v.shape[0]} does not match system size {n + m + p}"
            )
        pieces = (v[:n], v[n : n + m], v[n + m :])
        return np.concatenate(
            [sla.cho_solve(f, piece) for f, piece in zip(self._factors, pieces)]
        )

    def as_matrix(self) -> np.ndarray:
        return sla.block_diag(*self.blocks)


@dataclass(frozen=True)
class EquivalenceMeasurement:
    """Measured generalized spectrum of an exact block against its approximation.

    ``raw`` is the untouched interval of generalized eigenvalues; ``alpha``
    and ``beta`` are the same endpoints after rescaling the approximation by
    ``scale`` so that the interval straddles 1.
    """

    raw: Interval
    alpha: float
    beta: float
    scale: float


def _factor(block: np.ndarray, label: str):
    try:
        return sla.cho_factor(_sym(block))
    except sla.LinAlgError as exc:
        raise DefinitenessError(f"{label} block is not positive definite") from exc


def build_exact(system: DoubleSaddleSystem) -> PreconditionerOperator:
    """Exact preconditioner: the leading block and both Schur complements."""
    return build_approx(system, ("exact", "exact", "exact"))


def build_approx(
    system: DoubleSaddleSystem,
    strategies: Sequence[str],
    context: PoissonControlContext | None = None,
    user_blocks: Sequence[np.ndarray] | None = None,
) -> PreconditionerOperator:
    """Assemble a preconditioner from per-block strategy names.

    Recognized strategies: ``exact``, ``jacobi`` (diagonal of the exact
    block), ``scaled:<t>`` (the exact block times finite t > 0),
    ``pearson-wathen`` (square-completion tail block; needs
    distributed-control structure), ``drop-term`` (tail regularization block
    alone; needs it SPD), and ``user`` (matrix taken from ``user_blocks``).
    Exact leading and first-Schur blocks reuse the Schur pair's factors.
    """
    if len(strategies) != 3:
        raise ParameterError("need exactly three per-block strategies")
    pair = schur_complements(system)
    exact_blocks = (_sym(system.A), pair.s1, pair.s2)
    # exact positions reuse the pair's factors; the Grams and the rest go now
    reused = [f if s == "exact" else None
              for f, s in zip((pair.cho_a, pair.cho_1, None), strategies)]
    del pair
    blocks = tuple(_approx_block(system, i, s, exact_blocks[i], context, user_blocks)
                   for i, s in enumerate(strategies))
    del exact_blocks
    factors = tuple(f if f is not None else _factor(b, lbl)
                    for f, b, lbl in zip(reused, blocks, _BLOCK_LABELS))
    return PreconditionerOperator(
        blocks=blocks,
        strategy=tuple(strategies),
        dims=system.dims,
        _factors=factors,
    )


def _approx_block(system, idx, strat, exact, context, user_blocks) -> np.ndarray:
    """The block one strategy puts at position ``idx``."""
    if strat == "exact":
        return exact
    if strat == "jacobi":
        return np.diag(np.diag(exact))
    if strat.startswith("scaled:"):
        return _scale_factor(strat) * exact
    if strat in ("pearson-wathen", "drop-term") and idx != 2:
        raise StrategyMismatchError(f"the {strat} strategy only applies to the tail block")
    if strat == "pearson-wathen":
        if context is None:
            raise StrategyMismatchError(
                "pearson-wathen needs the (mass, stiffness, beta) structure of a "
                "distributed control problem"
            )
        return context.square_completion_block()
    if strat == "drop-term":
        return _sym(system.E)
    if strat == "user":
        if user_blocks is None or user_blocks[idx] is None:
            raise ParameterError(f"no user block supplied for position {idx}")
        return _sym(np.asarray(user_blocks[idx], dtype=float))
    raise ParameterError(f"unknown strategy {strat!r}")


def _scale_factor(strat: str) -> float:
    try:
        factor = float(strat.split(":", 1)[1])
    except ValueError:
        factor = math.nan
    if not (math.isfinite(factor) and factor > 0):
        raise ParameterError(f"scale factor must be finite and positive in {strat!r}")
    return factor


def strategy_tuple(name: str) -> tuple[str, str, str]:
    """Per-block strategies (leading, first Schur, second Schur) for a
    preconditioner name, checked without touching any matrix."""
    if name in ("exact", "jacobi", "user"):
        return (name, name, name)
    if name.startswith("scaled:"):
        _scale_factor(name)
        return (name, name, name)
    if name in ("pearson-wathen", "drop-term"):
        return ("exact", "exact", name)
    raise ParameterError(f"unknown preconditioner strategy {name!r}")


def from_blocks(
    blocks: Sequence[np.ndarray],
    dims: tuple[int, int, int],
    strategy: tuple[str, str, str] = ("user", "user", "user"),
) -> PreconditionerOperator:
    """Wrap three explicit SPD matrices as a preconditioner."""
    if len(blocks) != 3:
        raise ParameterError("need exactly three blocks")
    blocks = tuple(_sym(np.asarray(b, dtype=float)) for b in blocks)
    factors = tuple(_factor(b, lbl) for b, lbl in zip(blocks, _BLOCK_LABELS))
    return PreconditionerOperator(
        blocks=blocks, strategy=tuple(strategy), dims=dims, _factors=factors
    )


def _congruence(left, block: np.ndarray, right) -> np.ndarray:
    """U_l^-T block U_r^-1 for two upper ``cho_factor`` results."""
    half = sla.solve_triangular(left[0], block, trans=1)
    return sla.solve_triangular(right[0], half.T, trans=1, overwrite_b=True).T


def split_preconditioned_matrix(
    system: DoubleSaddleSystem,
    op: PreconditionerOperator,
    oracle_cutoff: int = ORACLE_CUTOFF,
) -> np.ndarray:
    """Form the dense split-preconditioned matrix as the Cholesky congruence
    U^-T K U^-1, U = diag(U_i) from the operator's factors P_i = U_i^T U_i.

    Each nonzero block of K costs one pair of triangular solves.  The result
    is exactly symmetric and isospectral to P^-1 K; for non-diagonal blocks
    its entries differ from those of the symmetric-root form P^-1/2 K P^-1/2.
    """
    total = system.total
    if total > oracle_cutoff:
        raise OracleSizeError(
            f"split matrix refused for dimension {total} > cutoff {oracle_cutoff}"
        )
    n, m, _ = system.dims
    f0, f1, f2 = op._factors
    i0, i1, i2 = slice(0, n), slice(n, n + m), slice(n + m, total)
    out = np.zeros((total, total))
    out[i0, i0] = _sym(_congruence(f0, system.A, f0))
    out[i1, i0] = _congruence(f1, system.B, f0)
    if system.D.any():
        out[i1, i1] = -_sym(_congruence(f1, system.D, f1))
    out[i2, i1] = _congruence(f2, system.C, f1)
    out[i2, i2] = _sym(_congruence(f2, system.E, f2))
    out[i0, i1] = out[i1, i0].T
    out[i1, i2] = out[i2, i1].T
    return out


def equivalence_constants(
    exact: np.ndarray, approx: np.ndarray
) -> EquivalenceMeasurement:
    """Extremal generalized eigenvalues of an (exact, approximation) pair.

    The raw interval is reported as-is; for the bound formulas it is also
    normalized to straddle 1 by rescaling the approximation (scaling the
    approximation by s divides the whole interval by s), and the applied
    scale is part of the measurement.
    """
    exact = _sym(np.asarray(exact, dtype=float))
    approx = _sym(np.asarray(approx, dtype=float))
    if exact.shape != approx.shape:
        raise ParameterError(
            f"shape mismatch: {exact.shape} vs {approx.shape}"
        )
    try:
        vals = sla.eigh(exact, approx, eigvals_only=True)
    except sla.LinAlgError as exc:
        raise DefinitenessError("approximation block is not positive definite") from exc
    raw = Interval(float(vals[0]), float(vals[-1]))
    if raw.lo <= 0:
        raise DefinitenessError("exact block is not positive definite")

    if raw.lo > 1.0:
        scale = raw.lo
    elif raw.hi < 1.0:
        scale = raw.hi
    else:
        scale = 1.0
    alpha = min(raw.lo / scale, 1.0)
    beta = max(raw.hi / scale, 1.0)
    return EquivalenceMeasurement(raw=raw, alpha=alpha, beta=beta, scale=scale)
