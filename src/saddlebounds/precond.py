"""Block-diagonal Schur-complement preconditioners, exact and approximate.

The exact preconditioner stacks the leading block with the two nested Schur
complements.  Approximate variants replace individual blocks by cheaper
spectrally equivalent matrices.  On a sparse system :func:`build_approx`
applies an exact (or scaled) S1 or S2 through a sparse LU of a leading
principal submatrix of K and forms neither block (:class:`SchurComplement`),
provided D (and, for S2, E) is certified semidefinite.  A dense system,
``jacobi`` (which reads only diag(S1) and diag(S2)) and a sparse system
whose D or E fails that certificate take S1 and the factors of A and S1
from one dense :func:`~saddlebounds.spectral.schur_complements` pair, and
read S2 only when the tail strategy derives its block from it (``exact``,
``scaled:<t>``); ``pearson-wathen``, ``drop-term``, ``user`` and ``jacobi``
never form it.
Every block is kept as a matrix, or as an implicit block that can form its
dense self, so that equivalence constants stay measurable at desk scale.
Inputs from outside the system (``user`` and :func:`from_blocks` blocks, a
context's matrices) are checked and made symmetric where they enter, like
system blocks.  What MINRES applies is one factor per block, chosen from its
own type:

* a diagonal block (such as ``jacobi``): the 1-D vector sqrt(diag);
* any other dense block: a ``cho_factor`` result;
* any other sparse block: a pivot-free symmetric sparse LU
  (:func:`sparse_spd_factor`);
* the square-completion block X M^-1 X of a sparse system: one sparse LU
  of X, applied as X^-1 M X^-1, so X M^-1 X is never formed;
* S1 or S2 of a sparse system: one sparse LU of K2 = [[A, B^T], [B, -D]]
  or of K, applied by block LDL^T as S1^-1 r = -(K2^-1 [0; r])_2 and
  S2^-1 r = (K^-1 [0; 0; r])_3.

The dense split-preconditioned matrix is the Cholesky congruence U^-T K U^-1,
U = diag(U_i) from the dense factors P_i = U_i^T U_i: isospectral to
P^-1 K, but for non-diagonal blocks its entries differ from the form
P^-1/2 K P^-1/2.  Like every dense-oracle entry point it densifies a
sparse system first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .bounds import Interval
from .errors import (
    DefinitenessError,
    OracleSizeError,
    ParameterError,
    StrategyMismatchError,
    StructuralError,
)
from .spectral import (ORACLE_CUTOFF, _gram, _kernel_input, _solve_upper_t,
                       schur_complements)
from .system import (
    DoubleSaddleSystem,
    _dense,
    _sym,
    _symmetric_input,
    _values,
    assemble_csr,
)

_BLOCK_LABELS = ("leading", "first-schur", "second-schur")


@dataclass(frozen=True)
class PoissonControlContext:
    """Structure metadata a distributed-control system carries along.

    ``mass`` and ``stiffness`` are the interior finite-element matrices
    (dense or sparse), checked here like system blocks and of one shape
    (:class:`StructuralError`), and ``beta`` the control regularization
    weight, finite and positive (:class:`ParameterError`).  The
    square-completion approximation of the tail Schur complement and the
    reference regularization-ratio constant used when reporting inexact
    bounds for this problem family both live here; both are dense oracle
    quantities and densify sparse matrices.
    """

    mass: np.ndarray | sp.csr_array
    stiffness: np.ndarray | sp.csr_array
    beta: float

    def __post_init__(self):
        mass = _symmetric_input(self.mass, "mass matrix")
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "stiffness", _symmetric_input(
            self.stiffness, "stiffness matrix", mass.shape[0]))
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ParameterError(
                f"parameter beta must be finite and positive, got {self.beta}")

    def shifted(self):
        """X = M + sqrt(beta) K, in the matrices' own form."""
        return self.mass + math.sqrt(self.beta) * self.stiffness

    def square_completion_block(self) -> np.ndarray:
        """(M + sqrt(beta) K) M^-1 (M + sqrt(beta) K), dense: the
        square-completion approximation of M + beta K M^-1 K, whose
        equivalence constants are [1/2, 1]; W^T W, W = U^-T X for M = U^T U."""
        return _gram(_factor(_dense(self.mass), "mass"), self.shifted())

    def reference_regularization_ratio(self) -> float:
        """beta-scaled top of the (mass, K M^-1 K) pencil.

        This is the published scale constant for the tail regularization of
        this problem family: beta / min|mu|^2 over the generalized
        eigenvalues mu of (K, M), which is O(beta) and tiny for practical
        beta, and ``inf`` when some mu is zero.
        """
        try:
            mu = sla.eigh(_dense(self.stiffness), _dense(self.mass), eigvals_only=True)
        except sla.LinAlgError as exc:
            raise DefinitenessError("mass block is not positive definite") from exc
        mu2 = float(np.abs(mu).min()) ** 2
        return self.beta / mu2 if mu2 > 0 else math.inf

    def assumed_constants(self) -> tuple[float, float]:
        """Equivalence interval guaranteed for the square-completion block."""
        return 0.5, 1.0


@dataclass(frozen=True)
class SquareCompletion:
    """The square-completion block X M^-1 X, X = M + sqrt(beta) K, for a
    sparse system, kept implicit: its factor is one sparse LU of X, and
    ``toarray`` forms the dense block for the oracle."""

    context: PoissonControlContext

    def toarray(self) -> np.ndarray:
        return self.context.square_completion_block()


@dataclass(frozen=True)
class _SquareCompletionFactor:
    """Applies (X M^-1 X)^-1 = X^-1 M X^-1 from a sparse LU of X."""

    lu_x: object
    mass: sp.csr_array

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.lu_x.solve(self.mass @ self.lu_x.solve(rhs))


@dataclass(frozen=True)
class SchurComplement:
    """S1 (``position`` 1) or S2 (``position`` 2) of a sparse system times
    ``scale``, kept implicit: its factor is one sparse LU of the leading
    principal submatrix of K that ends with the block's rows, and
    ``toarray`` forms the dense block for the oracle.  Its definiteness is
    certified by :func:`build_approx`, which alone makes one."""

    system: DoubleSaddleSystem = field(repr=False)
    position: int
    scale: float = 1.0

    def __rmul__(self, factor: float) -> "SchurComplement":
        return replace(self, scale=factor * self.scale)

    def toarray(self) -> np.ndarray:
        pair = schur_complements(self.system.dense())
        return self.scale * (pair.s1 if self.position == 1 else pair.s2)


@dataclass(frozen=True)
class _SchurFactor:
    """Applies (scale * S)^-1 for the trailing Schur complement S of a
    leading principal submatrix K_k of K from a sparse LU of K_k: by block
    LDL^T the trailing block of K_k^-1 is -S1^-1 for K2 and S2^-1 for K, so
    ``divisor`` is -scale or scale."""

    lu_k: object
    divisor: float

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        full = np.zeros(self.lu_k.shape[0])
        full[-rhs.size:] = rhs
        return self.lu_k.solve(full)[-rhs.size:] / self.divisor


@dataclass(frozen=True)
class PreconditionerOperator:
    """Three factorized SPD blocks applied block-diagonally.

    ``_factors`` holds one factor per block: a 1-D array sqrt(diag) for a
    diagonal block, applied by division; a ``cho_factor`` result, applied
    by triangular solves; or a sparse factor with a ``solve`` method (see
    the module docstring).  Blocks and factors are checked finite once,
    when they are built, so the solves skip it.
    """

    blocks: tuple
    strategy: tuple[str, str, str]
    dims: tuple[int, int, int]
    _factors: tuple = field(repr=False, default=None)

    def apply_inverse(self, vector: np.ndarray) -> np.ndarray:
        """Blockwise solves: the action of the inverse on a vector."""
        v = np.asarray(vector, dtype=float)
        n, m, p = self.dims
        if v.shape[0] != n + m + p:
            raise ParameterError(
                f"vector length {v.shape[0]} does not match system size {n + m + p}"
            )
        pieces = (v[:n], v[n : n + m], v[n + m :])
        return np.concatenate(
            [_factored_solve(f, piece) for f, piece in zip(self._factors, pieces)]
        )

    def as_matrix(self) -> np.ndarray:
        return sla.block_diag(*(_dense(b) for b in self.blocks))


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


def _splu(matrix, label: str, **options):
    """SuperLU factor of a sparse matrix; SuperLU's "exactly singular" error
    becomes :class:`DefinitenessError` naming ``label``."""
    # imported here: loading it adds about 2 MB of resident memory to every
    # process, and only sparse blocks need it
    import scipy.sparse.linalg as spla

    try:
        return spla.splu(sp.csc_array(matrix), **options)
    except RuntimeError as exc:
        raise DefinitenessError(f"{label} block is not positive definite") from exc


def sparse_spd_factor(block, label: str):
    """Pivot-free symmetric sparse LU (SuperLU) of a sparse SPD block.

    Symmetric mode with a zero pivot threshold keeps every pivot on the
    diagonal of the symmetrically reordered block, so the block is
    positive definite exactly when the row and column orderings agree and
    every pivot is positive; otherwise, or when SuperLU finds the block
    singular, :class:`DefinitenessError` names ``label``.  The result
    applies P^-1 through its ``solve``.
    """
    lu = _splu(block, label, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    if not (np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0).all()):
        raise DefinitenessError(f"{label} block is not positive definite")
    return lu


def _factor(block, label: str):
    """Factor of an SPD block, by the block's type: the vector sqrt(diag)
    when every nonzero lies on the diagonal, a sparse LU of X for a
    :class:`SquareCompletion`, a sparse LU of K2 or K for a
    :class:`SchurComplement`, a pivot-free symmetric sparse LU for any
    other sparse block, else a ``cho_factor`` result.  Blocks arrive
    exactly symmetric and are factored as given."""
    if isinstance(block, SquareCompletion):
        context = block.context
        return _SquareCompletionFactor(
            sparse_spd_factor(context.shifted(), label), context.mass)
    if isinstance(block, SchurComplement):
        end = sum(block.system.dims[: block.position + 1])
        lu_k = _splu(assemble_csr(block.system)[:end, :end], label)
        sign = -1.0 if block.position == 1 else 1.0
        return _SchurFactor(lu_k, sign * block.scale)
    diag = block.diagonal()
    sparse = sp.issparse(block)
    nonzeros = block.count_nonzero() if sparse else np.count_nonzero(block)
    if nonzeros == np.count_nonzero(diag):
        if (diag > 0).all():
            return np.sqrt(diag)
        raise DefinitenessError(f"{label} block is not positive definite")
    if sparse:
        return sparse_spd_factor(block, label)
    try:
        return sla.cho_factor(block)
    except sla.LinAlgError as exc:
        raise DefinitenessError(f"{label} block is not positive definite") from exc


def _factored_solve(factor, rhs: np.ndarray) -> np.ndarray:
    """P^-1 rhs for the factor of P."""
    if isinstance(factor, np.ndarray):
        return rhs / factor / factor
    if isinstance(factor, tuple):
        return sla.cho_solve(factor, rhs, check_finite=False)
    return factor.solve(rhs)


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
    ``pearson-wathen`` (square-completion tail block from ``context``,
    implicit for a sparse system), ``drop-term`` (tail regularization block
    alone; needs it SPD), and ``user`` (matrix taken from ``user_blocks``,
    checked where it enters).  A context must be p x p
    (:class:`StructuralError`), checked before anything is factored.

    On a sparse system with no ``jacobi`` Schur position, an exact or
    scaled S1 or S2 is a :class:`SchurComplement`, applied through one
    sparse LU of a leading principal submatrix of K.  Definiteness is
    proved, not assumed: with A SPD (its factor, or a check of A when the
    leading block is not derived from it) and D, for S2 also E, storing no
    nonzero or passing :func:`sparse_spd_factor`, the block is positive
    semidefinite, so a nonsingular LU proves it SPD, and a singular one
    raises :class:`DefinitenessError` naming it.  Any other system takes
    the dense Schur pair: exact blocks reuse its Cholesky factors (the
    leading one only when A is dense), so the builds that share one pair
    share one factor of S2, and S2 is formed only for a tail strategy that
    reads it (``jacobi`` reads only its diagonal).  Every other block is
    factored by its type (see :func:`_factor`).  The ``jacobi`` blocks of a
    system with sparse blocks are sparse diagonal matrices.
    """
    if len(strategies) != 3:
        raise ParameterError("need exactly three per-block strategies")
    p = system.dims[2]
    if context is not None and context.mass.shape != (p, p):
        raise StructuralError(
            f"context mass and stiffness must be {p} x {p} to match block E, "
            f"got {context.mass.shape}")
    reads = [_reads_exact(s) for s in strategies]
    reused = [None, None, None]
    if (system.is_sparse and "jacobi" not in strategies[1:]
            and _schur_lu_certified(system, reads)):
        exact_blocks = (system.A, SchurComplement(system, 1), SchurComplement(system, 2))
        if (reads[1] or reads[2]) and not reads[0]:
            _factor(system.A, _BLOCK_LABELS[0])  # the certificate needs A SPD
    else:
        pair = schur_complements(system)
        tail = None
        if strategies[2] == "jacobi":
            tail = _diagonal_matrix(pair.s2_diagonal, system.is_sparse)
        elif reads[2]:
            tail = pair.s2
        exact_blocks = (system.A, pair.s1, tail)
        # exact dense positions reuse the pair's factors; the rest go now
        cho_a = None if sp.issparse(system.A) else pair.cho_a
        cho_2 = pair.cho_2 if strategies[2] == "exact" else None
        reused = [f if s == "exact" else None
                  for f, s in zip((cho_a, pair.cho_1, cho_2), strategies)]
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


def _schur_lu_certified(system: DoubleSaddleSystem, reads: Sequence[bool]) -> bool:
    """Whether every Schur complement the strategies read is positive
    semidefinite for an SPD A, because each regularization block it adds
    stores no nonzero or passes :func:`sparse_spd_factor`: S1 = D + B A^-1 B^T
    needs D, S2 = E + C S1^-1 C^T also E (S1 is then SPD, since an LU of K
    is nonsingular only with S1)."""
    for reg in (system.D, system.E)[: 2 if reads[2] else int(reads[1])]:
        if np.any(_values(reg)):
            try:
                sparse_spd_factor(reg, "regularization")
            except DefinitenessError:
                return False
    return True


def _reads_exact(strat: str) -> bool:
    """Whether a strategy derives its block from the whole exact one."""
    return strat == "exact" or strat.startswith("scaled:")


def _diagonal_matrix(diag: np.ndarray, sparse: bool):
    return sp.diags_array(diag, format="csr") if sparse else np.diag(diag)


def _approx_block(system, idx, strat, exact, context, user_blocks):
    """The block one strategy puts at position ``idx``."""
    if strat == "exact":
        return exact
    if strat == "jacobi":
        return _diagonal_matrix(exact.diagonal(), system.is_sparse)
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
        if system.is_sparse:
            return SquareCompletion(context)
        return context.square_completion_block()
    if strat == "drop-term":
        return system.E
    if strat == "user":
        if user_blocks is None or user_blocks[idx] is None:
            raise ParameterError(f"no user block supplied for position {idx}")
        return _symmetric_input(user_blocks[idx], f"user block {idx}", system.dims[idx])
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
    """Wrap three explicit SPD matrices, each checked like a ``user`` block
    (errors name ``user block 0``), as a preconditioner; sparse and
    implicit blocks are densified."""
    if len(blocks) != 3:
        raise ParameterError("need exactly three blocks")
    blocks = tuple(_symmetric_input(_dense(b), f"{s} block {i}", size)
                   for i, (b, s, size) in enumerate(zip(blocks, strategy, dims)))
    factors = tuple(_factor(b, lbl) for b, lbl in zip(blocks, _BLOCK_LABELS))
    return PreconditionerOperator(
        blocks=blocks, strategy=tuple(strategy), dims=dims, _factors=factors
    )


def _congruence(left, block: np.ndarray, right) -> np.ndarray:
    """U_l^-T block U_r^-1 for two upper factors of the operator."""
    half = _solve_upper_t(left, block)
    return _solve_upper_t(right, half.T, overwrite=True).T


def split_preconditioned_matrix(
    system: DoubleSaddleSystem,
    op: PreconditionerOperator,
    oracle_cutoff: int = ORACLE_CUTOFF,
) -> np.ndarray:
    """Form the dense split-preconditioned matrix as the Cholesky congruence
    U^-T K U^-1, U = diag(U_i) from the operator's factors P_i = U_i^T U_i.

    Each nonzero block of K costs one pair of triangular solves, or of row
    and column scalings where a factor is diagonal.  The result
    is exactly symmetric and isospectral to P^-1 K; for non-diagonal blocks
    its entries differ from those of the symmetric-root form P^-1/2 K P^-1/2.
    A sparse system is densified, and an operator with sparse factors is
    refactored from its densified blocks (:func:`from_blocks`).
    """
    total = system.total
    if total > oracle_cutoff:
        raise OracleSizeError(
            f"split matrix refused for dimension {total} > cutoff {oracle_cutoff}"
        )
    system = system.dense()
    if not all(isinstance(f, (np.ndarray, tuple)) for f in op._factors):
        op = from_blocks(op.blocks, op.dims, op.strategy)
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
    exact: np.ndarray, approx: np.ndarray, factor=None
) -> EquivalenceMeasurement:
    """Extremal generalized eigenvalues of an (exact, approximation) pair.

    Each block passes the kernels' input rule
    (:func:`~saddlebounds.spectral._kernel_input`, errors naming
    ``exact block`` or ``approximation``), and the two must match in shape.
    ``factor`` is the approximation's factor as an operator holds it (see
    :class:`PreconditionerOperator`); a sparse factor, or none, is replaced
    by :func:`_factor` of the densified approximation, whose failure names
    it ``approximation``.  The generalized eigenvalues are the eigenvalues
    of the congruence U^-T exact U^-1 for P = U^T U, the reduction
    ``scipy.linalg.eigh(exact, approx)`` makes after factoring P itself.
    Bitwise-identical blocks give the exact interval [1, 1] with no
    eigensolve (the factor alone shows they are definite), so round-off
    never normalizes them.

    The raw interval is reported as-is; for the bound formulas it is also
    normalized to straddle 1 by rescaling the approximation (scaling the
    approximation by s divides the whole interval by s), and the applied
    scale is part of the measurement.
    """
    exact = _kernel_input(exact, "exact block")
    approx = _kernel_input(approx, "approximation")
    if exact.shape != approx.shape:
        raise ParameterError(
            f"shape mismatch: {exact.shape} vs {approx.shape}"
        )
    if not isinstance(factor, (np.ndarray, tuple)):
        factor = _factor(approx, "approximation")
    if np.array_equal(exact, approx):
        vals = (1.0, 1.0)
    else:
        vals = np.linalg.eigvalsh(_congruence(factor, exact, factor))
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
