"""Eigenvalue and singular-value kernels, and the structural checks built on them.

Extremal eigenvalues, at any size, are the two ends of a dense symmetric
eigensolve; every dense symmetric eigensolve is one call of LAPACK's
``?syevr`` (:func:`_eigvalsh`), which works in place: in a copy, unless
the caller hands the matrix over.
Singular values, and with them every rank decision, come from one call of
``?gesdd`` (:func:`_singular_values`).  Also home to the Schur complements
of a system (each Gram of a dense leading block from one U^-T solve against
an upper Cholesky factor and one ``?syrk``, the helper the preconditioners'
congruence shares, and of a sparse one from sparse LU solves in column
blocks; each system builds its pair once, on first use, and keeps it, see
:func:`schur_complements`; a reader of their diagonals alone keeps no
copy of S1, see :func:`schur_diagonals`), the pivot-free symmetric sparse
LU that factors every sparse SPD block, the regularization ratio (largest
generalized eigenvalue of a regularization block against its coupling
Gram) that drives the inexact-preconditioner bounds, and
:func:`validate`, which checks the hypotheses of the bounds with these
same kernels on the densified system and judges what it measured by the
rules of :func:`_judged`, which the modal oracle's validation shares.
The symmetric kernels take a symmetric matrix as given: system blocks are
made exactly symmetric when the system is built, and the matrices formed
here are symmetric by construction.  Every public kernel
(and :func:`~saddlebounds.precond.equivalence_constants`) takes its matrix
arguments through one input rule, :func:`_kernel_input`.

One LAPACK layer.  Every dense BLAS and LAPACK call of the oracle and of
the preconditioners goes through the module-level handles below
(``_SYEVR``, ``_GESDD``, ``_SYRK``, ``_POTRF``, ``_POTRS``, ``_TRTRS``,
``_SYGVD``, and ``_STERF`` for the modal oracle's tridiagonal spectra),
taken from scipy's OpenBLAS (``scipy.linalg.get_blas_funcs`` and
``get_lapack_funcs``).  They never go through numpy's OpenBLAS: numpy
loads one of its own, and when one analysis alternates between the two,
each library's worker threads keep spinning after a call and take a core
from the other's next call.  Nor do they go through the ``scipy.linalg``
solvers (``cho_factor``, ``cho_solve``, ``solve_triangular``, ``eigh``):
at desk scale their wrapper layers cost several times the LAPACK call
inside (at n = 10 on a shared 2-vCPU VM, 20 us for a ``solve_triangular``
against 4 us for its ``?trtrs``, 17 us for a ``cho_factor`` against 3 us
for its ``?potrf``).  Each helper (:func:`_cho`, :func:`_cho_solve`,
:func:`_solve_upper_t`, :func:`_pencil_eigvalsh`) makes the LAPACK call
that solver makes, with the same arguments, so its results are bitwise
the solver's.  A dense Cholesky factor is the Fortran-ordered upper
factor U that ``?potrf`` gives (:func:`_cho`), the array alone: what
``cho_factor`` pairs with a ``lower`` flag is always upper here, so
``?potrs`` and ``?trtrs`` take U as stored.  Only :func:`inertia`, which
no analysis calls, still takes ``scipy.linalg.ldl`` and
``eigvalsh_tridiagonal``."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    ConvergenceError,
    DefinitenessError,
    OracleSizeError,
    ParameterError,
)
from .system import _TINY, SYM_TOL, DoubleSaddleSystem, _checked, _dense

ORACLE_CUTOFF = 4096
RANK_TOL = 1e-10
ZERO_TOL = 1e-11

# columns per block of the sparse-A Gram and of diag(S2) for a sparse C:
# each block costs one n x _BLOCK solve.  On a 2-vCPU machine at h = 1/64,
# 64 to 128 columns formed the Gram in 1.2-1.4 s, one whole solve in 2.3-2.6 s
_BLOCK = 128
# the strict lower triangle of a diagonal block, which _mirror_upper fills
_STRICT_LOWER = np.tri(_BLOCK, k=-1, dtype=bool)

# LAPACK's MRRR driver and its workspace query; the driver overwrites its input
_SYEVR, _SYEVR_LWORK = sla.get_lapack_funcs(("syevr", "syevr_lwork"), dtype=np.float64)
# LAPACK's divide-and-conquer SVD and its workspace query
_GESDD, _GESDD_LWORK = sla.get_lapack_funcs(("gesdd", "gesdd_lwork"), dtype=np.float64)
# BLAS's symmetric rank-k update, which forms the Grams
_SYRK = sla.get_blas_funcs("syrk", dtype=np.float64)
# LAPACK's Cholesky factorization, the solve against its factor, the
# triangular solve, and the divide-and-conquer symmetric-definite pencil driver
_POTRF, _POTRS, _TRTRS, _SYGVD = sla.get_lapack_funcs(
    ("potrf", "potrs", "trtrs", "sygvd"), dtype=np.float64)
# LAPACK's root-free QL/QR eigenvalue routine for a symmetric tridiagonal matrix
_STERF = sla.get_lapack_funcs("sterf", dtype=np.float64)


@dataclass(frozen=True)
class BlockExtremes:
    """The ten extremal eigen/singular values feeding every bound formula;
    an analysis measures them once, in :func:`validate`."""

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
        """Measure the extremes of each block of a system on their own."""
        return cls._measured(extremal_eigs(system.A), _singular_values(system.B),
                             _singular_values(system.C), extremal_eigs(system.D),
                             extremal_eigs(system.E))

    @classmethod
    def _measured(cls, mu_a, svals_b, svals_c, mu_d, mu_e) -> "BlockExtremes":
        """Extremes from the eigen-ranges of A, D, E and the singular values
        of B, C, in any order.  Semidefinite blocks may report tiny negative
        minima from round-off; a minimum that :func:`validate`'s
        semidefiniteness rule accepts is clamped to zero, and any other
        negative one is kept, so it raises.
        """

        def clamp(pair):
            lo, hi = pair
            if lo < 0 and _semidefinite(pair):
                lo = 0.0
            return lo, max(hi, lo)

        return cls(*mu_a, float(svals_b.min()), float(svals_b.max()),
                   float(svals_c.min()), float(svals_c.max()), *clamp(mu_d), *clamp(mu_e))

    def without_regularization(self) -> "BlockExtremes":
        return replace(self, mu_min_d=0.0, mu_max_d=0.0, mu_min_e=0.0, mu_max_e=0.0)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative, and zero eigenvalues."""

    n_plus: int
    n_minus: int
    n_zero: int

    def astuple(self) -> tuple[int, int, int]:
        return self.n_plus, self.n_minus, self.n_zero


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of every structural check on a system.

    ``kernel_conditions`` are the three necessary invertibility conditions
    (no common kernel between stacked blocks); ``schur_definite`` records
    positive definiteness of the two Schur complements, which is sufficient
    for invertibility and implies every kernel condition.  ``extremes`` are
    the block extremes measured on the way, or ``None`` when they are not
    admissible (for example when A is not positive definite).  Symmetry is
    not checked here: a system cannot be built with asymmetric A, D or E.
    """

    definiteness_ok: Mapping[str, bool]
    kernel_conditions: tuple[bool, bool, bool]
    schur_definite: tuple[bool, bool]
    b_full_row_rank: bool
    c_full_row_rank: bool
    c_nullity_k: int
    extremes: BlockExtremes | None

    @property
    def ok(self) -> bool:
        return (
            all(self.definiteness_ok.values())
            and all(self.kernel_conditions)
            and all(self.schur_definite)
        )


@dataclass(frozen=True)
class SchurPair:
    """The Schur complements of a system, dense, with the factors of A, S1
    and S2.

    ``factor_a`` is A's factor by A's type: a Cholesky factor (:func:`_cho`)
    for a dense A, the pivot-free symmetric sparse LU (:func:`sparse_spd_factor`)
    for a sparse one.  ``cho_1`` and ``cho_2`` are Cholesky factors, each
    the Fortran-ordered upper factor U of its block.
    The pair serves the dense oracle and every dense system; on a sparse
    system a preconditioner builds it only when D or E fails the
    semidefiniteness certificate of the sparse LU route, or when a
    ``jacobi`` Schur position comes with one that reads the whole other
    block (see :func:`~saddlebounds.precond.build_approx`; ``jacobi``
    alone takes :func:`schur_diagonals`), and an implicit
    ``SchurComplement`` builds it when its dense form is asked for.  Each
    system builds its pair once and keeps it (:func:`schur_complements`).
    S1 = D + B A^-1 B^T is formed with the pair; when D stores no nonzero,
    ``s1`` is the array ``gram_b`` itself.  The tail Gram
    C S1^-1 C^T, S2 = E + C S1^-1 C^T, its factor ``cho_2`` and diag(S2)
    are formed on first read, so a caller that replaces S2 never pays for
    it, and every exact-S2 reader shares one factor; a failed factorization
    of S2 raises each time and is not kept.  Against a Cholesky factor a
    Gram is W^T W with W = U^-T (coupling)^T for the upper factor U; against
    A's sparse LU it is formed a block of columns at a time with its lower
    triangle mirrored from the upper one (:func:`_sparse_gram`), so no dense
    A and no n x m array is formed.  Either way each Gram and both
    complements are exactly symmetric.  The pair holds no rank: the
    regularization ratios take the Grams and :func:`validate`'s rank
    verdicts (:func:`regularization_ratio`).  The pair holds the blocks it
    reads, C and E, not its system: the system keeps the pair, and a pair
    that kept the system would make a reference cycle, which lives until
    the cyclic garbage collector runs.
    """

    s1: np.ndarray
    gram_b: np.ndarray = field(repr=False)
    factor_a: object = field(repr=False)
    cho_1: np.ndarray = field(repr=False)
    C: np.ndarray | sp.csr_array = field(repr=False)
    E: np.ndarray | sp.csr_array = field(repr=False)

    @cached_property
    def gram_c(self) -> np.ndarray:
        return _gram(self.cho_1, self.C)

    @cached_property
    def s2(self) -> np.ndarray:
        return self.gram_c + self.E

    @cached_property
    def cho_2(self) -> np.ndarray:
        return _cho(self.s2, "second-schur")

    @cached_property
    def s2_diagonal(self) -> np.ndarray:
        return _s2_diagonal(self.cho_1, self.C, self.E)


def _s2_diagonal(cho_1: np.ndarray, coupling, E) -> np.ndarray:
    """diag(S2) as diag(E) plus the column sums of W * W, W = U^-T C^T for
    S1's upper factor U and the coupling C, which forms neither the tail
    Gram nor S2; for a sparse C, W is solved in place in fresh dense blocks
    of ``_BLOCK`` columns of C^T."""
    if sp.issparse(coupling):  # fresh dense blocks the solve may overwrite
        halves = (_solve_upper_t(cho_1, coupling[j0:j1].toarray().T, overwrite=True)
                  for j0, j1 in _column_blocks(coupling.shape[0]))
    else:
        halves = (_solve_upper_t(cho_1, coupling.T),)
    return E.diagonal() + np.concatenate(
        [np.einsum("ij,ij->j", half, half) for half in halves])


def _column_blocks(count: int):
    """(start, stop) of consecutive blocks of ``_BLOCK`` of ``count`` columns."""
    return ((j0, min(j0 + _BLOCK, count)) for j0 in range(0, count, _BLOCK))


def _kernel_input(matrix, label: str = "matrix", wide: bool = False) -> np.ndarray:
    """The one input rule of the public kernels: the matrix densified,
    finite and 2-d (:func:`_checked`, else :class:`StructuralError` naming
    ``label``), and square, or wide with at least one row (0 < rows <= cols)
    when ``wide``, else :class:`ParameterError`."""
    a = _checked(_dense(matrix), label)
    rows, cols = a.shape
    if rows > cols or (rows < cols and not wide) or (wide and not rows):
        rule = "wide (0 < rows <= cols)" if wide else "square"
        raise ParameterError(f"{label} must be {rule}, got {a.shape}")
    return a


def _eigvalsh(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """All eigenvalues of a symmetric float array, ascending, from its lower
    triangle, by one call of ``?syevr``.

    The driver works in place on ``a.T``, which for a C-ordered ``a`` is
    Fortran-ordered with ``a``'s lower triangle as its upper one.  With
    ``overwrite`` the caller hands ``a`` over and it is destroyed when it is
    C-ordered and writeable; otherwise, and always without ``overwrite``,
    the driver gets one C-ordered copy, so ``a`` is left as it was and the
    eigenvalues are bitwise the same either way.  A nonzero LAPACK ``info``
    raises :class:`ConvergenceError`.
    """
    dim = a.shape[0]
    if not dim:
        return np.empty(0)
    if not (overwrite and a.flags.c_contiguous and a.flags.writeable):
        a = np.array(a, order="C")
    lwork, liwork = _syevr_lwork(dim)
    vals, _, _, _, info = _SYEVR(a.T, compute_v=0, lower=0, lwork=lwork,
                                 liwork=liwork, overwrite_a=1)
    if info:
        raise ConvergenceError(f"dense symmetric eigensolve failed (LAPACK info {info})")
    return vals


def _tridiagonal_eigvalsh(diagonal: np.ndarray, off_diagonal: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending, by one
    call of ``?sterf``, which overwrites both arrays; it splits the matrix
    at each zero of ``off_diagonal`` and solves the pieces apart.  A nonzero
    LAPACK ``info`` raises :class:`ConvergenceError`."""
    vals, info = _STERF(diagonal, off_diagonal, overwrite_d=1, overwrite_e=1)
    if info:
        raise ConvergenceError(f"tridiagonal eigensolve failed (LAPACK info {info})")
    return vals


@lru_cache(maxsize=256)
def _syevr_lwork(dim: int) -> tuple[int, int]:
    """``?syevr``'s workspace sizes for a dim x dim matrix, which depend on
    nothing else."""
    work, iwork, _ = _SYEVR_LWORK(dim)
    return int(work), int(iwork)


@lru_cache(maxsize=256)
def _gesdd_lwork(rows: int, cols: int) -> int:
    """``?gesdd``'s workspace size, without singular vectors, for a rows x
    cols matrix."""
    work, _ = _GESDD_LWORK(rows, cols, compute_uv=0)
    return int(work)


def extremal_eigs(matrix) -> tuple[float, float]:
    """Smallest and largest eigenvalues of a symmetric matrix, which passes
    the kernels' input rule (:func:`_kernel_input`).

    A matrix that stores no nonzero gives (0, 0) without an eigensolve.
    Otherwise, at any size, the two ends of one dense eigensolve
    (:func:`_eigvalsh`), which reads one triangle of a copy of the matrix:
    the caller's matrix, a system block or a Schur complement, is never
    written.
    """
    a = _kernel_input(matrix)
    if not a.any():
        return 0.0, 0.0
    vals = _eigvalsh(a)
    return float(vals[0]), float(vals[-1])


def _singular_values(matrix) -> np.ndarray:
    """All singular values, descending: the one source of ranks and sigma
    extremes.  One call of ``?gesdd`` without singular vectors, on a
    Fortran-ordered copy of the matrix; a nonzero LAPACK ``info`` raises
    :class:`ConvergenceError`."""
    a = _dense(matrix)
    _, svals, _, info = _GESDD(a, compute_uv=0, lwork=_gesdd_lwork(*a.shape))
    if info:
        raise ConvergenceError(f"singular value decomposition failed (LAPACK info {info})")
    return svals


def below_rank_tol(sigma, sigma_max: float):
    """Whether a singular value (or each of an array of them) counts as
    zero next to the largest, ``sigma_max``: the one rank rule, at most
    ``RANK_TOL`` times ``sigma_max`` (floored at the smallest normal float)."""
    return sigma <= RANK_TOL * max(sigma_max, _TINY)


def _rank(svals: np.ndarray) -> int:
    """The number of singular values, in any order, that count as nonzero."""
    return svals.size - int(np.count_nonzero(below_rank_tol(svals, float(svals.max()))))


def extremal_svals(matrix) -> tuple[float, float]:
    """Smallest and largest of the r singular values of an r x c matrix, r <= c.

    The smallest is the r-th largest singular value and is zero exactly when
    the matrix is row-rank-deficient.  The matrix passes the kernels' input
    rule (:func:`_kernel_input`) with wide in place of square, so a matrix
    with no rows raises :class:`ParameterError`.
    """
    svals = _singular_values(_kernel_input(matrix, wide=True))
    return float(svals[-1]), float(svals[0])


def full_spectrum(matrix, overwrite: bool = False) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, from one triangle
    of it; desk scale only.  The matrix passes the kernels' input rule
    (:func:`_kernel_input`), then a dimension above ``ORACLE_CUTOFF``
    raises :class:`OracleSizeError`.

    The caller owns the matrix, and by default it is never written: the
    eigensolve works in one N x N copy.  ``overwrite=True``, as in scipy's
    ``overwrite_a``, hands the matrix over: a C-ordered, writeable float
    array is then destroyed by the eigensolve and no copy is made, so a
    caller that forms a matrix only to eigensolve it holds one N x N array,
    not two.  The eigenvalues are bitwise the same either way.
    """
    a = _kernel_input(matrix)
    dim = a.shape[0]
    if dim > ORACLE_CUTOFF:
        raise OracleSizeError(
            f"full spectrum refused for dimension {dim} > cutoff {ORACLE_CUTOFF}"
        )
    return _eigvalsh(a, overwrite)


def inertia(matrix) -> Inertia:
    """Inertia of a symmetric matrix via a pivoted LDL^T factorization.

    Signs are counted on the eigenvalues of the block-diagonal factor,
    which Sylvester's law makes congruence-exact; that factor is
    tridiagonal (its 1x1 and 2x2 pivot blocks are separated by exact
    zeros), so :func:`scipy.linalg.eigvalsh_tridiagonal` takes it whole.
    Values with magnitude at most ``ZERO_TOL * ||M||_1`` count as zero.
    The matrix passes the kernels' input rule (:func:`_kernel_input`),
    after which the factorization, which reads one triangle, cannot fail:
    singular and zero matrices factor too, and an empty one has inertia
    (0, 0, 0).
    """
    a = _kernel_input(matrix)
    if not a.size:
        return Inertia(0, 0, 0)
    cut = ZERO_TOL * max(float(np.abs(a).sum(axis=0).max()), _TINY)
    _, d, _ = sla.ldl(a, check_finite=False)
    vals = sla.eigvalsh_tridiagonal(d.diagonal(), d.diagonal(-1), check_finite=False)
    n_plus = int(np.count_nonzero(vals > cut))
    n_minus = int(np.count_nonzero(vals < -cut))
    return Inertia(n_plus, n_minus, vals.size - n_plus - n_minus)


def schur_complements(system: DoubleSaddleSystem) -> SchurPair:
    """The Schur pair of ``system``: A's factor, S1 = D + B A^-1 B^T and its
    factor; S2 = E + C S1^-1 C^T follows on first read of the pair.

    The system builds its pair on the first call and keeps it as long as it
    lives (``DoubleSaddleSystem._schur``), so every later call on the same
    system object returns that pair as built; another system, a
    :meth:`~saddlebounds.system.DoubleSaddleSystem.dense` copy of a sparse
    one included, has its own.  A failed build is not kept: each call
    raises again.
    """
    return system._schur


def _schur_pair(system: DoubleSaddleSystem) -> SchurPair:
    """The build behind :func:`schur_complements`: factor A, form S1 and
    factor it.

    A dense A gets a Cholesky factor (:func:`_cho`), and the B-Gram costs one
    triangular solve against its upper factor and one ``?syrk`` (:func:`_gram`);
    a sparse A gets one pivot-free symmetric sparse LU
    (:func:`sparse_spd_factor`), and the B-Gram is formed from it in
    blocks of columns (:func:`_sparse_gram`), so A is never densified.
    Either failure is :class:`DefinitenessError` naming the leading block.
    When D stores no nonzero, S1 is the B-Gram itself.
    """
    factor_a, gram_b = _leading_gram(system)
    # dense + sparse is dense; with D = 0, S1 is the Gram itself, not a copy
    s1 = gram_b if system.d_zero else gram_b + system.D
    return SchurPair(s1=s1, gram_b=gram_b, factor_a=factor_a,
                     cho_1=_cho(s1, "first-schur"), C=system.C, E=system.E)


def schur_diagonals(system: DoubleSaddleSystem, tail: bool):
    """A's factor, diag(S1) and, with ``tail``, diag(S2) (else ``None``):
    what a reader of no more than the diagonals of the two Schur
    complements needs, formed as :func:`schur_complements` forms them but
    with no copy of S1 kept.

    S1 is formed in the fresh B-Gram, D added in place, and its diagonal
    kept; then S1 is factored in place, through its Fortran-ordered view
    ``s1.T`` (the same matrix, S1 being exactly symmetric), so the one
    m x m array becomes S1's factor.  Values and layout are those the pair
    factors, so both diagonals are bitwise the pair's.  Failures raise as
    in :func:`schur_complements`.
    """
    factor_a, s1 = _leading_gram(system)
    if sp.issparse(system.D):
        d = sp.coo_array(system.D)
        np.add.at(s1, (d.row, d.col), d.data)
    else:
        s1 += system.D
    diagonal_1 = s1.diagonal().copy()
    cho_1 = _cho(s1.T, "first-schur", overwrite=True)
    return factor_a, diagonal_1, _s2_diagonal(cho_1, system.C, system.E) if tail else None


def _leading_gram(system: DoubleSaddleSystem):
    """A's factor and the B-Gram B A^-1 B^T in a fresh array: a Cholesky
    factor (:func:`_cho`) and :func:`_gram` for a dense A, the pivot-free
    symmetric sparse LU (:func:`sparse_spd_factor`) and :func:`_sparse_gram`
    for a sparse one; either failure is :class:`DefinitenessError` naming
    the leading block."""
    if sp.issparse(system.A):
        factor_a = sparse_spd_factor(system.A, "leading")
        return factor_a, _sparse_gram(factor_a, system.B)
    factor_a = _cho(system.A, "leading")
    return factor_a, _gram(factor_a, system.B)


def _cho(a: np.ndarray, label: str, overwrite: bool = False) -> np.ndarray:
    """The upper Cholesky factor U of an SPD array, P = U^T U, from one
    ``?potrf`` call, which reads the upper triangle and leaves the lower one
    as it was: the array ``scipy.linalg.cho_factor`` gives first.  U is
    Fortran-ordered: the call works in a Fortran-ordered copy, or, with
    ``overwrite``, in ``a`` itself when it is Fortran-ordered.  A block that
    is not positive definite raises :class:`DefinitenessError` naming
    ``label``."""
    upper, info = _POTRF(a, lower=0, overwrite_a=overwrite, clean=0)
    if info:
        raise DefinitenessError(f"{label} block is not positive definite")
    return upper


def _cho_solve(upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """P^-1 rhs for the upper Cholesky factor U of P (:func:`_cho`), by one
    ``?potrs`` call, as ``scipy.linalg.cho_solve`` makes it; ``rhs`` is
    left as it was."""
    x, _ = _POTRS(upper, rhs, lower=0)
    return x


def _splu(matrix, label: str, **options):
    """SuperLU factor of an exactly symmetric sparse matrix; SuperLU's
    "exactly singular" error becomes :class:`DefinitenessError` naming
    ``label``.  Every matrix factored here is one (a system or user block
    or a multiple of one, X = M + sqrt(beta) K, or a leading principal
    submatrix of K), so a CSR matrix is handed over as its own CSC form:
    its transpose, which shares its arrays and needs no conversion."""
    # imported here: loading it adds about 2 MB of resident memory to every
    # process, and only sparse blocks need it
    import scipy.sparse.linalg as spla

    csc = matrix.T if getattr(matrix, "format", None) == "csr" else sp.csc_array(matrix)
    try:
        return spla.splu(csc, **options)
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


def _solve_upper_t(factor, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """U^-T rhs for the upper factor U of P = U^T U: a 1-D vector sqrt(diag)
    or a Cholesky factor (:func:`_cho`), both checked finite when formed.

    A Cholesky factor, Fortran-ordered as :func:`_cho` gives it, costs one
    ``?trtrs`` call, as ``scipy.linalg.solve_triangular(U, rhs, trans=1)``
    makes it.  With ``overwrite`` a Fortran-ordered ``rhs`` is solved in
    place."""
    if factor.ndim == 1:
        return rhs / factor[:, None]
    x, _ = _TRTRS(factor, rhs, lower=0, trans=1, overwrite_b=overwrite)
    return x


def _gram(factor, coupling) -> np.ndarray:
    """coupling P^-1 coupling^T as W^T W, W = U^-T coupling^T (dense), by
    one ``?syrk`` on the Fortran-ordered W (a copy only if W is not) and a
    mirror of the triangle it forms (:func:`_mirror_upper`), so the Gram is
    C-ordered and exactly symmetric.  A sparse coupling is solved in place
    in its fresh dense copy."""
    if sp.issparse(coupling):
        half = _solve_upper_t(factor, _dense(coupling).T, overwrite=True)
    else:
        half = _solve_upper_t(factor, coupling.T)
    # the lower triangle of the Fortran-ordered result is the upper one of
    # its C-ordered transpose
    gram = _SYRK(1.0, half, trans=1, lower=1).T
    _mirror_upper(gram)
    return gram


def _mirror_upper(gram: np.ndarray) -> None:
    """Copy the upper triangle of a square array onto its lower one, a
    block of ``_BLOCK`` columns at a time: each block row left of the
    diagonal from the block column above it, and each diagonal block from
    its own upper triangle through a slice of one fixed mask, so nothing
    larger than a block is formed."""
    for j0, j1 in _column_blocks(gram.shape[0]):
        gram[j0:j1, :j0] = gram[:j0, j0:j1].T
        diagonal = gram[j0:j1, j0:j1]
        np.copyto(diagonal, diagonal.T, where=_STRICT_LOWER[: j1 - j0, : j1 - j0])


def _sparse_gram(lu, coupling) -> np.ndarray:
    """coupling A^-1 coupling^T from a sparse LU of A, a block of ``_BLOCK``
    columns at a time: for the columns j0:j1, X = A^-1 coupling[j0:j1]^T
    (one n x _BLOCK solve) gives the upper block column coupling[:j1] X;
    the upper triangle is then mirrored (:func:`_mirror_upper`), so the
    Gram is exactly symmetric.  No dense A, no n x m array and no dense
    coupling^T is formed."""
    rows = coupling.shape[0]
    gram = np.empty((rows, rows))
    for j0, j1 in _column_blocks(rows):
        gram[:j1, j0:j1] = coupling[:j1] @ lu.solve(_dense(coupling[j0:j1]).T)
    _mirror_upper(gram)
    return gram


def regularization_ratio(reg, gram: np.ndarray, full_row_rank: bool) -> float:
    """eta = the largest generalized eigenvalue of (reg, gram), clamped at 0:
    eta_D for (D, B A^-1 B^T) and eta_E for (E, C S1^-1 C^T).

    A ``reg`` that stores no nonzero gives 0.0 with no eigensolve.  The
    ratio exists only for a coupling of full row rank, so a ``False``
    ``full_row_rank`` (:func:`validate`'s SVD verdict on the coupling) gives
    ``inf``, as does a Gram that is not positive definite in floating point.
    """
    reg = _dense(reg)
    return _ratio(not np.any(reg), full_row_rank,
                  lambda: _pencil_eigvalsh(reg, gram, "gram")[-1])


def _ratio(reg_zero: bool, full_row_rank: bool, largest) -> float:
    """The eta rule both oracles share: 0.0 for a regularization block that
    stores no nonzero, ``inf`` for a coupling not of full row rank or a
    ``largest`` generalized eigenvalue that raises :class:`DefinitenessError`
    (the Gram is singular), else ``largest()`` clamped at 0."""
    if reg_zero:
        return 0.0
    if not full_row_rank:
        return float("inf")
    try:
        top = largest()
    except DefinitenessError:
        return float("inf")
    return max(float(top), 0.0)


def _pencil_eigvalsh(a: np.ndarray, b: np.ndarray, label: str) -> np.ndarray:
    """All eigenvalues, ascending, of the symmetric-definite pencil (a, b)
    as ``scipy.linalg.eigh(a, b, eigvals_only=True)`` gives them: one
    ``?sygvd`` call on copies of both, reading their lower triangles.  A
    ``b`` that is not positive definite raises :class:`DefinitenessError`
    naming ``label``; a failed eigensolve, :class:`ConvergenceError`."""
    vals, _, info = _SYGVD(a, b, itype=1, jobz="N", uplo="L")
    if info > a.shape[0]:
        raise DefinitenessError(f"{label} block is not positive definite")
    if info:
        raise ConvergenceError(f"pencil eigensolve failed (LAPACK info {info})")
    return vals


def _definite(eig_range: tuple[float, float]) -> bool:
    lo, hi = eig_range
    return bool(lo > SYM_TOL * max(abs(lo), abs(hi), _TINY))


def _semidefinite(eig_range: tuple[float, float]) -> bool:
    lo, hi = eig_range
    return bool(lo >= -SYM_TOL * max(abs(lo), abs(hi), _TINY))


def validate(system: DoubleSaddleSystem) -> ValidationReport:
    """Run every structural invariant check and report the outcome: the
    dense measurements, judged by :func:`_judged`.

    A, D and E are exactly symmetric by construction of the system, so
    symmetry is not checked again, and the eigensolves read one triangle
    of each block; a D or E that stores no nonzero has extremes (0, 0)
    without one (:func:`extremal_eigs`).  The singular values of a
    kernel-condition stack are measured only when :func:`_judged` reads
    them.  The (B, C) singular values are the only ones of the couplings an
    analysis measures; the regularization ratios take the rank verdicts
    (:func:`regularization_ratio`).  S1 and S2 come from
    :func:`schur_complements`, so on a dense system this builds the pair
    that the system keeps and every later reader gets (S2's factor
    included, formed by the first preconditioner that reads it); a failed
    build reads as neither complement definite.  A sparse system is checked
    on a fresh :meth:`~saddlebounds.system.DoubleSaddleSystem.dense` copy,
    whose pair dies with it.  A system the modal oracle recognizes is
    measured from its mode values instead
    (:meth:`~saddlebounds.modal.ModalOracle.validation`).
    """
    system = system.dense()
    A, B, C, D, E = system.A, system.B, system.C, system.D, system.E

    def schur_ranges():
        pair = schur_complements(system)
        yield extremal_eigs(pair.s1)
        yield extremal_eigs(pair.s2)

    mu_a, mu_d, mu_e = extremal_eigs(A), extremal_eigs(D), extremal_eigs(E)
    svals_b, svals_c = _singular_values(B), _singular_values(C)
    stacks = ((A, B), (B.T, D, C), (C.T, E))
    return _judged(
        system.dims, mu_a, svals_b, svals_c, mu_d, mu_e,
        [lambda blocks=blocks: _singular_values(np.vstack(blocks)) for blocks in stacks],
        schur_ranges())


def _judged(dims, mu_a, svals_b, svals_c, mu_d, mu_e, stack_svals,
            schur_ranges) -> ValidationReport:
    """The judgement of :func:`validate`, one home for each rule whichever
    oracle measured: the eigen-ranges of A, D and E, the singular values of
    B and C in any order, ``stack_svals``, three callables that give those
    of the kernel-condition stacks [A; B], [B^T; D; C] and [C^T; E], and
    ``schur_ranges``, an iterator over the eigen-ranges of S1 and S2 whose
    first step raises :class:`DefinitenessError` when S1 cannot be formed.

    Definiteness is judged relative to ``SYM_TOL`` (:func:`_definite`,
    :func:`_semidefinite`), ranks by :func:`below_rank_tol`; the nullity of
    C^T is p - rank(C).  A kernel condition whose top block is injective (A
    definite, B or C of full row rank) holds without its stack, and the
    Schur ranges are read only as far as needed: S1 only for a definite A,
    S2 only for a definite S1.  The measurements also give ``extremes``
    (:meth:`BlockExtremes._measured`), ``None`` when they are not
    admissible.
    """
    n, m, p = dims
    try:
        extremes = BlockExtremes._measured(mu_a, svals_b, svals_c, mu_d, mu_e)
    except ParameterError:
        extremes = None
    a_pd = _definite(mu_a)
    definiteness_ok = {"A": a_pd, "D": _semidefinite(mu_d), "E": _semidefinite(mu_e)}

    b_full_row_rank = _rank(svals_b) == m
    rank_c = _rank(svals_c)
    c_full_row_rank = rank_c == p

    kernel_conditions = (
        a_pd or _rank(stack_svals[0]()) == n,
        b_full_row_rank or _rank(stack_svals[1]()) == m,
        c_full_row_rank or _rank(stack_svals[2]()) == p,
    )

    s1_pd = s2_pd = False
    if a_pd:
        try:
            s1_pd = _definite(next(schur_ranges))
        except DefinitenessError:
            pass
        else:
            s2_pd = s1_pd and _definite(next(schur_ranges))

    return ValidationReport(
        definiteness_ok=definiteness_ok,
        kernel_conditions=kernel_conditions,
        schur_definite=(s1_pd, s2_pd),
        b_full_row_rank=b_full_row_rank,
        c_full_row_rank=c_full_row_rank,
        c_nullity_k=p - rank_c,
        extremes=extremes,
    )
