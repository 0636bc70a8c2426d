"""Eigenvalue and singular-value kernels, and the structural checks built on them.

Extremal eigenvalues come from a dense symmetric decomposition up to
``ORACLE_CUTOFF`` and from ARPACK (``eigsh``) above it.  Singular values,
and with them every rank decision, come from one SVD helper.  Also home to
the Schur complements of a system (dense; each Gram from one U^-T solve
against an upper Cholesky factor, the helper the preconditioners'
congruence shares; one analysis builds them once, see
:class:`SharedSchurPair`), the two regularization ratios (largest generalized
eigenvalues of the regularization blocks against the coupling Grams) that
drive the inexact-preconditioner bounds, and :func:`validate`, which checks
the hypotheses of the bounds with these same kernels on the densified
system.  The symmetric kernels take a symmetric matrix as given: system
blocks are made exactly symmetric when the system is built, and the
matrices formed here are symmetric by construction.  Every public kernel
(and :func:`~saddlebounds.precond.equivalence_constants`) takes its matrix
arguments through one input rule, :func:`_kernel_input`.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from functools import cached_property
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
from .system import _TINY, SYM_TOL, DoubleSaddleSystem, _checked, _dense, _values

ORACLE_CUTOFF = 4096
RANK_TOL = 1e-10
EIG_TOL = 1e-10
ZERO_TOL = 1e-11

# fixed start vector seed: identical runs give identical estimates
_ARPACK_SEED = 0x5ADD1E
# work cap: a 32-vector Lanczos basis restarted at most 20 times is about
# 630 matrix-vector products
_ARPACK_NCV = 32
_ARPACK_RESTARTS = 20


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
        """Extremes from the eigen-ranges of A, D, E and the descending singular
        values of B, C.  Semidefinite blocks may report tiny negative minima
        from round-off; those are clamped to zero.
        """

        def clamp(pair):
            lo, hi = pair
            scale = max(abs(lo), abs(hi), 1.0)
            if lo < 0 and lo >= -SYM_TOL * scale:
                lo = 0.0
            return lo, max(hi, lo)

        return cls(*mu_a, float(svals_b[-1]), float(svals_b[0]),
                   float(svals_c[-1]), float(svals_c[0]), *clamp(mu_d), *clamp(mu_e))

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
    """The Schur complements of a system, the ``cho_factor`` results of A,
    S1 and S2, and the regularization ratio constants, all dense.

    The pair serves the dense oracle and every dense system; on a sparse
    system a preconditioner builds it only for ``jacobi`` and when D or E
    fails the semidefiniteness certificate of the sparse LU route (see
    :func:`~saddlebounds.precond.build_approx`), and an implicit
    ``SchurComplement`` builds it when its dense form is asked for.  One
    analysis builds it once and shares it (:class:`SharedSchurPair`).
    S1 = D + B A^-1 B^T is formed with the pair; when D stores no nonzero,
    ``s1`` is the array ``gram_b`` itself.  The tail Gram
    C S1^-1 C^T, S2 = E + C S1^-1 C^T, its factor ``cho_2``, diag(S2) and
    both ratios are formed on first read, so a caller that replaces S2
    never pays for it, and every exact-S2 reader shares one factor; a
    failed factorization of S2 raises each time and is not kept.  Each
    Gram is W^T W with W = U^-T (coupling)^T for the upper Cholesky factor
    U, so it and both complements are exactly symmetric; A is densified
    for its factor when it is sparse, since the Gram is dense anyway.

    ``eta_d`` is the largest generalized eigenvalue of (D, B A^-1 B^T) and
    ``eta_e`` of (E, C S1^-1 C^T); either is ``inf`` when the corresponding
    coupling block is row-rank-deficient while the regularization block is
    nonzero, and exactly zero when the regularization block vanishes.  The
    rank is the SVD rank :func:`validate` reports; ``full_row_rank`` holds
    its (B, C) verdicts when the caller has them, else they are measured on
    first read of a ratio.
    """

    system: DoubleSaddleSystem = field(repr=False)
    s1: np.ndarray
    gram_b: np.ndarray = field(repr=False)
    cho_a: tuple = field(repr=False)
    cho_1: tuple = field(repr=False)
    full_row_rank: tuple[bool, bool] | None = field(default=None, repr=False)

    @cached_property
    def gram_c(self) -> np.ndarray:
        return _gram(self.cho_1, self.system.C)

    @cached_property
    def s2(self) -> np.ndarray:
        return self.gram_c + self.system.E

    @cached_property
    def cho_2(self) -> tuple:
        try:
            return sla.cho_factor(self.s2)
        except sla.LinAlgError as exc:
            raise DefinitenessError("second-schur block is not positive definite") from exc

    @cached_property
    def s2_diagonal(self) -> np.ndarray:
        """diag(S2) as diag(E) plus the column sums of W * W, W = U^-T C^T,
        which forms neither the tail Gram nor S2."""
        coupling = self.system.C
        if sp.issparse(coupling):  # a fresh dense copy the solve may overwrite
            half = _solve_upper_t(self.cho_1, coupling.toarray().T, overwrite=True)
        else:
            half = _solve_upper_t(self.cho_1, coupling.T)
        return self.system.E.diagonal() + np.einsum("ij,ij->j", half, half)

    @cached_property
    def eta_d(self) -> float:
        return self._ratio(self.system.D, 0, "gram_b")

    @cached_property
    def eta_e(self) -> float:
        return self._ratio(self.system.E, 1, "gram_c")

    def _ratio(self, reg, which: int, gram: str) -> float:
        reg = _dense(reg)
        if not np.any(reg):
            return 0.0
        if self.full_row_rank is not None:
            full = self.full_row_rank[which]
        else:
            coupling = (self.system.B, self.system.C)[which]
            full = _rank(_singular_values(coupling)) == coupling.shape[0]
        if not full:
            return float("inf")
        return _regularization_ratio(reg, getattr(self, gram))


def _kernel_input(matrix, label: str = "matrix", wide: bool = False) -> np.ndarray:
    """The one input rule of the public kernels: the matrix densified,
    finite and 2-d (:func:`_checked`, else :class:`StructuralError` naming
    ``label``), and square, or wide (rows <= cols) when ``wide``, else
    :class:`ParameterError`."""
    a = _checked(_dense(matrix), label)
    rows, cols = a.shape
    if rows > cols or (rows < cols and not wide):
        rule = "wide (rows <= cols)" if wide else "square"
        raise ParameterError(f"{label} must be {rule}, got {a.shape}")
    return a


def extremal_eigs(matrix, dense_cutoff: int = ORACLE_CUTOFF) -> tuple[float, float]:
    """Smallest and largest eigenvalues of a symmetric matrix, which passes
    the kernels' input rule (:func:`_kernel_input`).

    A matrix that stores no nonzero gives (0, 0) without an eigensolve.
    Otherwise a dense decomposition up to ``dense_cutoff``, which reads one
    triangle of the matrix; beyond that ARPACK from a fixed-seed start
    vector, which applies all of it, certified by the residual test
    ||A v - t v|| <= EIG_TOL * max|t|.
    """
    a = _kernel_input(matrix)
    if not a.any():
        return 0.0, 0.0
    if a.shape[0] <= dense_cutoff:
        vals = np.linalg.eigvalsh(a)
        return float(vals[0]), float(vals[-1])
    return _arpack_extremes(a.copy())  # the shift stays local to the copy


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
    return np.linalg.svd(_dense(matrix), compute_uv=False)


def _rank(svals: np.ndarray) -> int:
    return int(np.count_nonzero(svals > RANK_TOL * max(float(svals[0]), _TINY)))


def extremal_svals(matrix) -> tuple[float, float]:
    """Smallest and largest of the r singular values of an r x c matrix, r <= c.

    The smallest is the r-th largest singular value and is zero exactly when
    the matrix is row-rank-deficient.  The matrix passes the kernels' input
    rule (:func:`_kernel_input`) with wide in place of square.
    """
    svals = _singular_values(_kernel_input(matrix, wide=True))
    return float(svals[-1]), float(svals[0])


def full_spectrum(matrix, oracle_cutoff: int = ORACLE_CUTOFF) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, from one triangle
    of it; desk scale only.  The matrix passes the kernels' input rule
    (:func:`_kernel_input`), then a dimension above ``oracle_cutoff``
    raises :class:`OracleSizeError`."""
    a = _kernel_input(matrix)
    dim = a.shape[0]
    if dim > oracle_cutoff:
        raise OracleSizeError(
            f"full spectrum refused for dimension {dim} > cutoff {oracle_cutoff}"
        )
    return np.linalg.eigvalsh(a)


def inertia(matrix) -> Inertia:
    """Inertia of a symmetric matrix via a pivoted LDL^T factorization.

    Signs are counted on the 1x1 and 2x2 blocks of the block-diagonal
    factor, which Sylvester's law makes congruence-exact; values with
    magnitude at most ``ZERO_TOL * ||M||_1`` count as zero.  The matrix
    passes the kernels' input rule (:func:`_kernel_input`), after which
    the factorization, which reads one triangle, cannot fail: singular,
    zero and empty matrices factor too.
    """
    a = _kernel_input(matrix)
    cut = ZERO_TOL * max(float(np.abs(a).sum(axis=0).max(initial=0.0)), _TINY)
    _, d, _ = sla.ldl(a, check_finite=False)
    vals, i = [], 0
    while i < len(d):
        if i + 1 < len(d) and abs(d[i + 1, i]) > cut:
            # 2x2 pivot block: take its two eigenvalues directly
            t = 0.5 * (d[i, i] + d[i + 1, i + 1])
            radius = np.hypot(0.5 * (d[i, i] - d[i + 1, i + 1]), d[i + 1, i])
            vals += [t - radius, t + radius]
            i += 2
        else:
            vals.append(d[i, i])
            i += 1
    vals = np.array(vals)
    n_plus = int(np.count_nonzero(vals > cut))
    n_minus = int(np.count_nonzero(vals < -cut))
    return Inertia(n_plus, n_minus, vals.size - n_plus - n_minus)


class SharedSchurPair:
    """A scope, entered with ``with``, in which :func:`schur_complements`
    builds the pair of ``system`` once and returns that pair to every later
    call on the same system object, until :meth:`release` or the end of the
    scope drops it.  A failed build is not kept: each call raises again.

    The scope holds the pair, and nothing holds the scope once it ends, so
    the pair lives no longer than the caller wants it; the system is left
    untouched.  Calls on any other system, and calls outside a scope, build
    a fresh pair.
    """

    def __init__(self, system: DoubleSaddleSystem):
        self.system = system
        self.pair: SchurPair | None = None

    def __enter__(self) -> "SharedSchurPair":
        self._token = _SHARED.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _SHARED.reset(self._token)
        self.release()

    def release(self) -> None:
        """Drop the pair; later calls in the scope build their own."""
        self.system = self.pair = None


# the innermost open scope; each scope resets it when it ends
_SHARED: ContextVar[SharedSchurPair | None] = ContextVar("shared_schur", default=None)


def schur_complements(
    system: DoubleSaddleSystem, full_row_rank: tuple[bool, bool] | None = None
) -> SchurPair:
    """Factor A, form S1 = D + B A^-1 B^T and factor it; S2 = E + C S1^-1 C^T
    and the ratios follow on first read of the returned pair.

    Each Gram costs one triangular solve against the upper Cholesky factor
    and one symmetric product (see :class:`SchurPair`); when D stores no
    nonzero, S1 is the B-Gram itself.  The ratios are symmetric generalized
    eigenproblems (D v = eta * (B A^-1 B^T) v and its analogue), defined
    when the coupling block has full row rank; ``full_row_rank`` passes
    validate's (B, C) rank verdicts on to the pair.  Inside a
    :class:`SharedSchurPair` scope for ``system`` the first call builds the
    pair and later calls return it as built, whatever ``full_row_rank``
    they pass.
    """
    shared = _SHARED.get()
    if shared is None or shared.system is not system:
        shared = None
    elif shared.pair is not None:
        return shared.pair
    try:
        cho_a = sla.cho_factor(_dense(system.A))
    except sla.LinAlgError as exc:
        raise DefinitenessError("leading block is not positive definite") from exc
    gram_b = _gram(cho_a, system.B)
    # dense + sparse is dense; with D = 0, S1 is the Gram itself, not a copy
    s1 = gram_b + system.D if np.any(_values(system.D)) else gram_b
    try:
        cho_1 = sla.cho_factor(s1)
    except sla.LinAlgError as exc:
        raise DefinitenessError("first-schur block is not positive definite") from exc
    pair = SchurPair(system=system, s1=s1, gram_b=gram_b, cho_a=cho_a,
                     cho_1=cho_1, full_row_rank=full_row_rank)
    if shared is not None:
        shared.pair = pair
    return pair


def _solve_upper_t(factor, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """U^-T rhs for the upper factor U of P = U^T U: a 1-D vector sqrt(diag)
    or a ``cho_factor`` result, both checked finite when formed."""
    if isinstance(factor, np.ndarray):
        return rhs / factor[:, None]
    return sla.solve_triangular(factor[0], rhs, trans=1, overwrite_b=overwrite,
                                check_finite=False)


def _gram(factor, coupling) -> np.ndarray:
    """coupling P^-1 coupling^T as W^T W, W = U^-T coupling^T (dense); numpy
    forms the product of an array with its own transpose symmetrically."""
    half = _solve_upper_t(factor, _dense(coupling.T))
    return half.T @ half


def _regularization_ratio(reg: np.ndarray, gram: np.ndarray) -> float:
    if not np.any(reg):
        return 0.0
    try:
        vals = sla.eigh(reg, gram, eigvals_only=True)
    except sla.LinAlgError:  # the Gram is singular
        return float("inf")
    return max(float(vals[-1]), 0.0)


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

    A, D and E are exactly symmetric by construction of the system, so
    symmetry is not checked again, and the eigensolves read one triangle
    of each block; a D or E that stores no nonzero has extremes (0, 0)
    without one (:func:`extremal_eigs`).  Definiteness is judged relative
    to ``SYM_TOL``, ranks by singular values above ``RANK_TOL`` times the
    largest one; the nullity of C^T is p - rank(C).  A kernel condition
    whose top block is injective (A definite, B or C of full row rank)
    holds without a rank test of the stack.  S1 and S2 come from
    :func:`schur_complements`, given the (B, C) rank verdicts, so inside a
    :class:`SharedSchurPair` scope this builds the pair every later reader
    gets (S2's factor included, formed by the first preconditioner that
    reads it), and a ratio read from it needs no new SVD.  The
    eigen-ranges and singular values measured here also give ``extremes``.
    A sparse system is checked densified; a scope shares its pair only
    with a system that is already dense, since densifying makes a new
    system.
    """
    system = system.dense()
    A, B, C, D, E = system.A, system.B, system.C, system.D, system.E
    _, m, p = system.dims

    mu_a, mu_d, mu_e = extremal_eigs(A), extremal_eigs(D), extremal_eigs(E)
    svals_b, svals_c = _singular_values(B), _singular_values(C)
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
        a_pd or _full_column_rank(np.vstack([A, B])),
        b_full_row_rank or _full_column_rank(np.vstack([B.T, D, C])),
        c_full_row_rank or _full_column_rank(np.vstack([C.T, E])),
    )

    s1_pd = s2_pd = False
    if a_pd:
        try:
            pair = schur_complements(system, (b_full_row_rank, c_full_row_rank))
        except DefinitenessError:
            pass
        else:
            s1_pd = _definite(extremal_eigs(pair.s1))
            s2_pd = s1_pd and _definite(extremal_eigs(pair.s2))

    return ValidationReport(
        definiteness_ok=definiteness_ok,
        kernel_conditions=kernel_conditions,
        schur_definite=(s1_pd, s2_pd),
        b_full_row_rank=b_full_row_rank,
        c_full_row_rank=c_full_row_rank,
        c_nullity_k=p - rank_c,
        extremes=extremes,
    )
