"""Block data model for double saddle-point systems.

A system couples three variable groups of sizes n >= m >= p through five
blocks: a symmetric positive definite leading block A, rectangular coupling
blocks B (m x n) and C (p x m), and symmetric positive semidefinite
regularization blocks D (m x m) and E (p x p).  The assembled matrix

    [ A   B^T  0  ]
    [ B  -D   C^T ]
    [ 0   C    E  ]

is symmetric indefinite.  Everything downstream (spectral kernels, bound
formulas, preconditioners, solvers) consumes the immutable
:class:`DoubleSaddleSystem` defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import StructuralError, UnsupportedLayoutError

SYM_TOL = 1e-12
RANK_TOL = 1e-10

Layout = Literal["standard", "flipped", "two-by-two"]

_TINY = float(np.finfo(float).tiny)


def _dense(block) -> np.ndarray:
    if sp.issparse(block):
        return np.asarray(block.todense(), dtype=float)
    arr = np.asarray(block, dtype=float)
    if arr.ndim != 2:
        raise StructuralError(f"blocks must be 2-d matrices, got shape {arr.shape}")
    return arr


def _sym(block: np.ndarray) -> np.ndarray:
    return (block + block.T) / 2.0


@dataclass(frozen=True)
class DoubleSaddleSystem:
    """Immutable container for the five blocks of a double saddle-point system."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray

    def __post_init__(self):
        for name in "ABCDE":
            object.__setattr__(self, name, _dense(getattr(self, name)))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise StructuralError(f"block A must be square, got {self.A.shape}")
        m = self.B.shape[0]
        if self.B.shape != (m, n):
            raise StructuralError(
                f"block B must have shape (m, {n}) to match A, got {self.B.shape}"
            )
        p = self.C.shape[0]
        if self.C.shape != (p, m):
            raise StructuralError(
                f"block C must have shape (p, {m}) to match B, got {self.C.shape}"
            )
        if self.D.shape != (m, m):
            raise StructuralError(
                f"block D must have shape ({m}, {m}) to match B, got {self.D.shape}"
            )
        if self.E.shape != (p, p):
            raise StructuralError(
                f"block E must have shape ({p}, {p}) to match C, got {self.E.shape}"
            )
        if not (n >= m >= p >= 1):
            raise StructuralError(
                f"dimensions must satisfy n >= m >= p >= 1, got (n, m, p) = {(n, m, p)}"
            )

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.A.shape[0], self.B.shape[0], self.C.shape[0]

    @property
    def total(self) -> int:
        return sum(self.dims)

    def unregularized(self) -> "DoubleSaddleSystem":
        """Copy of the system with both regularization blocks zeroed."""
        n, m, p = self.dims
        return DoubleSaddleSystem(
            self.A, self.B, self.C, np.zeros((m, m)), np.zeros((p, p))
        )


@dataclass(frozen=True)
class AssembledMatrix:
    """A fully assembled symmetric matrix plus its block bookkeeping."""

    data: np.ndarray
    layout: Layout
    block_offsets: tuple[int, int, int]

    @property
    def dimension(self) -> int:
        return self.data.shape[0]


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


def _symmetry_ok(block: np.ndarray, sym_tol: float) -> bool:
    scale = max(float(np.abs(block).max(initial=0.0)), _TINY)
    return bool(float(np.abs(block - block.T).max(initial=0.0)) <= sym_tol * scale)


def _eig_range(block: np.ndarray) -> tuple[float, float]:
    vals = np.linalg.eigvalsh(_sym(block))
    return float(vals[0]), float(vals[-1])


def _full_column_rank(stacked: np.ndarray, rank_tol: float) -> bool:
    gram = _sym(stacked.T @ stacked)
    vals = np.linalg.eigvalsh(gram)
    hi = float(vals[-1])
    if hi <= 0.0:
        return False
    return float(vals[0]) > rank_tol**2 * hi


def validate(
    system: DoubleSaddleSystem,
    sym_tol: float = SYM_TOL,
    rank_tol: float = RANK_TOL,
) -> ValidationReport:
    """Run every structural invariant check and report the outcome.

    Rank decisions compare singular values against ``rank_tol`` times the
    largest one; the nullity of C^T is p - rank(C).
    """
    A, B, C, D, E = system.A, system.B, system.C, system.D, system.E
    n, m, p = system.dims

    symmetric_ok = {
        "A": _symmetry_ok(A, sym_tol),
        "D": _symmetry_ok(D, sym_tol),
        "E": _symmetry_ok(E, sym_tol),
    }

    lo_a, hi_a = _eig_range(A)
    lo_d, hi_d = _eig_range(D)
    lo_e, hi_e = _eig_range(E)
    a_pd = bool(lo_a > sym_tol * max(abs(lo_a), abs(hi_a), _TINY))
    definiteness_ok = {
        "A": a_pd,
        "D": bool(lo_d >= -sym_tol * max(abs(lo_d), abs(hi_d), _TINY)),
        "E": bool(lo_e >= -sym_tol * max(abs(lo_e), abs(hi_e), _TINY)),
    }

    sv_b = np.linalg.svd(B, compute_uv=False)
    sv_c = np.linalg.svd(C, compute_uv=False)
    b_full_row_rank = bool(sv_b[-1] > rank_tol * max(float(sv_b[0]), _TINY))
    rank_c = int(np.count_nonzero(sv_c > rank_tol * max(float(sv_c[0]), _TINY)))
    c_full_row_rank = rank_c == p

    kernel_conditions = (
        _full_column_rank(np.vstack([_sym(A), B]), rank_tol),
        _full_column_rank(np.vstack([B.T, _sym(D), C]), rank_tol),
        _full_column_rank(np.vstack([C.T, _sym(E)]), rank_tol),
    )

    s1_pd = False
    s2_pd = False
    if a_pd:
        try:
            cho_a = sla.cho_factor(_sym(A))
            s1 = _sym(D + B @ sla.cho_solve(cho_a, B.T))
            lo1, hi1 = _eig_range(s1)
            s1_pd = bool(lo1 > sym_tol * max(abs(lo1), abs(hi1), _TINY))
            if s1_pd:
                cho_1 = sla.cho_factor(s1)
                s2 = _sym(E + C @ sla.cho_solve(cho_1, C.T))
                lo2, hi2 = _eig_range(s2)
                s2_pd = bool(lo2 > sym_tol * max(abs(lo2), abs(hi2), _TINY))
        except sla.LinAlgError:
            pass

    return ValidationReport(
        symmetric_ok=symmetric_ok,
        definiteness_ok=definiteness_ok,
        kernel_conditions=kernel_conditions,
        schur_definite=(s1_pd, s2_pd),
        b_full_row_rank=b_full_row_rank,
        c_full_row_rank=c_full_row_rank,
        c_nullity_k=p - rank_c,
    )


def assemble(system: DoubleSaddleSystem, layout: Layout = "standard") -> AssembledMatrix:
    """Assemble the system into one symmetric matrix in the requested ordering.

    ``standard`` places (A, -D, E) on the diagonal.  ``two-by-two`` orders
    the variables so the leading block is diag(A, E), exposing the matrix as
    an ordinary 2x2 saddle-point system.  ``flipped`` reverses the variable
    groups, which swaps the roles of the outer blocks; it is only defined
    when all blocks are square (n = m = p).

    Symmetry of the result is exact by construction: diagonal blocks are
    symmetrized and off-diagonal blocks are mirrored.
    """
    A, B, C, D, E = system.A, system.B, system.C, system.D, system.E
    n, m, p = system.dims
    a_s, d_s, e_s = _sym(A), _sym(D), _sym(E)
    total = n + m + p
    out = np.zeros((total, total))

    if layout == "standard":
        offs = (0, n, n + m)
        _place(out, offs, (a_s, -d_s, e_s), (B, C))
    elif layout == "two-by-two":
        # variable order (x, z, y): leading block diag(A, E), trailing -D
        offs = (0, n, n + p)
        i0, i1, i2 = slice(0, n), slice(n, n + p), slice(n + p, total)
        out[i0, i0] = a_s
        out[i1, i1] = e_s
        out[i2, i2] = -d_s
        out[i2, i0] = B
        out[i0, i2] = B.T
        out[i1, i2] = C
        out[i2, i1] = C.T
    elif layout == "flipped":
        if not (n == m == p):
            raise UnsupportedLayoutError(
                f"flipped layout needs square blocks (n = m = p), got {(n, m, p)}"
            )
        offs = (0, p, p + m)
        _place(out, offs, (e_s, -d_s, a_s), (C.T, B.T))
    else:
        raise UnsupportedLayoutError(f"unknown layout {layout!r}")

    return AssembledMatrix(data=out, layout=layout, block_offsets=offs)


def _place(out, offsets, diagonal, couplings):
    o0, o1, o2 = offsets
    total = out.shape[0]
    i0, i1, i2 = slice(o0, o1), slice(o1, o2), slice(o2, total)
    out[i0, i0], out[i1, i1], out[i2, i2] = diagonal
    lower_mid, lower_tail = couplings
    out[i1, i0] = lower_mid
    out[i0, i1] = lower_mid.T
    out[i2, i1] = lower_tail
    out[i1, i2] = lower_tail.T


def unregularized(system: DoubleSaddleSystem) -> DoubleSaddleSystem:
    """Module-level alias for :meth:`DoubleSaddleSystem.unregularized`."""
    return system.unregularized()
