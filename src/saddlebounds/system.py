"""Block data model for double saddle-point systems.

A system couples three variable groups of sizes n >= m >= p through five
blocks: a symmetric positive definite leading block A, rectangular coupling
blocks B (m x n) and C (p x m), and symmetric positive semidefinite
regularization blocks D (m x m) and E (p x p).  The assembled matrix

    [ A   B^T  0  ]
    [ B  -D   C^T ]
    [ 0   C    E  ]

is symmetric indefinite.  This module holds only the data model: the
immutable :class:`DoubleSaddleSystem`, which rejects inconsistent shapes and
non-finite entries when it is built, and :func:`assemble`.  Everything
downstream (validation and spectral kernels, bound formulas,
preconditioners, solvers) consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sp

from .errors import StructuralError, UnsupportedLayoutError

Layout = Literal["standard", "flipped", "two-by-two"]


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
            block = _dense(getattr(self, name))
            if not np.isfinite(block).all():
                raise StructuralError(f"block {name} has non-finite entries")
            object.__setattr__(self, name, block)
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

