"""Block data model for double saddle-point systems.

A system couples three variable groups of sizes n >= m >= p through five
blocks: a symmetric positive definite leading block A, rectangular coupling
blocks B (m x n) and C (p x m), and symmetric positive semidefinite
regularization blocks D (m x m) and E (p x p).  The assembled matrix

    [ A   B^T  0  ]
    [ B  -D   C^T ]
    [ 0   C    E  ]

is symmetric indefinite.  This module holds only the data model: the
immutable :class:`DoubleSaddleSystem`, which rejects inconsistent shapes,
non-finite entries and asymmetric A, D or E when it is built,
:func:`assemble` (dense) and :func:`assemble_csr` (the same matrix in CSR
form).  Everything downstream (validation and spectral kernels, bound
formulas, preconditioners, solvers) consumes it.

A, D and E, and each symmetric matrix from outside a system
(:func:`_symmetric_input`), are made symmetric here and nowhere else: one
within ``SYM_TOL`` of symmetric is stored as its exact symmetric part, so
consumers use it as stored, and a routine that reads one triangle sees it
whole.

A block is either a dense array or a ``scipy.sparse`` matrix; a sparse block
stays sparse (as a canonical CSR array) and is checked finite on its stored
entries.  The dense oracle works on :meth:`DoubleSaddleSystem.dense`, the one
place a sparse system is densified; :func:`assemble_csr` never densifies.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import StructuralError

SYM_TOL = 1e-12

_TINY = float(np.finfo(float).tiny)

# below this size a map costs more, in system calls and page faults, than
# the heap space it saves
_MAPPED_BYTES = 1 << 20


def _dense(block) -> np.ndarray:
    """A block as a dense float array.  Sparse matrices, and implicit blocks
    that know their dense form, are expanded through ``toarray``."""
    if hasattr(block, "toarray"):
        block = block.toarray()
    arr = np.asarray(block, dtype=float)
    if arr.ndim != 2:
        raise StructuralError(f"blocks must be 2-d matrices, got shape {arr.shape}")
    return arr


def _mapped_zeros(dim: int) -> np.ndarray:
    """A zero dim x dim float array; from ``_MAPPED_BYTES`` up it lies in a
    private anonymous memory map of its own, which is unmapped when it is
    freed.

    The dense oracle forms its N x N matrices (:func:`assemble`, the split
    preconditioned matrix) one after another.  glibc's ``malloc`` raises
    its map threshold to the size of each map it frees (up to 32 MiB), so
    every such matrix after the first is carved from the heap, and whether
    it fits the hole the last one left depends on the small allocations
    around it, which move with the process's address layout: the peak
    resident set of one fixed analysis changed by 7 to 10 MB from one run
    to the next.  A map of its own holds no heap space and goes back to
    the system when freed.  It is advised into huge pages, as numpy advises
    its own large arrays: on a shared 2-vCPU VM a fresh 20 MB map took
    15 ms to fill in 4 KiB pages and 4-5 ms in huge pages.  It is written
    whole, so its resident size does not depend on whether huge pages were
    free.
    """
    if dim * dim * 8 < _MAPPED_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.zeros((dim, dim))
    buffer = mmap.mmap(-1, dim * dim * 8, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buffer.madvise(mmap.MADV_HUGEPAGE)
    out = np.ndarray((dim, dim), dtype=np.float64, buffer=buffer)
    out.fill(0.0)
    return out


def _sym(block):
    return (block + block.T) / 2.0


def _values(block) -> np.ndarray:
    """The stored entries: ``.data`` of a sparse block, else the array."""
    return block.data if sp.issparse(block) else block


def _checked(block, label: str):
    """A block in its stored form (canonical CSR for sparse input, else a
    dense 2-d array), checked finite; errors name it ``label``."""
    if sp.issparse(block):
        block = sp.csr_array(block, dtype=float, copy=True)
        block.sum_duplicates()
        block.eliminate_zeros()
    else:
        block = _dense(block)
    # min and max propagate NaN and +-inf, and form no mask the size of the block
    values = _values(block)
    if values.size and not (math.isfinite(values.min()) and math.isfinite(values.max())):
        raise StructuralError(f"{label} has non-finite entries")
    return block


def _symmetric(block, label: str):
    """A stored square block made exactly symmetric: itself when it already
    is, its symmetric part when max|X - X^T| <= SYM_TOL * max|X|, else
    :class:`StructuralError` naming ``label``; every symmetric input's rule."""
    gap = float(np.abs(_values(block - block.T)).max(initial=0.0))
    if gap == 0.0:
        return block
    scale = max(float(np.abs(_values(block)).max(initial=0.0)), _TINY)
    if gap > SYM_TOL * scale:
        raise StructuralError(f"{label} is not symmetric")
    return _checked(_sym(block), label)


def _symmetric_input(block, label: str, size: int | None = None):
    """A symmetric matrix from outside a system, checked where it enters:
    :func:`_checked`, square (size x size if given), :func:`_symmetric`."""
    block = _checked(block, label)
    size = block.shape[0] if size is None else size
    if block.shape != (size, size):
        raise StructuralError(f"{label} must be {size} x {size}, got {block.shape}")
    return _symmetric(block, label)


@dataclass(frozen=True)
class DoubleSaddleSystem:
    """Immutable container for the five blocks of a double saddle-point
    system; each block is a dense array or a CSR array, and A, D and E are
    exactly symmetric.  ``is_sparse`` (some block is sparse), ``d_zero``
    and ``e_zero`` (the block stores no nonzero) are found once, when the
    system is built; the CSR form of K (:func:`assemble_csr`) and the Schur
    pair (:func:`~saddlebounds.spectral.schur_complements`) once each, when
    first asked for, and each is kept as long as the system lives.  Both
    are formed from the blocks as they are then: a block changed in place
    afterwards is not seen by either."""

    A: np.ndarray | sp.csr_array
    B: np.ndarray | sp.csr_array
    C: np.ndarray | sp.csr_array
    D: np.ndarray | sp.csr_array
    E: np.ndarray | sp.csr_array
    is_sparse: bool = field(init=False, repr=False, compare=False)
    d_zero: bool = field(init=False, repr=False, compare=False)
    e_zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in "ABCDE":
            object.__setattr__(self, name, _checked(getattr(self, name), "block " + name))
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
        for name in "ADE":
            object.__setattr__(self, name, _symmetric(getattr(self, name), "block " + name))
        object.__setattr__(self, "is_sparse",
                           any(sp.issparse(getattr(self, name)) for name in "ABCDE"))
        object.__setattr__(self, "d_zero", not _values(self.D).any())
        object.__setattr__(self, "e_zero", not _values(self.E).any())

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.A.shape[0], self.B.shape[0], self.C.shape[0]

    @property
    def total(self) -> int:
        return sum(self.dims)

    def dense(self) -> "DoubleSaddleSystem":
        """The system with every block dense; the system itself when it
        already is.  The dense oracle's entry points densify through here."""
        if not self.is_sparse:
            return self
        return DoubleSaddleSystem(*(_dense(getattr(self, name)) for name in "ABCDE"))

    def unregularized(self) -> "DoubleSaddleSystem":
        """Copy of the system with both regularization blocks zeroed."""
        _, m, p = self.dims
        zeros = sp.csr_array if self.is_sparse else np.zeros
        return DoubleSaddleSystem(self.A, self.B, self.C, zeros((m, m)), zeros((p, p)))

    @cached_property
    def _csr(self) -> sp.csr_array:
        A, B, C, D, E = self.A, self.B, self.C, self.D, self.E
        csr = sp.block_array([[A, B.T, None], [B, -D, C.T], [None, C, E]], format="csr")
        for part in (csr.data, csr.indices, csr.indptr):
            part.flags.writeable = False
        return csr

    @cached_property
    def _schur(self):
        # imported here: spectral imports this module
        from .spectral import _schur_pair

        return _schur_pair(self)


@dataclass(frozen=True)
class AssembledMatrix:
    """A fully assembled symmetric matrix, dense."""

    data: np.ndarray


def assemble(system: DoubleSaddleSystem) -> AssembledMatrix:
    """Assemble the system into one dense symmetric matrix with (A, -D, E)
    on the diagonal.  Symmetry is exact: the diagonal blocks are, and the
    off-diagonal blocks are mirrored."""
    system = system.dense()
    n, m, _ = system.dims
    out = _mapped_zeros(system.total)
    i0, i1, i2 = slice(0, n), slice(n, n + m), slice(n + m, None)
    out[i0, i0], out[i1, i1], out[i2, i2] = system.A, -system.D, system.E
    out[i1, i0] = system.B
    out[i0, i1] = system.B.T
    out[i2, i1] = system.C
    out[i1, i2] = system.C.T
    return AssembledMatrix(data=out)


def assemble_csr(system: DoubleSaddleSystem) -> sp.csr_array:
    """The matrix of :func:`assemble` as a CSR array, built from the five
    blocks with no dense intermediate of the full size; sparse blocks are
    never densified.

    Equal entry for entry (``indptr``, ``indices`` and ``data``) to
    ``csr_array(assemble(system).data)``, so its products with a vector are
    bitwise equal too.  It is built once per system, on the first call, and
    kept as long as the system lives: every later call (the factors of K2
    and K a ``solve`` makes among them) returns the same matrix.  Its
    arrays are read-only, so no caller can change what the next one gets.
    """
    return system._csr
