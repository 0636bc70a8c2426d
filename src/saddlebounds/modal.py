"""The modal oracle: exact spectra of systems on the uniform Q1 grid.

On the uniform grid of :func:`~saddlebounds.problems.q1_discretize`, with
q interior nodes per side and h = 1/(q + 1), the interior mass and
stiffness matrices of order n = q^2 are

    M = M1 (x) M1,   K = K1 (x) M1 + M1 (x) K1,
    M1 = (h/6) tridiag(1, 4, 1),   K1 = (1/h) tridiag(-1, 2, -1),

and one orthogonal sine transform diagonalizes both: mode (i, j) has the
values m_ij = mu_i mu_j and k_ij = kappa_i mu_j + mu_i kappa_j, with
mu_i = (h/6)(4 + 2 cos i pi h) and kappa_i = (2 - 2 cos i pi h)/h.  A
system whose five blocks are each zero or s M + t K, for some (s, t) of
each block, is then orthogonally similar to a direct sum of n tridiagonal
3 x 3 matrices [[a, b, 0], [b, -d, c], [0, c, e]], one per mode, whose
entries are the blocks' mode values s m + t k.  So is its split matrix
under a block-diagonal preconditioner whose blocks are functions of M and
K, scaled by the preconditioner's mode values (p0, p1, p2).  Each spectrum
is one call of ``?sterf`` on a 3n tridiagonal matrix whose coupling
between modes is 0, so LAPACK splits it into the n 3 x 3 blocks
(:func:`~saddlebounds.spectral._tridiagonal_eigvalsh`).

:func:`recognize` trusts no label: it checks the system's stored entries
against regenerated M and K, and it never raises.  Anything it does not
recognize, and any strategy :meth:`ModalOracle.split_spectrum` does not
cover, is left to the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import spectral
from .precond import PoissonControlContext, _scale_factor
from .system import DoubleSaddleSystem

# a block equals s M + t K when every stored entry is within this many
# units in the last place of its largest entry; the blocks and contexts of
# poisson_distributed miss by at most one at h = 1/3 ... 1/64
_ULPS = 8
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ModalOracle:
    """The mode values of a recognized system: ``blocks`` holds those of
    A, B, C, D and E, ``mass`` and ``stiffness`` those of M and K, one
    entry per mode, and ``context_beta`` is the beta of a context whose
    mass and stiffness are M and K, else None."""

    blocks: tuple[np.ndarray, ...]
    mass: np.ndarray
    stiffness: np.ndarray
    context_beta: float | None

    def spectrum(self) -> np.ndarray:
        """The spectrum of K, ascending."""
        a, b, c, d, e = self.blocks
        return _direct_sum_eigvalsh((a, -d, e), (b, c))

    def split_spectrum(self, strategies) -> np.ndarray | None:
        """The spectrum of P^-1 K, ascending, for the preconditioner P that
        ``strategies`` build on this system (and context), or None when a
        strategy is not covered or a mode value of P is not positive and
        finite.  Covered: ``exact`` and ``scaled:<t>`` at any position,
        ``pearson-wathen`` (with a recognized context) and ``drop-term``
        at the tail."""
        scales = self._preconditioner(strategies)
        if scales is None:
            return None
        a, b, c, d, e = self.blocks
        p0, p1, p2 = scales
        return _direct_sum_eigvalsh((a / p0, -d / p1, e / p2),
                                    (b / np.sqrt(p0 * p1), c / np.sqrt(p1 * p2)))

    def _preconditioner(self, strategies):
        """The mode values (p0, p1, p2) of the preconditioner's blocks."""
        a, b, c, d, e = self.blocks
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s1 = d + b * b / a
            exact = (a, s1, e + c * c / s1)
            scales = []
            for position, (name, block) in enumerate(zip(strategies, exact)):
                if name == "exact":
                    scales.append(block)
                elif name.startswith("scaled:"):
                    scales.append(_scale_factor(name) * block)
                elif position == 2 and name == "drop-term":
                    scales.append(e)
                elif (position == 2 and name == "pearson-wathen"
                      and self.context_beta is not None):
                    shifted = self.mass + math.sqrt(self.context_beta) * self.stiffness
                    scales.append(shifted * shifted / self.mass)
                else:
                    return None
        if all(((0 < p) & (p < np.inf)).all() for p in scales):
            return scales
        return None


def recognize(
    system: DoubleSaddleSystem, context: PoissonControlContext | None = None
) -> ModalOracle | None:
    """The modal oracle of ``system``, or None when it is not on the grid.

    The cheap tests come first: n = m = p = q^2 with q >= 2, and each block
    storing no nonzero or exactly the (3q - 2)^2 entries of the 9-point
    pattern.  Then M and K are regenerated for h = 1/(q + 1), and each
    nonzero block must have their pattern and equal s M + t K, with (s, t)
    solved from its first two stored entries (the diagonal and the right
    neighbour of the first node) and every entry checked to within
    ``_ULPS`` ulps of the largest.  A context counts when its mass and
    stiffness pass the same check with (s, t) = (1, 0) and (0, 1); one that
    does not, of any shape, leaves the system recognized without it.
    """
    n, m, p = system.dims
    q = math.isqrt(n)
    if not (n == m == p == q * q and q >= 2):
        return None
    pattern = (3 * q - 2) ** 2
    blocks = [getattr(system, name) for name in "ABCDE"]
    counts = [_stored(block) for block in blocks]
    if any(count not in (0, pattern) for count in counts):
        return None
    grid_mass, grid_stiffness = _grid_matrices(q)
    roles = []
    for block, count in zip(blocks, counts):
        role = (0.0, 0.0) if not count else _role(block, grid_mass, grid_stiffness)
        if role is None:
            return None
        roles.append(role)
    beta = None
    if context is not None and _equals(context.mass, grid_mass) and _equals(
            context.stiffness, grid_stiffness):
        beta = context.beta
    mass, stiffness = _mode_values(q)
    return ModalOracle(
        blocks=tuple(s * mass + t * stiffness for s, t in roles),
        mass=mass, stiffness=stiffness, context_beta=beta)


def _stored(block) -> int:
    """The number of nonzeros a block stores."""
    return block.nnz if sp.issparse(block) else int(np.count_nonzero(block))


def _grid_matrices(q: int) -> tuple[sp.csr_array, sp.csr_array]:
    """M and K for q interior nodes per side, canonical CSR."""
    h = 1.0 / (q + 1)
    ones = np.ones(q - 1)
    m1 = sp.diags_array([ones, np.full(q, 4.0), ones], offsets=[-1, 0, 1]) * (h / 6)
    k1 = sp.diags_array([-ones, np.full(q, 2.0), -ones], offsets=[-1, 0, 1]) / h
    mass = sp.csr_array(sp.kron(m1, m1))
    stiffness = sp.csr_array(sp.kron(k1, m1) + sp.kron(m1, k1))
    for matrix in (mass, stiffness):
        matrix.sum_duplicates()
    return mass, stiffness


def _mode_values(q: int) -> tuple[np.ndarray, np.ndarray]:
    """m_ij and k_ij, flattened; 2 - 2 cos x is taken as 4 sin^2(x/2),
    which keeps its digits for small x."""
    h = 1.0 / (q + 1)
    half = np.sin(np.arange(1, q + 1) * (math.pi * h / 2)) ** 2
    mu = h * (1.0 - 2.0 / 3.0 * half)
    kappa = 4.0 * half / h
    return np.outer(mu, mu).ravel(), (np.outer(kappa, mu) + np.outer(mu, kappa)).ravel()


def _pattern_of(block, like: sp.csr_array):
    """``block`` as a canonical CSR array when it has the shape and the
    stored pattern of ``like``, else None."""
    if block.shape != like.shape or _stored(block) != like.nnz:
        return None
    block = block if sp.issparse(block) else sp.csr_array(block)
    if np.array_equal(block.indptr, like.indptr) and np.array_equal(
            block.indices, like.indices):
        return block
    return None


def _close(values: np.ndarray, target: np.ndarray) -> bool:
    return bool(np.abs(values - target).max() <= _ULPS * _EPS * np.abs(values).max())


def _role(block, mass: sp.csr_array, stiffness: sp.csr_array):
    """(s, t) with block = s M + t K, or None."""
    block = _pattern_of(block, mass)
    if block is None:
        return None
    (m0, m1), (k0, k1), (x0, x1) = mass.data[:2], stiffness.data[:2], block.data[:2]
    det = m0 * k1 - k0 * m1
    s, t = float((x0 * k1 - k0 * x1) / det), float((m0 * x1 - x0 * m1) / det)
    return (s, t) if _close(block.data, s * mass.data + t * stiffness.data) else None


def _equals(matrix, target: sp.csr_array) -> bool:
    matrix = _pattern_of(matrix, target)
    return matrix is not None and _close(matrix.data, target.data)


def _direct_sum_eigvalsh(diagonal, coupling) -> np.ndarray:
    """Eigenvalues, ascending, of the direct sum of the 3 x 3 tridiagonal
    matrices with diagonal ``diagonal`` and couplings ``coupling``, one per
    mode: a 3n tridiagonal matrix whose coupling between modes is 0."""
    off = np.zeros_like(diagonal[0])
    return spectral._tridiagonal_eigvalsh(
        np.stack(diagonal, axis=1).ravel(), np.stack((*coupling, off), axis=1).ravel()[:-1])
