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

Everything that feeds the bounds is a min or max over the modes too.  A
block's extremes are those of its mode values, and those of the singular
values of B and C of |b| and |c|.  The Schur complements have the mode
values s1 = d + b^2/a and s2 = e + c^2/s1, the Grams B A^-1 B^T and
C S1^-1 C^T the values b^2/a and c^2/s1, and the stacks of the kernel
conditions the singular values sqrt(a^2 + b^2), sqrt(b^2 + d^2 + c^2) and
sqrt(c^2 + e^2).  So :meth:`ModalOracle.validation` measures what
:func:`~saddlebounds.spectral.validate` measures, and the same rules
judge it (:func:`~saddlebounds.spectral._judged`).  A covered
preconditioner's equivalence constants are the min and max over the modes
of the exact block's value over the approximation's, eta_D and eta_E the
max of d / (b^2/a) and of e / (c^2/s1), and a context's reference ratio
beta / min(k/m)^2.

:func:`recognize` trusts no label: it checks the system's stored entries
against regenerated M and K, and it never raises.  Anything it does not
recognize, and any strategy :meth:`ModalOracle.covers` does not cover, is
left to the dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import spectral
from .bounds import Interval
from .precond import PoissonControlContext, _reference_ratio, _scale_factor
from .spectral import ValidationReport
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

    def covers(self, strategies) -> bool:
        """Whether the preconditioner P that ``strategies`` build on this
        system (and context) is covered: ``exact`` and ``scaled:<t>`` at
        any position, ``pearson-wathen`` (with a recognized context) and
        ``drop-term`` at the tail, and every mode value of P positive and
        finite."""
        return self._preconditioner(strategies) is not None

    def split_spectrum(self, strategies) -> np.ndarray | None:
        """The spectrum of P^-1 K, ascending, for the preconditioner P that
        ``strategies`` build, or None when they are not covered
        (:meth:`covers`)."""
        scales = self._preconditioner(strategies)
        if scales is None:
            return None
        a, b, c, d, e = self.blocks
        p0, p1, p2 = scales
        return _direct_sum_eigvalsh((a / p0, -d / p1, e / p2),
                                    (b / np.sqrt(p0 * p1), c / np.sqrt(p1 * p2)))

    def validation(self) -> ValidationReport:
        """What :func:`~saddlebounds.spectral.validate` reports, measured on
        the mode values and judged by the same rules."""
        a, b, c, d, e = self.blocks

        def schur_ranges():
            _, s1, _, s2 = self._schur
            yield _range(s1)
            yield _range(s2)

        stacks = (lambda: np.hypot(a, b), lambda: np.sqrt(b * b + d * d + c * c),
                  lambda: np.hypot(c, e))
        return spectral._judged((a.size,) * 3, _range(a), np.abs(b), np.abs(c),
                                _range(d), _range(e), stacks, schur_ranges())

    def equivalence(self, strategies) -> list[Interval] | None:
        """The equivalence interval of each block of the preconditioner
        that ``strategies`` build, the min and max over the modes of the
        exact block's value over the approximation's, or None when they are
        not covered (:meth:`covers`)."""
        scales = self._preconditioner(strategies)
        if scales is None:
            return None
        ratios = [exact / scale for exact, scale in zip(self._exact, scales)]
        return [Interval(float(r.min()), float(r.max())) for r in ratios]

    def etas(self, b_full_row_rank: bool, c_full_row_rank: bool) -> tuple[float, float]:
        """eta_D and eta_E, max d / (b^2/a) and max e / (c^2/s1) over the
        modes, by the rule of
        :func:`~saddlebounds.spectral.regularization_ratio`, which takes
        the row-rank verdicts of the validation."""
        d, e = self.blocks[3:]
        gram_b, _, gram_c, _ = self._schur
        with np.errstate(divide="ignore", invalid="ignore"):
            return (spectral._ratio(not d.any(), b_full_row_rank, lambda: (d / gram_b).max()),
                    spectral._ratio(not e.any(), c_full_row_rank, lambda: (e / gram_c).max()))

    def reference_ratio(self) -> float | None:
        """The context's
        :meth:`~saddlebounds.precond.PoissonControlContext.reference_regularization_ratio`
        from the generalized eigenvalues k/m of (K, M), or None without a
        recognized context."""
        if self.context_beta is None:
            return None
        return _reference_ratio(self.context_beta, self.stiffness / self.mass)

    @cached_property
    def _schur(self) -> tuple[np.ndarray, ...]:
        """The mode values of the Gram B A^-1 B^T, of S1 = D + B A^-1 B^T,
        of the Gram C S1^-1 C^T and of S2 = E + C S1^-1 C^T."""
        a, b, c, d, e = self.blocks
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gram_b = b * b / a
            s1 = d + gram_b
            gram_c = c * c / s1
            return gram_b, s1, gram_c, e + gram_c

    @property
    def _exact(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mode values of the exact preconditioner's blocks A, S1, S2."""
        _, s1, _, s2 = self._schur
        return self.blocks[0], s1, s2

    def _preconditioner(self, strategies):
        """The mode values (p0, p1, p2) of the preconditioner's blocks."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            scales = []
            for position, (name, block) in enumerate(zip(strategies, self._exact)):
                if name == "exact":
                    scales.append(block)
                elif name.startswith("scaled:"):
                    scales.append(_scale_factor(name) * block)
                elif position == 2 and name == "drop-term":
                    scales.append(self.blocks[4])
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


def _range(values: np.ndarray) -> tuple[float, float]:
    """The smallest and largest mode value: a block's eigen-range."""
    return float(values.min()), float(values.max())


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
