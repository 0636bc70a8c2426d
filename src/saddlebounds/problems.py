"""Test-problem generators.

Three families:

* seeded random systems whose block extremes are prescribed exactly,
* tiny fixed matrices that attain individual bound endpoints,
* bilinear (Q1) finite-element discretizations of Poisson control problems
  on the unit square, in distributed and boundary-control flavors, whose
  blocks are sparse (CSR) from assembly on.

All generators are pure functions of their parameters (and seed), so
repeated calls reproduce systems bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError
from .precond import PoissonControlContext
from .system import DoubleSaddleSystem


def haar_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix from a seeded QR draw."""
    gauss = rng.standard_normal((k, k))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def _spread(lo: float, hi: float, k: int, rng: np.random.Generator) -> np.ndarray:
    """k values in [lo, hi] hitting both endpoints, log-uniform in between."""
    if lo > hi:
        raise ParameterError(f"impossible extremes: {lo} > {hi}")
    if k == 1:
        if lo != hi:
            raise ParameterError(
                "a one-dimensional block cannot attain two distinct extremes"
            )
        return np.array([hi])
    if hi == 0.0:
        return np.zeros(k)
    values = [lo, hi]
    if k > 2:
        lo_eff = max(lo, hi * 1e-8)
        values.extend(np.exp(rng.uniform(math.log(lo_eff), math.log(hi), k - 2)))
    return np.sort(np.array(values))


def random_system(
    n: int,
    m: int,
    p: int,
    seed: int,
    extremes,
) -> DoubleSaddleSystem:
    """Seeded random system whose measured block extremes match ``extremes``.

    Symmetric blocks are built as Q diag(v) Q^T with Haar orthogonal Q and
    values spread log-uniformly between the requested extremes (endpoints
    included); coupling blocks get the same treatment through their singular
    value decompositions.
    """
    if not (n >= m >= p >= 1):
        raise ParameterError(f"dims must satisfy n >= m >= p >= 1, got {(n, m, p)}")
    rng = _seeded_rng(seed)

    def sym_block(dim, lo, hi):
        if hi == 0.0:
            return np.zeros((dim, dim))
        q = haar_orthogonal(rng, dim)
        return (q * _spread(lo, hi, dim, rng)) @ q.T

    def coupling_block(rows, cols, lo, hi):
        u = haar_orthogonal(rng, rows)
        v = haar_orthogonal(rng, cols)
        return (u * _spread(lo, hi, rows, rng)) @ v[:, :rows].T

    return DoubleSaddleSystem(
        A=sym_block(n, extremes.mu_min_a, extremes.mu_max_a),
        B=coupling_block(m, n, extremes.sigma_min_b, extremes.sigma_max_b),
        C=coupling_block(p, m, extremes.sigma_min_c, extremes.sigma_max_c),
        D=sym_block(m, extremes.mu_min_d, extremes.mu_max_d),
        E=sym_block(p, extremes.mu_min_e, extremes.mu_max_e),
    )


def nullity_system(
    n: int, m: int, p: int, nullity_k: int, seed: int
) -> DoubleSaddleSystem:
    """Random system with a zero middle regularization block and a coupling
    block C whose transpose has exactly the prescribed nullity.

    The tail block is made SPD so the second Schur complement stays
    definite even when C is rank-deficient.
    """
    if not 0 <= nullity_k <= p:
        raise ParameterError(f"nullity {nullity_k} out of range [0, {p}]")
    rng = _seeded_rng(seed)

    qa = haar_orthogonal(rng, n)
    a = (qa * rng.uniform(0.5, 3.0, n)) @ qa.T

    ub = haar_orthogonal(rng, m)
    vb = haar_orthogonal(rng, n)
    b = (ub * rng.uniform(0.4, 2.0, m)) @ vb[:, :m].T

    uc = haar_orthogonal(rng, p)
    vc = haar_orthogonal(rng, m)
    sing = rng.uniform(0.4, 2.0, p)
    sing[:nullity_k] = 0.0
    c = (uc * sing) @ vc[:, :p].T

    qe = haar_orthogonal(rng, p)
    e = (qe * rng.uniform(0.5, 2.0, p)) @ qe.T

    return DoubleSaddleSystem(A=a, B=b, C=c, D=np.zeros((m, m)), E=e)


def tightness_upper_negative(
    mu_max_a: float, sigma_min_b: float, mu_d: float, sigma_c: float, mu_e: float
) -> DoubleSaddleSystem:
    """5x5 fixture (n = m = 2, p = 1) attaining the upper negative endpoint.

    A permutation splits it into a 2x2 block whose negative eigenvalue is
    exactly (mu_max_a - sqrt(mu_max_a^2 + 4 sigma_min_b^2)) / 2 and an
    uncoupled 3x3 remainder.
    """
    _require_positive(
        mu_max_a=mu_max_a, sigma_min_b=sigma_min_b, mu_d=mu_d,
        sigma_c=sigma_c, mu_e=mu_e,
    )
    return DoubleSaddleSystem(
        A=mu_max_a * np.eye(2),
        B=sigma_min_b * np.eye(2),
        C=np.array([[0.0, sigma_c]]),
        D=np.diag([0.0, mu_d]),
        E=np.array([[mu_e]]),
    )


def tightness_lower_positive(
    mu_min_a: float, sigma_max_b: float, sigma_min_c: float,
    mu_max_d: float, mu_e: float,
) -> DoubleSaddleSystem:
    """6x6 fixture (n = m = p = 2) attaining the lower positive endpoint.

    After permutation the leading 3x3 block's characteristic polynomial is
    exactly the narrow cubic of the unpreconditioned bound, so its smallest
    positive root appears in the spectrum.
    """
    _require_positive(
        mu_min_a=mu_min_a, sigma_max_b=sigma_max_b, sigma_min_c=sigma_min_c,
        mu_max_d=mu_max_d, mu_e=mu_e,
    )
    return DoubleSaddleSystem(
        A=mu_min_a * np.eye(2),
        B=sigma_max_b * np.eye(2),
        C=sigma_min_c * np.eye(2),
        D=mu_max_d * np.eye(2),
        E=np.diag([0.0, mu_e]),
    )


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _require_positive(**params: float) -> None:
    for name, value in params.items():
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(
                f"parameter {name} must be finite and positive, got {value}"
            )


# --- Q1 finite elements on the unit square ---------------------------------

# reference element matrices for a square cell of side h, nodes ordered
# counterclockwise from the lower-left corner
_MASS_REF = np.array(
    [[4.0, 2.0, 1.0, 2.0],
     [2.0, 4.0, 2.0, 1.0],
     [1.0, 2.0, 4.0, 2.0],
     [2.0, 1.0, 2.0, 4.0]]
) / 36.0
_STIFF_REF = np.array(
    [[4.0, -1.0, -2.0, -1.0],
     [-1.0, 4.0, -1.0, -2.0],
     [-2.0, -1.0, 4.0, -1.0],
     [-1.0, -2.0, -1.0, 4.0]]
) / 6.0


@dataclass(frozen=True)
class FemDiscretization:
    """Uniform Q1 discretization of the unit square; every matrix is a CSR
    array.

    ``mass`` and ``stiffness`` are the full matrices before any boundary
    treatment.  ``interior`` indexes the nodes kept when every edge carries
    Dirichlet data (distributed control); ``free`` indexes the nodes kept
    when only the bottom edge does (boundary control, which acts on the
    remaining three edges).  ``boundary_mass`` is the 1-d mass matrix along
    those control edges and ``coupling`` the rectangular mass coupling
    between domain and control unknowns.
    """

    h: float
    cells_per_side: int
    mass: sp.csr_array
    stiffness: sp.csr_array
    interior: np.ndarray
    free: np.ndarray
    boundary_mass: sp.csr_array
    coupling: sp.csr_array

    @property
    def mass_interior(self) -> sp.csr_array:
        return self.mass[self.interior][:, self.interior]

    @property
    def stiffness_interior(self) -> sp.csr_array:
        return self.stiffness[self.interior][:, self.interior]

    @property
    def mass_free(self) -> sp.csr_array:
        return self.mass[self.free][:, self.free]

    @property
    def stiffness_free(self) -> sp.csr_array:
        return self.stiffness[self.free][:, self.free]


def q1_discretize(h: float) -> FemDiscretization:
    """Assemble Q1 mass and stiffness matrices for mesh width h = 1/N.

    Every matrix comes from one vectorized COO assembly (duplicate entries
    are summed) and is returned as a CSR array.
    """
    _require_positive(h=h)
    nx = int(round(1.0 / h))
    if nx < 2 or abs(nx * h - 1.0) > 1e-12:
        raise ParameterError(f"mesh width must be 1/N with integer N >= 2, got {h}")
    nn = nx + 1
    n_all = nn * nn

    # node (i, j) is j * nn + i; cell corners counterclockwise from lower-left
    ci, cj = np.meshgrid(np.arange(nx), np.arange(nx), indexing="xy")
    lower_left = (cj * nn + ci).ravel()
    cells = lower_left[:, None] + np.array([0, 1, nn + 1, nn])
    rows = np.repeat(cells, 4, axis=1).ravel()
    cols = np.tile(cells, (1, 4)).ravel()

    def element_sum(reference):
        data = np.broadcast_to(reference.ravel(), (cells.shape[0], 16)).ravel()
        return _coo_csr(data, rows, cols, (n_all, n_all))

    mass = element_sum(h * h * _MASS_REF)
    stiffness = element_sum(_STIFF_REF)

    ii, jj = np.meshgrid(np.arange(nn), np.arange(nn), indexing="ij")
    flat_i, flat_j = ii.ravel(), jj.ravel()
    grid_index = flat_j * nn + flat_i
    on_boundary = (flat_i == 0) | (flat_i == nx) | (flat_j == 0) | (flat_j == nx)
    interior = np.sort(grid_index[~on_boundary])
    free = np.sort(grid_index[flat_j != 0])

    # control path: up the left edge, across the top, down the right edge;
    # its two endpoints are the Dirichlet corners of the bottom edge
    path = np.concatenate([
        np.arange(nn) * nn,
        nx * nn + np.arange(1, nn),
        np.arange(nx - 1, -1, -1) * nn + nx,
    ])
    n_path = path.size
    seg = h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    ends = np.arange(n_path - 1)[:, None] + np.array([0, 1])
    path_mass = _coo_csr(
        np.broadcast_to(seg.ravel(), (n_path - 1, 4)).ravel(),
        np.repeat(ends, 2, axis=1).ravel(), np.tile(ends, (1, 2)).ravel(),
        (n_path, n_path),
    )
    boundary_mass = path_mass[1:-1, 1:-1]
    control = path[1:-1]

    # row s of the boundary mass goes to the free-node row of control node s
    placement = sp.csr_array(
        (np.ones(control.size), (np.searchsorted(free, control), np.arange(control.size))),
        shape=(free.size, control.size),
    )
    coupling = placement @ boundary_mass
    coupling.sort_indices()

    return FemDiscretization(
        h=h,
        cells_per_side=nx,
        mass=mass,
        stiffness=stiffness,
        interior=interior,
        free=free,
        boundary_mass=boundary_mass,
        coupling=coupling,
    )


def _coo_csr(data, rows, cols, shape) -> sp.csr_array:
    """CSR array of COO triplets, duplicates summed, no stored zeros."""
    out = sp.coo_array((data, (rows, cols)), shape=shape).tocsr()
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def poisson_distributed(
    h: float, beta: float
) -> tuple[DoubleSaddleSystem, FemDiscretization]:
    """Distributed Poisson control system on the unit square.

    The returned system's standard assembly is the reordered optimality
    matrix whose leading block is beta * M: roles (beta M, -M, K, 0, M).
    It is permutation-similar to the original ordering (M, K, -M, 0, beta M),
    whose three variable groups come in reverse order.
    """
    _require_positive(beta=beta)
    fem = q1_discretize(h)
    mi = fem.mass_interior
    size = mi.shape[0]
    system = DoubleSaddleSystem(A=beta * mi, B=-mi, C=fem.stiffness_interior,
                                D=sp.csr_array((size, size)), E=mi)
    return system, fem


def distributed_context(fem: FemDiscretization, beta: float) -> PoissonControlContext:
    """Structure metadata needed by the square-completion preconditioner."""
    return PoissonControlContext(
        mass=fem.mass_interior, stiffness=fem.stiffness_interior, beta=beta
    )


def poisson_boundary(h: float, beta: float) -> DoubleSaddleSystem:
    """Boundary Poisson control system on the unit square.

    Dirichlet data is imposed on the bottom edge, Neumann control acts on
    the remaining three; the stiffness block is then SPD and the control
    space is strictly smaller than the state space.  Roles:
    (M, K, -coupling^T, 0, beta * boundary mass).
    """
    _require_positive(beta=beta)
    fem = q1_discretize(h)
    mf = fem.mass_free
    kf = fem.stiffness_free
    size = mf.shape[0]
    return DoubleSaddleSystem(
        A=mf,
        B=kf,
        C=-fem.coupling.T,
        D=sp.csr_array((size, size)),
        E=beta * fem.boundary_mass,
    )
