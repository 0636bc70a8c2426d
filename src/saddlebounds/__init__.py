"""Eigenvalue bounds and Schur-complement preconditioning for double
saddle-point systems."""

from .bounds import (
    BoundIntervals,
    ClassifiedRoots,
    ContainmentReport,
    CubicPoly,
    EquivalenceConstants,
    Interval,
    bounds_k0,
    bounds_precond_exact,
    bounds_precond_inexact,
    bounds_unpreconditioned,
    cubic_from_params,
    exact_preconditioner_roots,
    solve_classified,
    verify_containment,
)
from .io import load_manifest, save_manifest
from .krylov import SolveResult, minres, residual_report
from .precond import (
    EquivalenceMeasurement,
    PoissonControlContext,
    PreconditionerOperator,
    build_approx,
    build_exact,
    equivalence_constants,
    split_preconditioned_matrix,
)
from .problems import (
    FemDiscretization,
    distributed_context,
    nullity_system,
    poisson_boundary,
    poisson_distributed,
    q1_discretize,
    random_system,
    tightness_lower_positive,
    tightness_upper_negative,
)
from .spectral import (
    BlockExtremes,
    Inertia,
    SchurPair,
    ValidationReport,
    extremal_eigs,
    extremal_svals,
    full_spectrum,
    inertia,
    schur_complements,
    validate,
)
from .system import AssembledMatrix, DoubleSaddleSystem, assemble

__version__ = "0.1.0"
