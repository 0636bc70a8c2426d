"""Exception types shared across the package."""


class SaddleBoundsError(Exception):
    """Base class for all package errors."""


class StructuralError(SaddleBoundsError):
    """Input does not describe a double saddle-point system: block shapes
    that do not fit, non-finite entries, or an asymmetric A, D or E."""


class DefinitenessError(SaddleBoundsError):
    """A matrix required to be (semi)definite is not."""


class ParameterError(SaddleBoundsError):
    """Scalar parameters violate a documented precondition."""


class ClassificationError(SaddleBoundsError):
    """The computed roots of a saddle cubic fail their residual certificate."""


class StrategyMismatchError(SaddleBoundsError):
    """An approximation strategy needs structure this system does not have."""


class ConvergenceError(SaddleBoundsError):
    """A dense eigensolve or singular value decomposition failed to
    converge: LAPACK returned a nonzero ``info``."""


class OracleSizeError(SaddleBoundsError):
    """A dense desk-scale computation was requested above its size cutoff."""
