"""Exception types raised by the torsionshape package."""


class TorsionShapeError(Exception):
    """Base class for all package errors."""


class BadDegree(TorsionShapeError):
    """Homogeneity degree alpha must be > 0."""


class NonPositiveProfile(TorsionShapeError):
    """Angular profile must be strictly positive."""


class BadLevel(TorsionShapeError):
    """Sublevel set level must be > 0."""


class OutOfBox(TorsionShapeError):
    """Zero level set would violate the bounding-box margin."""


class EmptyDomain(TorsionShapeError):
    """Level-set field has no interior nodes."""


class NonFinite(TorsionShapeError):
    """Level-set field holds NaN or infinite values."""


class GridMismatch(TorsionShapeError):
    """Operation requires both domains on the same grid."""


class StarvedBoundary(TorsionShapeError):
    """The front spans too few cells: no boundary sample has interior probes
    for the gradient, or the projection onto phi = 1 misses it."""


class SolverDiverged(TorsionShapeError):
    """Linear solver failed to reach the target residual."""


class AlphaOne(TorsionShapeError):
    """alpha = 1 is degenerate: no solution or infinitely many."""


class EpsTooLarge(TorsionShapeError):
    """Perturbation amplitude too large for the requested stability mode."""


class BadMultiplier(TorsionShapeError):
    """Lagrange multiplier estimate must be negative."""


class DegenerateWeight(TorsionShapeError):
    """Weight vanishes on the boundary; multiplier fit impossible."""


class ConfigParse(TorsionShapeError):
    """Run configuration is malformed."""
