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


class DegenerateBoundary(TorsionShapeError):
    """No zero crossing found in the level-set field."""


class GridMismatch(TorsionShapeError):
    """Operation requires both domains on the same grid."""


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
