"""Exception types shared across the package."""


class AngelescoError(Exception):
    """Base class for domain and numerical failures raised by this package."""


class CoordinateOutsideSystem(AngelescoError):
    """A raw coordinate lies in no interval, or block counts cannot be matched."""


class GridMismatch(AngelescoError):
    """Two grid measures that must share a node set do not."""


class DegenerateComponent(AngelescoError):
    """A component with zero mass was asked for quantiles."""


class CoincidentNodesAcrossIntervals(AngelescoError):
    """Nodes of two distinct grids coincide; impossible for disjoint intervals,
    so it signals corrupted input."""


class InfeasibleMasses(AngelescoError):
    """Mass vector is not strictly positive with unit sum."""


class MaxIterationsExceeded(AngelescoError):
    """Solver hit its iteration cap; carries the best iterate found."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class DegenerateConditional(AngelescoError):
    """A one-dimensional Gibbs conditional has no representable mass."""


class DimensionTooLarge(AngelescoError):
    """Tensor quadrature requested for more points than the cost guard allows."""


class IllConditionedSystem(AngelescoError):
    """A MOP or log Z pairing matrix failed its checks; carries cond M."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class IllConditionedGram(AngelescoError):
    """An orthonormal polynomial's norm vanishes: too few support nodes."""

    def __init__(self, message, degree=None):
        super().__init__(message)
        self.degree = degree
