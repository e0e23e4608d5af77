"""Exception hierarchy for branchspace.

Every domain error derives from BranchSpaceError, a ValueError: each one
is an invalid value, so `except ValueError` catches every bad input.
"""


class BranchSpaceError(ValueError):
    """Base class for all branchspace errors."""


class CompatibilityViolation(BranchSpaceError):
    """A pair of points fails the compatibility relation.

    Carries the offending index pair so callers can report which points
    collided.
    """

    def __init__(self, i: int, j: int, message: str | None = None):
        self.pair = (i, j)
        super().__init__(message or f"points {i} and {j} violate the compatibility relation")


class StratumTooLarge(BranchSpaceError):
    """Symmetrization requested on a stratum beyond the factorial guard."""


class EmptyConfiguration(BranchSpaceError):
    """Operation requires a nonempty configuration."""


class IndexMismatch(BranchSpaceError):
    """A spatial index does not cover the configuration it was paired with."""


class NonMonotoneTime(BranchSpaceError):
    """Trajectory sample times are not strictly increasing."""


class SingletonConfiguration(BranchSpaceError):
    """Separation/chart construction requires at least two points."""


class DuplicatePoints(BranchSpaceError):
    """Points coincide within the equality tolerance."""


class OutOfUnitBall(BranchSpaceError):
    """A chart coordinate has norm >= 1."""


class LengthMismatch(BranchSpaceError):
    """Sequence lengths disagree with the chart/base cardinality."""


class NotInDomain(BranchSpaceError):
    """A configuration does not lie in the chart's domain."""


class NotInOverlap(BranchSpaceError):
    """A transition was requested outside the overlap of two charts."""


class EndpointMismatch(BranchSpaceError):
    """Path composition with omega(g1) != alpha(g2); carries the gap."""

    def __init__(self, gap: float, message: str | None = None):
        self.gap = float(gap)
        super().__init__(message or f"endpoint gap {self.gap:.6g} exceeds tolerance")


class InsufficientResolution(BranchSpaceError):
    """Segment sampling too coarse for the requested derivative order."""


class ParameterOutOfRange(BranchSpaceError):
    """Logistic parameter outside (0, 4]."""


class NonConstantCardinality(BranchSpaceError):
    """Section decomposition requires constant fiber cardinality."""


class GridMismatch(BranchSpaceError):
    """Grid functions live on different lattices."""


class SupportTouchesBoundary(BranchSpaceError):
    """A grid function is nonzero on the boundary layer, so its compact
    support certificate fails."""
