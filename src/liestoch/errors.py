"""Exception hierarchy shared by all liestoch modules."""


class LieStochError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(LieStochError):
    """Operands have incompatible or unexpected shapes."""


class SingularMatrixError(LieStochError):
    """A matrix that must be inverted is singular or too ill-conditioned."""


class LogRangeError(LieStochError):
    """Matrix logarithm did not converge (input too far from the identity).

    For one-step group increments this almost always means the time step is
    too large; rerun with a smaller dt.
    """


class ExpOverflowError(LieStochError):
    """A matrix exponential overflowed double precision (the step or the
    drift is too large for the group's coordinates)."""


class GroupMismatchError(LieStochError):
    """Operands belong to different groups."""


class GridMismatchError(LieStochError):
    """Paths live on different time grids."""


class ClosureError(LieStochError):
    """A bracket or adjoint image failed to project back onto the algebra
    basis within tolerance (corrupted basis or non-member conjugator)."""


class NotInAlgebraError(LieStochError):
    """A matrix is not in the span of the algebra basis within tolerance."""


class MembershipError(LieStochError):
    """A matrix fails the group membership check."""


class MetricError(LieStochError):
    """A Gram/covariance matrix is not symmetric positive definite."""


class UnsupportedGroupError(LieStochError):
    """The requested group is not in the catalog for this operation."""


class HypothesisError(LieStochError):
    """A named identity hypothesis or statistical precondition is violated."""


class PowerError(LieStochError):
    """Ensemble too small for the requested statistical test."""


class IntegratorDriftError(LieStochError):
    """A solver produced points whose membership defect breaches the gate."""
