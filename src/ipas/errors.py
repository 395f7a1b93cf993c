"""Exception types shared across the package."""


class IpasError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(IpasError):
    """Array shapes are inconsistent with the constraint system."""


class RankDeficient(IpasError):
    """The constraint matrix does not have full row rank (or is numerically close to losing it)."""


class MaxBacktracks(IpasError):
    """Backtracking line search exceeded its trial cap; usually a sign of non-finite values."""


class NonFiniteValue(IpasError):
    """A component evaluation produced NaN or infinity."""


class WeightError(IpasError):
    """Component weights are negative or do not sum to one."""


class ConfigInvalid(IpasError):
    """A solver or experiment configuration violates a hard constraint."""


class OutputExists(IpasError):
    """An output directory already holds the results of a sweep."""


class InvariantViolation(IpasError):
    """A runtime feasibility check failed; the computed iterates are not trustworthy."""


class ParseError(IpasError):
    """A data or config file could not be parsed."""


class LabelError(IpasError):
    """A classification dataset does not contain a usable two-class label set."""


class EmptyGroup(IpasError):
    """A summary was requested over a group with no completed runs."""
