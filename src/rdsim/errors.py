"""Exception types shared across the package."""

__all__ = [
    "RdsimError",
    "UndefinedEstimandError",
    "InfeasibleTargetsError",
    "FitConvergenceError",
    "ConfigError",
]


class RdsimError(Exception):
    """Base class for all package-specific errors."""


class UndefinedEstimandError(RdsimError):
    """A network statistic is undefined on this input (degenerate denominator).

    Raised e.g. for the within/cross homophily ratio when there are no
    cross-group edges, or for differential activity when the reference
    group has no edge ends. Callers that tolerate undefined estimates
    catch this and record a marker instead.
    """


def or_none(statistic, *args):
    """``statistic(*args)``, or None when it is undefined on these arguments."""
    try:
        return statistic(*args)
    except UndefinedEstimandError:
        return None


class InfeasibleTargetsError(RdsimError):
    """Requested network targets violate a structural bound.

    The message names the violated bound (negative expected edge count or
    a dyad-class probability above 1).
    """


class FitConvergenceError(RdsimError):
    """Moment-matching fit did not reach the requested residual tolerance."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ConfigError(RdsimError):
    """Config file failed to parse or validate."""
