"""Exception types, and the count, flag, real-number and choice rules, shared across the package."""

import numpy as np

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


def _check_count(name: str, value, least: int) -> int:
    """``value`` as an int; refuse a bool, a non-integer (a float or NaN included) or a value below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _check_flag(name: str, value) -> None:
    """Refuse a flag that is not a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def _check_real(name: str, value) -> float:
    """``value`` as a float; refuse a bool, a string, None or anything else that is no Python or numpy number."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_choice(name: str, value, choices: tuple[str, ...]) -> str:
    """``value``, one of the strings ``choices``; anything else, a list or None too, is refused, not compared."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"{name} must be one of ({', '.join(choices)}), got {value!r}")
    return value


class InfeasibleTargetsError(RdsimError):
    """Requested network targets violate a structural bound.

    The message names the violated bound (negative expected edge count or
    a dyad-class probability above 1), or the attribute and the realized
    group sizes of a draw the targets cannot be met at.
    """


class FitConvergenceError(RdsimError):
    """Moment-matching fit did not reach the requested residual tolerance."""

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class ConfigError(RdsimError):
    """Config file failed to parse or validate."""
