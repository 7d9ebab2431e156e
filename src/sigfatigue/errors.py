"""Exception types shared across the package, and its one number rule,
``number_error``, which checks every numeric parameter, random seeds included."""

import math
import numbers


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def number_error(name, value, lo, hi, *, integer=False, open_lo=False, open_hi=False):
    """Why ``value`` is not a valid ``name``, or None when it is.

    A bool is never a number.  With ``integer`` the value must be a Python
    or numpy integer, else any ``numbers.Real``, between ``lo`` and ``hi``;
    ``open_lo``/``open_hi`` exclude a bound, and an infinite one is never reached.
    """
    open_lo, open_hi = open_lo or lo == -math.inf, open_hi or hi == math.inf
    number = numbers.Integral if integer else numbers.Real
    if isinstance(value, number) and not isinstance(value, bool):
        if (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi):
            return None
    interval = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    kind = "an integer" if integer else "a real number"
    return f"{name} must be {kind} in {interval}, got {value!r}"


def check_number(name, value, lo, hi, **bounds) -> None:
    """Raise :class:`InvalidInputError` with ``number_error``'s reason."""
    reason = number_error(name, value, lo, hi, **bounds)
    if reason:
        raise InvalidInputError(reason)


class SigFatigueError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SigFatigueError, ValueError):
    """An argument violates a documented precondition."""


class InsufficientDataError(SigFatigueError, ValueError):
    """A series or window is too short for the requested operation."""


class DegenerateInputError(SigFatigueError, ValueError):
    """Input carries no usable variation (e.g. zero burn-in variance)."""


class ConfigurationError(SigFatigueError, ValueError):
    """Missing or mutually inconsistent configuration values."""


class PatternSpecError(SigFatigueError, ValueError):
    """Pattern spec fields outside their documented ranges."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid pattern spec: " + "; ".join(self.violations))


class CsvFormatError(InvalidInputError):
    """Malformed input CSV; carries the offending line number."""

    def __init__(self, message, line_number):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
