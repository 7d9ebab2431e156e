"""Exception types shared across the package, and its one integer rule."""

import numbers


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
