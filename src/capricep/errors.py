"""Exception types shared across the package, and the whole-number
rule for integer fields read from JSON."""
import numbers


class CapricepError(Exception):
    """Base class for all package errors."""


class DesignError(CapricepError, ValueError):
    """Invalid pulse-design parameters."""


class TooFewSectionsError(DesignError):
    """A design's random draw puts fewer than two sections below Nyquist."""


class SignalError(CapricepError, ValueError):
    """Malformed or inconsistent signal data."""


class AnalysisError(CapricepError, ValueError):
    """Recording cannot be analyzed (too short, misaligned, ...)."""


def whole_number(value, key: str) -> int:
    """value, the field ``key``, as an int; a bool, a fraction, a
    non-finite or a non-numeric value raises SignalError rather than
    being coerced."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise SignalError(f"{key} must be a whole number, got {value!r}")
