"""Exception types shared across the package."""


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
