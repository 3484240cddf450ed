"""Exception types shared across the simulator."""

import math
import numbers


class ImtEvalError(Exception):
    """Base class for all simulator errors."""


class UnknownPreset(ImtEvalError):
    """Requested (environment, variant) pair has no defined preset."""


class ConfigSyntax(ImtEvalError):
    """Configuration file could not be parsed."""


class ConfigInvalid(ImtEvalError):
    """A configuration value violates its documented range.

    Carries the offending field name in ``.field``.
    """

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(f"invalid config field '{field}'" + (f": {message}" if message else ""))


class UnknownRequirement(ImtEvalError):
    """Requirement lookup for a row that does not exist."""


class DomainError(ImtEvalError):
    """Argument outside the mathematical domain of an operation; ``.field``
    names the rejected argument, if any. ``require_positive`` and
    ``require_counts`` are the one check of numeric arguments: a bool is never
    a number there, and numpy scalars of the right kind pass."""

    def __init__(self, message: str = "", field: str | None = None):
        self.field = field
        super().__init__(message)

    @classmethod
    def require_positive(cls, **values) -> None:
        """Raise naming the first argument that is not a real in (0, inf)."""
        for name, value in values.items():
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value < math.inf):
                raise cls(f"{name} must be positive and finite, got {value!r}", name)

    @classmethod
    def require_counts(cls, minimum: int, **counts) -> None:
        """Raise naming the first argument that is not an integer >= ``minimum``."""
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
                raise cls(f"{name} must be an integer >= {minimum}, got {value!r}", name)


class InsufficientSamples(ImtEvalError):
    """Too few samples to estimate the requested statistic."""


class SchemaError(ImtEvalError):
    """External table row or header does not match the documented schema."""


class InternalError(ImtEvalError):
    """Invariant breach that indicates a simulator bug, not bad input."""
