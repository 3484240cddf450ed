"""Exception types shared across the simulator."""


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
    names the rejected dataclass field, if any."""

    def __init__(self, message: str = "", field: str | None = None):
        self.field = field
        super().__init__(message)


class InsufficientSamples(ImtEvalError):
    """Too few samples to estimate the requested statistic."""


class SchemaError(ImtEvalError):
    """External table row or header does not match the documented schema."""


class InternalError(ImtEvalError):
    """Invariant breach that indicates a simulator bug, not bad input."""
