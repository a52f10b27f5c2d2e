"""Exception hierarchy shared by every attnlab module.

Kept deliberately flat: one base class so callers can catch everything
coming out of the library, plus one class per failure family named in the
operation contracts.
"""


class LabError(Exception):
    """Base class for all attnlab errors."""


class ConfigurationError(LabError):
    """An AttentionConfig violates one of its invariants."""


class DimensionError(LabError):
    """Operands have inconsistent shapes."""


class NumericalError(LabError):
    """Non-finite values, or numerics outside the guaranteed envelope."""


class CapacityError(LabError):
    """A decode cache is full and cannot accept another token."""


class UnsupportedModeError(LabError):
    """The requested operation does not support the configured mode."""


class UnsupportedMechanismError(LabError):
    """The requested operation is undefined for this attention mechanism."""


class ParameterError(LabError):
    """An operation argument is out of its documented range."""


class ArchiveError(LabError):
    """A tensor archive is malformed, truncated, or version-incompatible."""
