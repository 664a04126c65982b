"""Shared exception types. Messages name the offending field/key where applicable.

Each type also derives from the builtin it refines, so callers may catch either.
"""


class CelltwinError(Exception):
    """Base of every celltwin error; the CLI reports these as `error: ...`."""


class ConfigError(CelltwinError, ValueError):
    """Invalid configuration value or unknown key."""


class DomainError(CelltwinError, ValueError):
    """Argument outside the function's domain."""


class ShapeError(CelltwinError, ValueError):
    """Array shape does not match the declared interface."""


class FormatError(CelltwinError, ValueError):
    """Persisted file is corrupt or has an incompatible version."""


class TrainingError(CelltwinError, RuntimeError):
    """Non-finite loss or gradients during optimization."""


class ModelError(CelltwinError, RuntimeError):
    """Model unusable for the requested operation (untrained, layout mismatch)."""


class EnvelopeError(CelltwinError, RuntimeError):
    """An evaluated scheme beats a physical bound: all-sleep energy or always-on coverage."""


class UnknownIdError(CelltwinError, LookupError):
    """Cell id or grid index not present in the scenario."""
