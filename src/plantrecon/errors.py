"""Shared exception bases.

Two families matter for the CLI exit-code contract: ``InputError`` covers
bad configuration (exit code 1, as do a file that cannot be opened, read
or written and one that is not valid UTF-8), ``DataError`` covers well-formed inputs whose content
violates an invariant (exit code 2). Anything else is an internal error
(exit code 3).
"""


class PlantReconError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PlantReconError):
    """Missing or unusable input: absent file, malformed configuration."""


class DataError(PlantReconError):
    """Input parsed fine but its content violates a declared invariant."""


class ConfigError(InputError):
    """Invalid pipeline configuration (unknown key, out-of-range value)."""
