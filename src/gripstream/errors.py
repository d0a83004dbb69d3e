"""Shared exception hierarchy.

Everything raised on purpose by this package derives from GripstreamError,
so the CLI can map pipeline failures to one exit code without masking real
bugs (which surface as ordinary exceptions).
"""

_EXCERPT_CHARS = 80


def excerpt(text: str) -> str:
    """repr(text) for an error message, cut after _EXCERPT_CHARS characters with its length given.

    A message that quoted a damaged file's line whole could run to megabytes.
    """
    if len(text) <= _EXCERPT_CHARS:
        return repr(text)
    return f"{text[:_EXCERPT_CHARS] + '…'!r} ({len(text)} characters)"


class GripstreamError(Exception):
    """Base class for all errors raised by the gripstream pipeline."""


class DomainError(GripstreamError, ValueError):
    """An input is outside the physical or calibrated domain of an operation."""


class ConfigError(GripstreamError, ValueError):
    """Invalid configuration value, plan, or config file content."""
