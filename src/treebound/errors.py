"""Shared exception types."""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed graph or tree file content.

    Carries the 1-based line number of the offending line when known, and
    the message without its line prefix as ``detail``.
    """

    def __init__(self, message: str, line: int | None = None):
        self.detail = message
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class WorkCapExceeded(RuntimeError):
    """An enumeration or counting pass exceeded its search-node budget."""


class RetryLimitExceeded(RuntimeError):
    """The random graph generator could not reach the degree floor."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of an immutable value type."""
