"""Shared exception types."""

from __future__ import annotations


class FormatError(ValueError):
    """Malformed graph or tree file content.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class WorkCapExceeded(RuntimeError):
    """An enumeration or counting pass exceeded its search-node budget."""


class RetryLimitExceeded(RuntimeError):
    """The random graph generator could not reach the degree floor."""


class FrozenInstanceError(AttributeError):
    """An attempt to assign or delete a field of an immutable value type."""
