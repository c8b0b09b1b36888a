"""Exception types shared across the package."""

from __future__ import annotations

from typing import Any


class EqcolorError(Exception):
    """Base class for all package errors.

    Carries a context mapping with whatever state helps diagnose the
    failure, such as the offending vertex, layer or input line.
    """

    def __init__(self, message: str, context: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.context = context or {}


class InputError(EqcolorError, ValueError):
    """Raised when arguments violate a documented precondition."""


class InvariantError(EqcolorError, RuntimeError):
    """Raised when an internal invariant fails."""


class ParseError(EqcolorError, ValueError):
    """Raised when a document cannot be parsed into a domain object."""
