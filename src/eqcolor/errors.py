"""Exception types shared across the package, each with its command-line code and exit status."""

from __future__ import annotations

from typing import Any


class EqcolorError(Exception):
    """Base class for all package errors.

    Carries a context mapping with whatever state helps diagnose the
    failure, such as the offending vertex, layer or input line. The CLI
    reports it as an error document with ``code`` and exits ``exit_status``.
    """

    code = "input-error"
    exit_status = 2

    def __init__(self, message: str, context: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.context = context or {}


class InputError(EqcolorError, ValueError):
    """Raised when arguments violate a documented precondition."""


class InvariantError(EqcolorError, RuntimeError):
    """Raised when an internal invariant fails."""

    code = "invariant-error"


class ParseError(EqcolorError, ValueError):
    """Raised when a document cannot be parsed into a domain object."""

    code = "parse-error"
    exit_status = 3
