"""Exception types for the package."""

from __future__ import annotations


class DemyanovError(Exception):
    """Base class of the package's own exception types."""


class CapExceededError(DemyanovError):
    """No repeated collection appeared within the iteration cap."""

    def __init__(self, cap: int, trajectory: tuple):
        super().__init__(f"no cycle detected within {cap} iterations")
        self.cap = cap
        self.trajectory = trajectory


class GenerationFailedError(DemyanovError):
    """Random family generation ran out of retries."""

    def __init__(self, requested: int, attempts: int):
        super().__init__(
            f"could not generate {requested} distinct polytopes in {attempts} attempts"
        )
        self.requested = requested
        self.attempts = attempts


class ParseError(DemyanovError):
    """A family document could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = "" if line is None else f" (line {line}, column {column})"
        super().__init__(message + location)
        self.line = line
        self.column = column
