"""Shared exception types for the pipeline."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PipelineError, ValueError):
    """Malformed or out-of-range input, with the 1-based line number when
    known. Also a ``ValueError``, as ``json.JSONDecodeError`` is."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(PipelineError):
    """One or more records failed validation.

    ``problems`` collects every offending record's message so callers can
    report all of them at once instead of failing on the first.
    """

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class DegenerateCountsError(PipelineError):
    """Count statistics too sparse to estimate a smoothing discount."""
