"""Error types and the size budget shared across the package."""

# The most cells one array may take (sieve bytes, window points, box
# coordinates, visited bytes, lines per trial), checked before allocating.
SIZE_BUDGET = 1 << 26


class DomainError(ValueError):
    """An argument is outside the range an operation is defined for."""


class ParseError(ValueError):
    """A file or stream is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
