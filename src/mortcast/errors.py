"""Exception types shared across the package."""


class MortcastError(Exception):
    """Base class for all package-specific errors."""


class ParseError(MortcastError):
    """Malformed input text. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyInputError(ParseError):
    """Input stream contained no data rows."""


class UsageError(MortcastError):
    """Invalid flags, options or settings."""


class DuplicateCellError(MortcastError):
    """A (year, age) cell appeared more than once in a table."""


class MissingCellError(MortcastError):
    """A requested (year, age) cell is absent from the source table."""


class NonFiniteLogitError(MortcastError):
    """Rate outside (0, 1); its logit is not finite. Carries the cell when known."""

    def __init__(self, message: str, year: int | None = None, age: int | None = None):
        self.year = year
        self.age = age
        if year is not None and age is not None:
            message = f"{message} at (year={year}, age={age})"
        super().__init__(message)


class FactorizationError(MortcastError):
    """A covariance matrix failed its positive-definite factorization even after jitter."""
