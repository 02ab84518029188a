"""Exception hierarchy shared across the package."""


class RelposError(Exception):
    """Base class for all package errors."""


class ParseError(RelposError):
    """Malformed scalar, symbol, key or system file text."""


class DimensionMismatch(RelposError):
    """Operands live in incompatible ambient spaces or arities."""


class BackendMismatch(RelposError):
    """Exact and float values mixed in one operation."""


class ExactOnlyError(RelposError):
    """Operation defined only for the exact backend."""


class SingularMatrixError(RelposError):
    """A map required to be invertible is singular."""


class DegenerateSymbolError(RelposError):
    """A Toeplitz symbol with identically vanishing determinant."""


class UncertifiedError(RelposError):
    """A result that must be certified could not be certified."""


class InvariantViolation(RelposError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def quote(token: str) -> str:
    """repr(token) for an error message, or for a token past 60 characters
    the repr of its first 60 and its length: input text of any size is
    echoed in a line."""
    if len(token) <= 60:
        return repr(token)
    return f"{token[:60]!r}... ({len(token)} characters)"
