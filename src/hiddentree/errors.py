"""Exception types shared across the package."""

from . import _exports

__all__ = _exports(__name__)


class ParameterError(ValueError):
    """A parameter violates its constraints."""


class EmptyDistributionError(ValueError):
    """Raised when a degree sequence contains no positive entries."""


class InsufficientDataError(ValueError):
    """Raised when too few distribution points fall inside the fit range."""


class ConnectivityError(ValueError):
    """Raised when an operation that needs a connected graph gets a disconnected one."""


class EdgeListFormatError(ValueError):
    """Raised when an edge-list file cannot be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(line_number, message)
        self.line_number = line_number

    def __str__(self) -> str:
        return f"line {self.args[0]}: {self.args[1]}"
