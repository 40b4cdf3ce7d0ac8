"""Exception types shared across the package.

Numerical routines raise these instead of returning sentinel values so that
callers (including the CLI) can distinguish configuration mistakes from
genuine runtime failures.
"""

from __future__ import annotations


class HostGuestError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HostGuestError):
    """An input lies outside the mathematical domain of the operation."""


class IntegrationFailure(HostGuestError):
    """A quadrature did not converge to the requested tolerance."""


class GridTooNarrow(HostGuestError):
    """A frequency grid does not span the structure it must resolve."""


class NotHermitian(HostGuestError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class DimensionOverflow(HostGuestError):
    """A composite Hilbert space exceeds the configured dimension cap."""


class PreconditionViolated(HostGuestError):
    """A documented precondition of the operation does not hold."""


class InvalidState(HostGuestError):
    """A density matrix fails Hermiticity, trace, or positivity checks."""


class DegenerateSteadyState(HostGuestError):
    """The Liouvillian kernel at unit rates (H and each positive-rate channel
    scaled to a largest entry of 1, every rate 1) is more than
    one-dimensional, or the trace-one solve is singular or not positive."""


class SingularNetwork(HostGuestError):
    """A classical rate network has no unique normalizable steady state."""


class ParseError(HostGuestError):
    """Structurally malformed tabular input.

    Carries the one-based row number, the offending column name (or None
    for whole-row problems), and a human-readable reason.
    """

    def __init__(self, row: int, column: str | None, reason: str):
        self.row = row
        self.column = column
        self.reason = reason
        where = f"row {row}" + (f", column {column!r}" if column else "")
        super().__init__(f"{where}: {reason}")


class EmptyDataset(HostGuestError):
    """Tabular input contains no header or no data at all."""


class DegenerateFit(HostGuestError):
    """Regression input does not determine the fit parameters."""


class ConfigError(HostGuestError):
    """A scenario configuration is invalid (unknown key, bad type, bad value)."""
