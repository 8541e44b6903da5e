"""Exception hierarchy shared by all modules, the one domain check and the
one reader of JSON numbers."""
import math


class UnruhCPError(Exception):
    """Base class for all library errors."""


class InputError(UnruhCPError, ValueError):
    """Malformed configuration, atom file or CLI argument."""


class DomainError(UnruhCPError, ValueError):
    """Argument outside the mathematical domain of an operation."""


def check_domain(name: str, value: float, strict: bool = True,
                 error: type = DomainError) -> None:
    """Raise error unless value is finite and > 0 (>= 0 when not strict)."""
    if not (math.isfinite(value) and (value > 0.0 if strict else value >= 0.0)):
        bound = "> 0" if strict else ">= 0"
        raise error(f"{name} must be finite and {bound}, got {value}")


def read_real(x) -> float:
    """float(x) for a JSON number or numeric string; JSON true and false are a
    TypeError, not 1.0 and 0.0."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


class RegimeError(UnruhCPError):
    """Input lies in a regime the requested evaluator must not be used in."""


class NumericalFailure(UnruhCPError):
    """Quadrature or series evaluation did not converge.

    Carries the best available estimate so callers can degrade gracefully.
    """

    def __init__(self, message, partial=None, error_estimate=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate


class OracleUnreliableError(NumericalFailure):
    """Kept for callers that catch it, perfbench/checks.py's sweep_grid check
    among them; nothing raises it any more.  The undamped oracle has no
    eta -> 0 extrapolation to distrust."""


class InconsistentRegimeError(UnruhCPError):
    """A numerically extracted power law contradicts the expected regime form."""
