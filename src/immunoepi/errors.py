"""The package's exceptions, in a module that imports nothing.

``ConfigError`` is an invalid scenario document or argument (CLI exit 2);
``NumericsError`` and its subclasses are numerical failures (CLI exit 3).
The command line catches them without importing the numeric modules.
Every module that raises or catches one imports it from here; no other
module re-exports them.
"""

__all__ = [
    "ConfigError",
    "NumericsError",
    "NonFiniteError",
    "StepLimitError",
    "BracketError",
    "ConvergenceError",
    "TransportBlowupError",
    "PoleError",
]


class ConfigError(Exception):
    """Invalid scenario document; the message names the offending field."""


class NumericsError(Exception):
    """Base class for failures raised by the numerical kernel."""


class NonFiniteError(NumericsError):
    """A state vector or integrand evaluation became NaN or infinite."""


class StepLimitError(NumericsError):
    """The integrator exhausted its step budget before reaching t_end."""


class BracketError(NumericsError):
    """A root bracket does not enclose a sign change."""


class ConvergenceError(NumericsError):
    """An iterative solve (Newton, Brent) failed to converge."""


class TransportBlowupError(NumericsError):
    """A simulation state fell below the negativity tolerance or went non-finite."""


class PoleError(NumericsError, ValueError):
    """A trial rate lies within min(POLE_GUARD, p/2) of a characteristic pole at -p."""
