"""Exception types shared across the package.

Input-contract violations subclass :class:`ValueError` so callers that only
know the standard hierarchy still behave sensibly; numerical failures that can
occur on valid input subclass :class:`ArithmeticError`.
"""

from __future__ import annotations

__all__ = [
    "TrapcheckError",
    "DivergentTailError",
    "InsufficientHorizonError",
    "DegenerateScheduleError",
    "AmbiguousSpectrumError",
    "SpectrumSignError",
    "ConditioningError",
    "SingularDenominatorError",
    "StuckWalkError",
    "BlowUpError",
    "InsufficientRecordsError",
    "DomainExitError",
    "DegenerateTimeChangeError",
    "ConfigError",
]


class TrapcheckError(Exception):
    """Base class for all package-specific errors."""


class DivergentTailError(TrapcheckError, ValueError):
    """The tail sum of squared noise scales does not converge."""


class InsufficientHorizonError(TrapcheckError, ValueError):
    """A schedule query lies beyond the materialized horizon."""


class DegenerateScheduleError(TrapcheckError, ValueError):
    """A schedule is unusable for the requested statistic (e.g. all-zero tail)."""


class AmbiguousSpectrumError(TrapcheckError, ValueError):
    """An eigenvalue real part falls inside the rejection band around zero."""

    def __init__(self, message: str, offenders=None):
        super().__init__(message)
        self.offenders = list(offenders) if offenders is not None else []


class SpectrumSignError(TrapcheckError, ValueError):
    """A matrix does not have the required eigenvalue sign pattern."""


class ConditioningError(TrapcheckError, ArithmeticError):
    """A linear solve produced an unacceptably large residual."""


class SingularDenominatorError(TrapcheckError, ArithmeticError):
    """A model's normalizing denominator vanished at the evaluation point."""


class StuckWalkError(TrapcheckError, ArithmeticError):
    """Every transition weight out of the current vertex is zero."""


class BlowUpError(TrapcheckError, ArithmeticError):
    """A trajectory left the admissible region (non-finite or too large).

    Attributes
    ----------
    step : int
        First step index at which the bound was violated.
    state : ndarray
        Offending state.
    """

    def __init__(self, message: str, step: int, state=None):
        super().__init__(message)
        self.step = step
        self.state = state


class InsufficientRecordsError(TrapcheckError, ValueError):
    """The ensemble did not keep the records a computation needs: a run not
    kept in full, or a state or increment not captured."""


class DomainExitError(TrapcheckError, ArithmeticError):
    """The flow integrator left the field's admissible domain."""


class DegenerateTimeChangeError(TrapcheckError, ValueError):
    """The drift-step prefix sums are not strictly increasing on the range."""


class ConfigError(TrapcheckError, ValueError):
    """An experiment configuration is malformed.

    Attributes
    ----------
    path : str
        Dotted path of the offending field, e.g. ``"schedule.gamma_exp"``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
