"""Exception types shared across the package."""


class CesGrowthError(Exception):
    """Base class for all package errors."""


class ParameterError(CesGrowthError, ValueError):
    """A structural parameter or state variable violates its domain."""


class SingularStateError(CesGrowthError):
    """State hits a denominator of the reduced system (u = v, R = 0 or tau0(w) = 1)."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NoBracketError(CesGrowthError):
    """Geometric expansion found no sign change for the BGP gap."""


class AllocationOutOfRangeError(CesGrowthError):
    """Solved u* or v* lies outside (0, 1)."""

    def __init__(self, message, u_star=None, v_star=None):
        super().__init__(message)
        self.u_star = u_star
        self.v_star = v_star


class TvcViolationError(CesGrowthError):
    """Transversality margin rho + (eps - 1) r* is non-positive."""


class NoConvergenceError(CesGrowthError):
    """The Newton iteration for the balanced-path root did not settle."""


class MrsMismatchError(CesGrowthError):
    """The two sectoral marginal rates of substitution disagree."""


class BaselineMismatchError(CesGrowthError):
    """Two economies to be compared differ in more than their elasticities."""


class TargetNotReachedError(CesGrowthError):
    """Reverse-time integration never reached the requested z0."""


class StepSizeUnderflowError(CesGrowthError):
    """Adaptive integrator could not make progress."""

    def __init__(self, message, last_state=None, last_time=None):
        super().__init__(message)
        self.last_state = last_state
        self.last_time = last_time


class ScenarioError(CesGrowthError, ValueError):
    """Scenario file failed validation; carries the offending field path."""

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field
