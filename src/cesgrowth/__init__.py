"""Numerical laboratory for a two-sector endogenous growth model with
two distinct CES technologies: balanced-growth steady states, saddle-path
stability, stable-manifold trajectories and elasticity-of-substitution
comparative statics via normalized CES families.
"""

from .core import AuxBundle, sector_rates, tau_of, y1_of, y2_of
from .errors import (
    AllocationOutOfRangeError,
    BaselineMismatchError,
    CesGrowthError,
    MrsMismatchError,
    NoBracketError,
    NoConvergenceError,
    NoRealStableEigenvectorError,
    ParameterError,
    ScenarioError,
    SingularStateError,
    StepSizeUnderflowError,
    TargetNotReachedError,
    TvcViolationError,
)
from .normalization import (
    A_of_sigma,
    Baseline,
    ComparisonTable,
    alpha_of_sigma,
    baseline_from_point,
    baseline_from_steady_state,
    compare_economies,
    mrs_from_params,
    normalized_params,
    share_pi,
    share_pi_bar,
)
from .params import LevelState, ModelParams, ReducedState
from .scenario import Scenario, load_scenario, parse_scenario
from .stability import (
    StabilityReport,
    eigen4,
    jacobian_fd,
    rhs_reduced,
    stability_report,
)
from .steady import SteadyState, gap_P, solve_w, steady_state, transversality

__version__ = "0.1.0"


def __getattr__(name):
    """Trajectory, saddle_path and reconstruct_levels, from dynamics on first
    use (PEP 562): a program that integrates no path then never compiles
    or runs the dynamics module."""
    if name in ("Trajectory", "saddle_path", "reconstruct_levels"):
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
