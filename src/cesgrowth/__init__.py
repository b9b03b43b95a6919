"""Numerical laboratory for a two-sector endogenous growth model with
two distinct CES technologies: balanced-growth steady states, saddle-path
stability, stable-manifold trajectories and elasticity-of-substitution
comparative statics via normalized CES families.
"""

from .core import (
    AuxBundle,
    aux_of,
    costate_ratio,
    p1_of,
    p2_of,
    rhs_full,
    sector_rates,
    tau_of,
    w_of,
    y1_of,
    y2_of,
)
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
    dpi_dpsi,
    dr_dpsi,
    dy_dpsi,
    identity_wwb,
    mrs_from_params,
    normalized_params,
    normalized_y,
    r_star_of_sigma,
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
    use (PEP 562): dynamics imports numpy, which nothing else here needs."""
    if name in ("Trajectory", "saddle_path", "reconstruct_levels"):
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
