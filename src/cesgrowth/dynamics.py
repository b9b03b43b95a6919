"""Time integration of the reduced system and stable-manifold trajectories."""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, solve_ivp

from .core import sector_rates
from .errors import (
    NoRealStableEigenvectorError,
    ParameterError,
    StepSizeUnderflowError,
    TargetNotReachedError,
)
from .params import ModelParams, ReducedState
from .stability import TOL_ZERO, jacobian_fd, rhs_reduced, rhs_reduced_values
from .steady import steady_state

# Admissible box and singularity margins at which integration halts.
BOX_MARGIN = 1e-9
UV_EVENT_GAP = 1e-9

_CLIP = 1e-12


def _ev_singular(_t, x):
    """Terminal event of both integrators: the state reaches u = v."""
    return abs(x[2] - x[3]) - UV_EVENT_GAP


_ev_singular.terminal = True


def _rhs_clipped(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """rhs_reduced tolerant to the integrator probing just outside the box.

    Internal RK stages may overshoot the terminal events slightly; the
    state is clipped into the open box for evaluation only.
    """
    z = max(x[0], _CLIP)
    q = max(x[1], _CLIP)
    u = min(max(x[2], _CLIP), 1.0 - _CLIP)
    v = min(max(x[3], _CLIP), 1.0 - _CLIP)
    gap = 10.0 * _CLIP  # strictly above the rhs_reduced singularity floor
    if abs(u - v) < gap:
        mid = min(max(0.5 * (u + v), gap), 1.0 - gap)
        half = 0.5 * gap
        if u >= v:
            u, v = mid + half, mid - half
        else:
            u, v = mid - half, mid + half
    return rhs_reduced(ReducedState(z=z, q=q, u=u, v=v), params)


@dataclass
class Trajectory:
    """Sampled path of the reduced system, optionally with level variables.

    states has one row per sample, columns (z, q, u, v); levels, when
    present, has columns (k, h, c).
    """

    times: np.ndarray
    states: np.ndarray
    levels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def state(self, i: int) -> ReducedState:
        return ReducedState.from_array(self.states[i])

    def __len__(self) -> int:
        return len(self.times)


def integrate(
    state0: ReducedState,
    params: ModelParams,
    t_end: float,
    tol: float = 1e-9,
    t_eval=None,
) -> Trajectory:
    """Adaptive RK45 integration of the reduced system over [0, t_end].

    Halts early, with meta['stop_reason'] set, if the state approaches
    u = v or leaves the admissible box.
    """
    if tol <= 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")

    def fun(_t, x):
        return _rhs_clipped(x, params)

    def ev_box(_t, x):
        return min(x[0], x[1], x[2], x[3], 1.0 - x[2], 1.0 - x[3]) - BOX_MARGIN

    ev_box.terminal = True

    sol = solve_ivp(
        fun,
        (0.0, t_end),
        state0.as_array(),
        method="RK45",
        rtol=tol,
        atol=1e-12,
        t_eval=t_eval,
        events=(_ev_singular, ev_box),
    )
    if sol.status == -1:
        raise StepSizeUnderflowError(
            sol.message, last_state=sol.y[:, -1], last_time=sol.t[-1]
        )
    stop = "completed"
    if sol.status == 1:
        stop = "singularity" if len(sol.t_events[0]) else "left_box"
    meta = {
        "steps": len(sol.t),
        "nfev": sol.nfev,
        "stop_reason": stop,
        "t_stop": float(sol.t[-1]),
    }
    return Trajectory(times=sol.t.copy(), states=sol.y.T.copy(), meta=meta)


def saddle_path(
    params: ModelParams,
    z0: float,
    tol: float = 1e-10,
    seed_scale: float = 1e-6,
    t_budget: float = 500.0,
) -> Trajectory:
    """Construct the stable-manifold trajectory reaching z = z0.

    Seeds at x* +/- eps v_s (v_s the unit stable eigenvector, sign chosen
    so z moves toward z0), integrates in reversed time until z crosses z0,
    then reports the path in forward-time order.
    """
    if z0 <= 0.0:
        raise ParameterError(f"z0 must be positive, got {z0}")
    ss = steady_state(params)
    x_star = np.array([ss.z_star, ss.q_star, ss.u_star, ss.v_star])
    if abs(z0 - ss.z_star) <= 1e-12 * max(1.0, ss.z_star):
        return Trajectory(
            times=np.array([0.0]),
            states=x_star[None, :],
            meta={"steps": 1, "nfev": 0, "stop_reason": "at_steady_state",
                  "t_stop": 0.0},
        )

    jac = jacobian_fd(ReducedState.from_array(x_star), params)
    ev, vecs = np.linalg.eig(jac)
    i_stable = int(np.argmin(ev.real))
    lam = ev[i_stable]
    if lam.real >= -TOL_ZERO:
        raise NoRealStableEigenvectorError(
            f"no stable eigenvalue: min real part {lam.real}"
        )
    v_s = vecs[:, i_stable]
    if np.max(np.abs(v_s.imag)) > 1e-12 * np.max(np.abs(v_s.real)):
        raise NoRealStableEigenvectorError(
            f"stable eigenvector is complex (eigenvalue {lam})"
        )
    v_s = np.real(v_s)
    v_s /= np.linalg.norm(v_s)
    # Orient the offset so z initially moves toward z0.
    if (v_s[0] > 0.0) != (z0 > ss.z_star):
        v_s = -v_s
    eps = seed_scale * np.linalg.norm(x_star)
    x_seed = x_star + eps * v_s

    def fun(_t, x):
        # The manifold may leave the (0,1) allocation box; the reduced
        # equations remain smooth there, so no clipping here.
        return -rhs_reduced_values(x[0], x[1], x[2], x[3], params)

    def ev_target(_t, x):
        return x[0] - z0

    ev_target.terminal = True

    def ev_floor(_t, x):
        return min(x[0], x[1], x[2], x[3]) - BOX_MARGIN

    ev_floor.terminal = True

    # The seed sits eps from the fixed point, so derivatives are tiny and
    # the first-step heuristic would overshoot without a step cap.
    sol = solve_ivp(
        fun,
        (0.0, t_budget),
        x_seed,
        method="RK45",
        rtol=tol,
        atol=1e-13,
        max_step=min(1.0, 0.5 / abs(lam.real)),
        events=(ev_target, ev_floor, _ev_singular),
    )
    if sol.status == -1:
        raise StepSizeUnderflowError(
            sol.message, last_state=sol.y[:, -1], last_time=sol.t[-1]
        )
    if not len(sol.t_events[0]):
        if sol.status == 1:
            reason = ("approached u = v" if len(sol.t_events[2])
                      else "hit a coordinate floor")
        else:
            reason = "travel budget exhausted"
        raise TargetNotReachedError(
            f"z never crossed {z0} ({reason}; final z = {sol.y[0, -1]:g})"
        )
    # Reverse into forward-time order, starting at t = 0 on the far end.
    times = sol.t[-1] - sol.t[::-1]
    states = sol.y[:, ::-1].T.copy()
    meta = {
        "steps": len(sol.t),
        "nfev": sol.nfev,
        "stop_reason": "target_reached",
        "t_stop": float(times[-1]),
        "stable_eigenvalue": complex(lam),
    }
    return Trajectory(times=times, states=states, meta=meta)


def reconstruct_levels(
    traj: Trajectory, k0: float, params: ModelParams
) -> Trajectory:
    """Integrate the capital-growth equation along a stored reduced path.

    k grows at A1 v w^{-1} P1^{1/psi1} - q - delta_k; h and c follow
    definitionally as h = k/z and c = q k.
    """
    if len(traj) == 0:
        raise ParameterError("trajectory is empty")
    if k0 <= 0.0:
        raise ParameterError(f"k0 must be positive, got {k0}")
    z = traj.states[:, 0]
    q = traj.states[:, 1]
    u = traj.states[:, 2]
    v = traj.states[:, 3]
    w = v / u * z
    growth = v / w * sector_rates(w, params)[4] - q - params.delta_k
    if len(traj) == 1:
        k = np.array([k0])
    else:
        log_k = np.log(k0) + cumulative_trapezoid(growth, traj.times, initial=0.0)
        k = np.exp(log_k)
    h = k / z
    c = q * k
    return Trajectory(
        times=traj.times.copy(),
        states=traj.states.copy(),
        levels=np.column_stack([k, h, c]),
        meta=dict(traj.meta),
    )
