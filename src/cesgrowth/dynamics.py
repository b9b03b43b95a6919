"""Stable-manifold trajectories of the reduced system and their levels."""

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .core import sector_rates
from .errors import (
    NoRealStableEigenvectorError,
    ParameterError,
    StepSizeUnderflowError,
    TargetNotReachedError,
)
from .params import ModelParams, ReducedState
from .stability import TOL_ZERO, jacobian_fd, rhs_reduced_values
from .steady import steady_state

# Coordinate floor and u = v margin at which integration halts.
BOX_MARGIN = 1e-9
UV_EVENT_GAP = 1e-9
# Reverse-time integration: RK45's rtol, the seed's offset from the
# fixed point relative to |x*|, and the longest time it may travel.
SADDLE_RTOL = 1e-10
SEED_SCALE = 1e-6
T_BUDGET = 500.0


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

    def __len__(self) -> int:
        return len(self.times)


def saddle_path(params: ModelParams, z0: float) -> Trajectory:
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
    eps = SEED_SCALE * np.linalg.norm(x_star)
    x_seed = x_star + eps * v_s

    def fun(_t, x):
        # The manifold may leave the (0,1) allocation box; the reduced
        # equations remain smooth there.
        return -rhs_reduced_values(x[0], x[1], x[2], x[3], params)

    def ev_target(_t, x):
        return x[0] - z0

    ev_target.terminal = True

    def ev_floor(_t, x):
        return min(x[0], x[1], x[2], x[3]) - BOX_MARGIN

    ev_floor.terminal = True

    def ev_singular(_t, x):
        return abs(x[2] - x[3]) - UV_EVENT_GAP

    ev_singular.terminal = True

    # The seed sits eps from the fixed point, so derivatives are tiny and
    # the first-step heuristic would overshoot without a step cap.
    sol = solve_ivp(
        fun,
        (0.0, T_BUDGET),
        x_seed,
        method="RK45",
        rtol=SADDLE_RTOL,
        atol=1e-13,
        max_step=min(1.0, 0.5 / abs(lam.real)),
        events=(ev_target, ev_floor, ev_singular),
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
        # Trapezoid rule on ln k, accumulated from k0.
        steps = np.diff(traj.times) * (growth[1:] + growth[:-1]) / 2.0
        k = np.exp(np.log(k0) + np.concatenate(([0.0], np.cumsum(steps))))
    h = k / z
    c = q * k
    return Trajectory(
        times=traj.times.copy(),
        states=traj.states.copy(),
        levels=np.column_stack([k, h, c]),
        meta=dict(traj.meta),
    )
