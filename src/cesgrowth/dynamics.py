"""Stable-manifold trajectories of the reduced system and their levels."""

import math

import numpy as np

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
# Reverse-time integration: the stepper's rtol and atol, the seed's offset
# from the fixed point relative to |x*|, and the longest time it may travel.
SADDLE_RTOL = 1e-10
SADDLE_ATOL = 1e-13
SEED_SCALE = 1e-6
T_BUDGET = 500.0

# Dormand & Prince (1980) 5(4) pair: the stage matrix's rows below the
# diagonal, fifth-order weights, error weights (the last on the
# first-same-as-last stage) and Shampine's (1986) quartic dense output.
_DP_A = [np.array(row) for row in (
    [1/5],
    [3/40, 9/40],
    [44/45, -56/15, 32/9],
    [19372/6561, -25360/2187, 64448/6561, -212/729],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
)]
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


class Trajectory:
    """Sampled path of the reduced system, optionally with level variables.

    states has one row per sample, columns (z, q, u, v); levels, when
    present, has columns (k, h, c).
    """

    def __init__(self, times, states, levels=None, meta=None):
        self.times = times
        self.states = states
        self.levels = levels
        self.meta = {} if meta is None else meta

    def __len__(self) -> int:
        return len(self.times)


def saddle_path(params: ModelParams, z0: float) -> Trajectory:
    """Construct the stable-manifold trajectory reaching z = z0.

    Seeds at x* +/- eps v_s (v_s the unit stable eigenvector, sign chosen
    so z moves toward z0), integrates in reversed time until z crosses z0,
    then reports the path in forward-time order.
    """
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ParameterError(f"z0 must be positive and finite, got {z0}")
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

    def fun(x):
        # The manifold may leave the (0,1) allocation box; the reduced
        # equations remain smooth there. tolist() hands the kernel Python
        # floats, whose scalar arithmetic costs less than numpy scalars';
        # negating the four floats costs less than negating their array.
        zdot, qdot, udot, vdot = rhs_reduced_values(*x.tolist(), params)
        return np.array((-zdot, -qdot, -udot, -vdot))

    def events(x):
        z, q, u, v = x.tolist()
        return [z - z0, min(z, q, u, v) - BOX_MARGIN, abs(u - v) - UV_EVENT_GAP]

    # The seed sits eps from the fixed point, so derivatives are tiny and
    # the first-step heuristic would overshoot without a step cap.
    ts, ys, nfev, hit = _dormand_prince(fun, x_seed, min(1.0, 0.5 / abs(lam.real)),
                                        events)
    if hit != 0:
        reason = {1: "hit a coordinate floor", 2: "approached u = v",
                  None: "travel budget exhausted"}[hit]
        raise TargetNotReachedError(
            f"z never crossed {z0} ({reason}; final z = {ys[-1][0]:g})"
        )
    # Reverse into forward-time order, starting at t = 0 on the far end.
    times = ts[-1] - np.array(ts[::-1])
    states = np.array(ys[::-1])
    meta = {
        "steps": len(ts),
        "nfev": nfev,
        "stop_reason": "target_reached",
        "t_stop": float(times[-1]),
        "stable_eigenvalue": complex(lam),
    }
    return Trajectory(times=times, states=states, meta=meta)


def _rms(x):
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _dormand_prince(fun, y, max_step, events):
    """Integrate y' = fun(y) from t = 0 until T_BUDGET or a terminal event.

    Dormand & Prince 5(4) with the step control of Hairer, Norsett & Wanner
    (Solving ODEs I, sec. II.4), the common RK45, at rtol SADDLE_RTOL and
    atol SADDLE_ATOL. After each accepted step, a component
    of events(y) that changes sign is located to one ulp of t by bisection
    on the step's dense output; the earliest crossing ends the path there.
    Returns (times, states, nfev, hit), hit the index of the event met or
    None when the budget ran out.
    """
    t_bound, rtol, atol = float(T_BUDGET), SADDLE_RTOL, SADDLE_ATOL
    t, f = 0.0, fun(y)
    # First step: two rhs calls, f at the seed and one Euler probe.
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    d2 = _rms((fun(y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_bound, max_step)
    nfev, ts, ys, g = 2, [t], [y], events(y)
    K = np.empty((7, y.size))
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise StepSizeUnderflowError(
                    "Required step size is less than spacing between numbers.",
                    last_state=y, last_time=t)
            t_new = min(t + h_abs, t_bound)
            h = h_abs = t_new - t
            K[0] = f
            for s, a in enumerate(_DP_A, 1):
                K[s] = fun(y + np.dot(K[:s].T, a) * h)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = fun(y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _rms(np.dot(K.T, _DP_E) * h / scale)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t_old, y_old, t, y, f = t, y, t_new, y_new, f_new
        g_new = events(y)
        crossed = [i for i, (old, new) in enumerate(zip(g, g_new))
                   if old <= 0 <= new or new <= 0 <= old]
        if crossed:
            Q = K.T.dot(_DP_P)

            def dense(s):
                x = (s - t_old) / h
                return h * np.dot(Q, np.cumprod(np.full(4, x))) + y_old

            t, hit = min((_bisect(lambda s: events(dense(s))[i], t_old, t), i)
                         for i in crossed)
            ts.append(t)
            ys.append(dense(t))
            return ts, ys, nfev, int(hit)
        ts.append(t)
        ys.append(y)
        g = g_new
    return ts, ys, nfev, None


def _bisect(g, lo, hi):
    """Zero of g, which changes sign or vanishes on [lo, hi]: bisection down
    to adjacent floats, then the one of them where |g| is smaller."""
    g_lo, g_hi = g(lo), g(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        g_mid = g(mid)
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return lo if abs(g_lo) < abs(g_hi) else hi


def reconstruct_levels(
    traj: Trajectory, k0: float, params: ModelParams
) -> Trajectory:
    """Integrate the capital-growth equation along a stored reduced path.

    k grows at A1 v w^{-1} P1^{1/psi1} - q - delta_k; h and c follow
    definitionally as h = k/z and c = q k.
    """
    if len(traj) == 0:
        raise ParameterError("trajectory is empty")
    if not (math.isfinite(k0) and k0 > 0.0):
        raise ParameterError(f"k0 must be positive and finite, got {k0}")
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
