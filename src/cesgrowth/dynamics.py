"""Stable-manifold trajectories of the reduced system and their levels.

Everything here runs on Python floats; numpy is imported only when a
Trajectory's array view is read.
"""

import math
from functools import cached_property

from .core import sector_rates
from .errors import (
    NoRealStableEigenvectorError,
    ParameterError,
    StepSizeUnderflowError,
    TargetNotReachedError,
)
from .params import ModelParams, ReducedState
from .stability import TOL_ZERO, eigen4, jacobian_fd, rhs_reduced_values
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

# Shampine's (1986) quartic dense output for the Dormand & Prince (1980)
# 5(4) pair, one row per stage; the pair's own coefficients are written
# out in _dormand_prince.
_DP_P = (
    (1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432),
    (0, 0, 0, 0),
    (0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799),
    (0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072),
    (0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632),
    (0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844),
    (0, 40617522/29380423, -110615467/29380423, 69997945/29380423),
)


def _rows(x):
    """x as Python floats: an array's tolist(), anything else as given."""
    return x.tolist() if hasattr(x, "tolist") else x


class Trajectory:
    """Sampled path of the reduced system, optionally with level variables.

    time_rows holds one time per sample, state_rows one (z, q, u, v) per
    sample and level_rows, when present, one (k, h, c): Python floats,
    from sequences or numpy arrays given to the constructor. times, states
    and levels are the same as numpy arrays of shape (n,), (n, 4) and
    (n, 3), built on first read, so a caller that reads only the rows does
    not import numpy.
    """

    def __init__(self, times, states, levels=None, meta=None):
        self.time_rows = _rows(times)
        self.state_rows = _rows(states)
        self.level_rows = None if levels is None else _rows(levels)
        self.meta = {} if meta is None else meta

    def __len__(self) -> int:
        return len(self.time_rows)

    @cached_property
    def times(self):
        import numpy as np

        return np.array(self.time_rows, dtype=float)

    @cached_property
    def states(self):
        import numpy as np

        return np.array(self.state_rows, dtype=float).reshape(-1, 4)

    @cached_property
    def levels(self):
        import numpy as np

        if self.level_rows is None:
            return None
        return np.array(self.level_rows, dtype=float).reshape(-1, 3)


def saddle_path(params: ModelParams, z0: float) -> Trajectory:
    """Construct the stable-manifold trajectory reaching z = z0.

    Seeds at x* +/- eps v_s (v_s the unit stable eigenvector, sign chosen
    so z moves toward z0), integrates in reversed time until z crosses z0,
    then reports the path in forward-time order.
    """
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ParameterError(f"z0 must be positive and finite, got {z0}")
    z0 = float(z0)
    ss = steady_state(params)
    x_star = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    if abs(z0 - ss.z_star) <= 1e-12 * max(1.0, ss.z_star):
        return Trajectory(
            times=[0.0],
            states=[x_star],
            meta={"steps": 1, "nfev": 0, "stop_reason": "at_steady_state",
                  "t_stop": 0.0},
        )

    lam, v_s = stable_eigenpair(jacobian_fd(ReducedState(*x_star), params))
    # Orient the offset so z initially moves toward z0.
    sign = 1.0 if (v_s[0] > 0.0) == (z0 > ss.z_star) else -1.0
    eps = sign * SEED_SCALE * math.hypot(*x_star)
    x_seed = [x + eps * v for x, v in zip(x_star, v_s)]

    def fun(x):
        # The manifold may leave the (0,1) allocation box; the reduced
        # equations remain smooth there.
        zdot, qdot, udot, vdot = rhs_reduced_values(*x, params)
        return -zdot, -qdot, -udot, -vdot

    def events(x):
        z, q, u, v = x
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
    t_stop = ts[-1]
    meta = {
        "steps": len(ts),
        "nfev": nfev,
        "stop_reason": "target_reached",
        "t_stop": t_stop,
        "stable_eigenvalue": lam,
    }
    return Trajectory(times=[t_stop - t for t in reversed(ts)], states=ys[::-1],
                      meta=meta)


def stable_eigenpair(jac) -> tuple:
    """(lambda, v): the stable eigenvalue of the 4x4 Jacobian and its unit
    eigenvector, of either sign.

    lambda is the eigenvalue of least real part from eigen4, and v the null
    vector of J - lambda I by Gaussian elimination with complete pivoting:
    the last pivot is taken as zero and the other three coordinates follow
    by back substitution from a unit free coordinate.
    """
    lam = eigen4(jac)[0]
    if lam.real >= -TOL_ZERO:
        raise NoRealStableEigenvectorError(
            f"no stable eigenvalue: min real part {lam.real}"
        )
    if lam.imag:
        raise NoRealStableEigenvectorError(
            f"stable eigenvector is complex (eigenvalue {lam})"
        )
    a = [[x - lam.real if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(jac)]
    cols = [0, 1, 2, 3]
    for k in range(3):
        _, p, q = max((abs(a[i][j]), i, j) for i in range(k, 4) for j in range(k, 4))
        if not a[p][q]:
            raise NoRealStableEigenvectorError(
                f"stable eigenvalue {lam} is not simple"
            )
        a[k], a[p] = a[p], a[k]
        for row in a:
            row[k], row[q] = row[q], row[k]
        cols[k], cols[q] = cols[q], cols[k]
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            for j in range(k, 4):
                row[j] -= f * a[k][j]
    x = [0.0, 0.0, 0.0, 1.0]
    for k in (2, 1, 0):
        x[k] = -sum(a[k][j] * x[j] for j in range(k + 1, 4)) / a[k][k]
    v = [0.0] * 4
    for k, c in enumerate(cols):
        v[c] = x[k]
    norm = math.hypot(*v)
    return lam, [c / norm for c in v]


def _dormand_prince(fun, y, max_step, events):
    """Integrate y' = fun(y) from t = 0 until T_BUDGET or a terminal event.

    y is a sequence of floats and fun(y) returns one. Dormand & Prince 5(4)
    with the step control of Hairer, Norsett & Wanner (Solving ODEs I,
    sec. II.4), the common RK45, at rtol SADDLE_RTOL and atol SADDLE_ATOL.
    Each stage is one list comprehension over the components with the
    pair's coefficients written into it, which costs less than summing
    over a coefficient table. After each accepted step, a component of
    events(y) that changes sign is located to one ulp of t by bisection on
    the step's dense output; the earliest crossing ends the path there.
    Returns (times, states, nfev, hit), hit the index of the event met or
    None when the budget ran out.
    """
    t_bound, rtol, atol = float(T_BUDGET), SADDLE_RTOL, SADDLE_ATOL
    root_n = math.sqrt(len(y))
    t, f = 0.0, fun(y)
    # First step: two rhs calls, f at the seed and one Euler probe. Each
    # norm is the root mean square of the scaled components.
    scale = [atol + abs(a) * rtol for a in y]
    d0 = math.hypot(*[a / s for a, s in zip(y, scale)]) / root_n
    d1 = math.hypot(*[a / s for a, s in zip(f, scale)]) / root_n
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    f0 = fun([a + h0 * b for a, b in zip(y, f)])
    d2 = math.hypot(*[(a - b) / s for a, b, s in zip(f0, f, scale)]) / root_n / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_bound, max_step)
    nfev, ts, ys, g = 2, [t], [y], events(y)
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
            k2 = fun([yi + (1/5 * a) * h for yi, a in zip(y, f)])
            k3 = fun([yi + (3/40 * a + 9/40 * b) * h for yi, a, b in zip(y, f, k2)])
            k4 = fun([yi + (44/45 * a - 56/15 * b + 32/9 * c) * h
                      for yi, a, b, c in zip(y, f, k2, k3)])
            k5 = fun([yi + (19372/6561 * a - 25360/2187 * b + 64448/6561 * c
                            - 212/729 * d) * h
                      for yi, a, b, c, d in zip(y, f, k2, k3, k4)])
            k6 = fun([yi + (9017/3168 * a - 355/33 * b + 46732/5247 * c + 49/176 * d
                            - 5103/18656 * e) * h
                      for yi, a, b, c, d, e in zip(y, f, k2, k3, k4, k5)])
            y_new = [yi + h * (35/384 * a + 500/1113 * c + 125/192 * d
                               - 2187/6784 * e + 11/84 * g)
                     for yi, a, c, d, e, g in zip(y, f, k3, k4, k5, k6)]
            f_new = fun(y_new)
            nfev += 6
            err = math.hypot(*[
                (-71/57600 * a + 71/16695 * c - 71/1920 * d + 17253/339200 * e
                 - 22/525 * g + 1/40 * fn) * h / (atol + max(abs(yi), abs(yn)) * rtol)
                for yi, yn, a, c, d, e, g, fn in zip(y, y_new, f, k3, k4, k5, k6, f_new)
            ]) / root_n
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t_old, y_old, f_old, t, y, f = t, y, f, t_new, y_new, f_new
        g_new = events(y)
        crossed = [i for i, (old, new) in enumerate(zip(g, g_new))
                   if old <= 0 <= new or new <= 0 <= old]
        if crossed:
            K = (f_old, k2, k3, k4, k5, k6, f)
            Q = [[sum([k * p for k, p in zip(ks, col)]) for col in zip(*_DP_P)]
                 for ks in zip(*K)]

            def dense(s):
                x = (s - t_old) / h
                powers = (x, x * x, x * x * x, x * x * x * x)
                return [b + h * sum([q * p for q, p in zip(qs, powers)])
                        for b, qs in zip(y_old, Q)]

            t, hit = min((_bisect(lambda s: events(dense(s))[i], t_old, t), i)
                         for i in crossed)
            ts.append(t)
            ys.append(dense(t))
            return ts, ys, nfev, hit
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

    k grows at A1 v w^{-1} P1^{1/psi1} - q - delta_k, summed by the
    trapezoid rule on ln k from k0; h and c follow definitionally as
    h = k/z and c = q k.
    """
    if len(traj) == 0:
        raise ParameterError("trajectory is empty")
    if not (math.isfinite(k0) and k0 > 0.0):
        raise ParameterError(f"k0 must be positive and finite, got {k0}")
    delta_k = params.delta_k
    levels, acc, t_old, g_old = [], 0.0, None, None
    for t, (z, q, u, v) in zip(traj.time_rows, traj.state_rows):
        if not u:
            raise ParameterError(f"u must be nonzero, got {u}")
        w = v / u * z
        g = v / w * sector_rates(w, params)[4] - q - delta_k
        if t_old is not None:
            acc += (t - t_old) * (g + g_old) / 2.0
        k = k0 * math.exp(acc)
        levels.append((k, k / z, q * k))
        t_old, g_old = t, g
    return Trajectory(
        times=list(traj.time_rows),
        states=list(traj.state_rows),
        levels=levels,
        meta=dict(traj.meta),
    )
