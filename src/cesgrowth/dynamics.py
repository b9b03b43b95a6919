"""Saddle paths of the reduced system and their levels.

F = ln tau - ln tau0(w) is conserved, the balanced path lies on F = 0,
and w = (v/u) z follows w' = g(w) alone, so a path is integrated on
(w, z, q) with stability.plane_terms' rhs. Everything here runs on
Python floats; numpy is imported only when a Trajectory's array view is
read.
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
from .params import ModelParams
from .stability import _j2, allocations, classify, eigen4, g_curvature, jacobian_fd, plane_terms
# Only for the benchmark's tracer, which wraps it here (perfbench/spans.py).
from .stability import rhs_reduced_values  # noqa: F401
from .steady import steady_state

# Coordinate floor at which integration halts.
BOX_MARGIN = 1e-9
# Reverse-time integration: the stepper's rtol and atol, the seed's offset
# from the fixed point relative to |x*|, and the longest time it may travel.
SADDLE_RTOL = 1e-10
SADDLE_ATOL = 1e-13
SEED_SCALE = 1e-6
T_BUDGET = 500.0
# Stable-manifold expansion on the plane (_plane_manifold): its order, and
# the step in ln |s| between rows reported from it at |s| = |x*|.
MANIFOLD_ORDER = 6
MANIFOLD_ROW_STEP = 0.0756

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
_ROOT3 = math.sqrt(3.0)


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

    The path is integrated on (w, z, q) with plane_terms' rhs and reported
    as (z, q, u, v), u and v from allocations. Where tau0* < 1 it lies on
    the plane w = w*, and near x* it is the polynomial W of
    _plane_manifold, on which the flow is s(t) = s0 e^{lambda t} exactly.
    It starts at W(s0) (_seed), on the side (sign of s) where z moves
    toward z0, and is integrated in reversed time until z crosses z0; a z0
    that W already reaches is solved for on W. Where tau0* > 1 the stable
    root is lambda_w, and the path starts at x* + v s_end, |s_end| =
    SEED_SCALE |x*|, w to second order; s is the linear coordinate along
    stable_eigenpair's unit vector. The stepper works on the distance
    from (w*, z*, q*) in units of SEED_SCALE |x*|, so that its tolerance
    is relative to that distance. The rows run forward in time: the
    stepped segment's, then W's at the exact times of s(t) until s =
    s_end. TargetNotReachedError where w, z, q, u or v falls to BOX_MARGIN
    or the travel budget runs out.

    meta records "steps", the stepped segment's rows, seed included
    (accepted steps + 1; 0 when nothing was integrated), "nfev",
    "event_evals", the evaluations of the search that placed z0 (on W or
    on a step; 0 at x*), the expansion's "order" (1 for the linear seed,
    2 off the plane), seed "s0" and "seed_defect" (None where not
    computed), "setup_nfev", the rhs evaluations of the seed's gate,
    "stable_eigenvalue" and "t_stop", the time of the last row.
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
            meta={"steps": 0, "nfev": 0, "event_evals": 0,
                  "stop_reason": "at_steady_state", "t_stop": 0.0},
        )

    lam, (dw, dz, dq, _, _), terms = stable_eigenpair(ss, params, eigen4(ss, params))
    a, b, c, e, _, tau0 = terms
    plane, rate, w_star, z_star, q_star = tau0 < 1.0, lam.real, ss.w_star, ss.z_star, ss.q_star
    scale = math.hypot(*x_star)
    # Orient s so that z initially moves toward z0.
    s_end = math.copysign(SEED_SCALE * scale, dz * (z0 - z_star))
    # S1 and S2 are powers of w, so tau0(w) = tau0* (w/w*)^power.
    power = params.rate_terms[3] - params.rate_terms[8]

    def reduced(x, z, q):  # x = w - w*
        w = w_star + x
        return (z, q, *allocations(tau0 * (w / w_star) ** power, w, z))

    def events(x):
        z, q, u, v = reduced(*x)
        return z - z0, min(w_star + x[0], z, q, u, v) - BOX_MARGIN

    # The stepper works on y = (w - w*, z - z*, q - q*) / unit, the
    # distance from x* in units of the seed's: its step control then
    # resolves the motion relative to that distance, which sets the clock.
    unit, still = abs(s_end), (a, b, c, e, 0.0, tau0)

    def located(y):
        return unit * y[0], z_star + unit * y[1], q_star + unit * y[2]

    def fun(y0, y1, y2):
        # Reversed time; on the plane w stays at w*.
        a, b, c, e, g, _ = still if plane else plane_terms(w_star + unit * y0, params)
        z, q = z_star + unit * y1, q_star + unit * y2
        return -g / unit, ((b * z + a + q) * z + c) / unit, q * (e - q - c / z) / unit

    if plane:
        coeffs = _plane_manifold(terms, z_star, q_star, rate, dz, dq)
        seed, setup_nfev = _seed(terms, coeffs, rate, s_end, scale, events)
        if seed is None:  # the linear seed
            coeffs = coeffs[:2]
    else:
        # w moves on its own, w' = g(w), so the clock is w's: the seed's w
        # is W's to second order, g(W(s)) = lambda s W'(s), with g''(w*) in
        # closed form. (z, q) off W by O(s^2) decays in reversed time.
        w2 = g_curvature(w_star, sector_rates(w_star, params), params) * dw * dw / (2.0 * rate)
        coeffs = [(0.0, z_star, q_star), (dw, dz, dq), (w2, 0.0, 0.0)]
        seed, setup_nfev = None, 0
    s0, defect, rows = seed or (s_end, None, [(0.0, _horner(coeffs, s_end))])
    meta = {"order": len(coeffs) - 1, "seed_defect": defect, "setup_nfev": setup_nfev,
            "stable_eigenvalue": lam}
    if (rows[0][1][1] - z0) * (ss.z_star - z0) < 0.0:
        # z0 lies between z* and W(s0): find it on W and integrate nothing.
        s0, evals = _illinois(lambda s: _horner(coeffs, s)[1] - z0, min(0.0, s0), max(0.0, s0))
        rows = _manifold_rows(coeffs, rate, s0, s_end, scale)
        ts, ys, nfev = [0.0], [rows[0][1]], 0
    else:
        # Near the seed derivatives are small, so the first-step heuristic
        # would overshoot without a step cap.
        ts, ys, nfev, hit, evals = _dormand_prince(
            fun, [(x - o) / unit for x, o in zip(rows[0][1], (0.0, z_star, q_star))],
            min(1.0, 0.5 / abs(rate)), lambda y: events(located(y)))
        ys = [located(y) for y in ys]
        if hit != 0:
            reason = {1: "hit a coordinate floor", None: "travel budget exhausted"}[hit]
            raise TargetNotReachedError(f"z never crossed {z0} ({reason}; "
                                        f"final z = {ys[-1][1]:g})")
    # Forward time: t = 0 at z0, the stepper's steps reversed, then W.
    t_seed = ts[-1]
    times = [t_seed - t for t in reversed(ts)] + [t_seed + t for t, _ in rows[1:]]
    states = [reduced(*y) for y in ys[::-1]] + [reduced(*x) for _, x in rows[1:]]
    meta.update(steps=len(ts) if nfev else 0, nfev=nfev, event_evals=evals, s0=s0,
                stop_reason="target_reached", t_stop=times[-1])
    return Trajectory(times=times, states=states, meta=meta)


def stable_eigenpair(ss, params: ModelParams, eigenvalues) -> tuple:
    """(lambda, (dw, dz, dq, du, dv), terms): the stable eigenvalue of the
    balanced path ss, from its spectrum eigenvalues as eigen4 gives it, its
    eigenvector, of either sign, unit in (dz, dq, du, dv) (the 4-D one),
    dw its w = (v/u) z component, and the plane_terms at w* it came from.

    There is one where classify counts a stable root, the eigenvalue of
    least real part. Where tau0* < 1 it is J2's, and (dz, dq) = (1,
    (lambda - j11)/j12) on the plane w = w*. Where tau0* > 1 it is
    lambda_w, and (dw, dz, dq) = (1, dz, dq) with (J2 - lambda I)(dz, dq) =
    -d(z', q')/dw at fixed (z, q): jacobian_fd's rows z', q' in u, v times
    the allocations' slopes at fixed z, w du/dw = (r (p - 1) d - (r - 1) p
    tau0)/d^2 and w dv/dw = ((p tau0 - w/z) d - (tau0 - w/z) p tau0)/d^2,
    tau0 ~ w^p, p = psi1 - e, d = tau0 - 1, r = tau0 z/w. On both halves
    du/dz = tau0/(d w) and dv/dz = w/(d z^2).
    """
    if not classify(eigenvalues)[0]:
        raise NoRealStableEigenvectorError(
            f"no stable eigenvalue: real parts {[x.real for x in eigenvalues]}"
        )
    lam = eigenvalues[0]
    if lam != lam.real:
        raise NoRealStableEigenvectorError(
            f"stable eigenvector is complex (eigenvalue {lam})"
        )
    terms = plane_terms(ss.w_star, params)
    rate, w, z, q, tau0 = lam.real, ss.w_star, ss.z_star, ss.q_star, terms[5]
    (j11, j12, j21, j22), d = _j2(terms, z, q), tau0 - 1.0
    if tau0 < 1.0:
        dw, dz, dq, uw, vw = 0.0, 1.0, (rate - j11) / j12, 0.0, 0.0
    else:
        p, r = params.rate_terms[3] - params.rate_terms[8], tau0 * z / w
        uw = (r * (p - 1.0) * d - (r - 1.0) * p * tau0) / (d * d * w)
        vw = ((p * tau0 - w / z) * d - (tau0 - w / z) * p * tau0) / (d * d * w)
        (_, _, zu, zv), (_, _, qu, qv), *_ = jacobian_fd(z, q, ss.u_star, ss.v_star, params)
        fz, fq = zu * uw + zv * vw, qu * uw + qv * vw
        d11, d22 = j11 - rate, j22 - rate
        det = d11 * d22 - j12 * j21
        dw, dz, dq = 1.0, (j12 * fq - d22 * fz) / det, (j21 * fz - d11 * fq) / det
    du, dv = uw * dw + tau0 / (d * w) * dz, vw * dw + w / (d * z * z) * dz
    norm = math.hypot(dz, dq, du, dv)
    return lam, (dw / norm, dz / norm, dq / norm, du / norm, dv / norm), terms


def _plane_manifold(terms, z, q, rate, dz, dq) -> list:
    """[(0, z, q), (0, dz, dq), (0, Z_2, Q_2), ..., (0, Z_K, Q_K)],
    K = MANIFOLD_ORDER: the Taylor coefficients of the stable manifold
    W(s) on the plane w = w*, with (z', q')(W(s)) = lambda s W'(s), on
    which the flow is s(t) = s0 e^{lambda t}: the parameterization method
    of Cabre, Fontich & de la Llave (2003), Indiana Univ. Math. J. 52.

    The rhs is taken in rate form, z' = z Pz and q' = q Pq with
    Pz = -(b z + a + q + c/z) and Pq = q - e + c/z, whose constant terms
    vanish at x*. 1/Z comes by series division and Z Pz, Q Pq as Cauchy
    products, so order k is the 2x2 system (J2 - k lambda I)(Z_k, Q_k) =
    -(the part of [z', q']_k from lower orders), solved by Cramer's rule.
    """
    _, b, c, *_ = terms
    j11, j12, j21, j22 = _j2(terms, z, q)
    r1 = -dz / (z * z)
    zs, qs, rs = [z, dz], [q, dq], [1.0 / z, r1]
    pz, pq = [0.0, -(b * dz + dq + c * r1)], [0.0, dq + c * r1]
    for k in range(2, MANIFOLD_ORDER + 1):
        r = -sum([zs[j] * rs[k - j] for j in range(1, k)]) / z
        fz = sum([zs[j] * pz[k - j] for j in range(1, k)]) - z * c * r
        fq = sum([qs[j] * pq[k - j] for j in range(1, k)]) + q * c * r
        d11, d22 = j11 - k * rate, j22 - k * rate
        det = d11 * d22 - j12 * j21
        zk, qk = (j12 * fq - d22 * fz) / det, (j21 * fz - d11 * fq) / det
        rk = r - zk / (z * z)
        zs.append(zk)
        qs.append(qk)
        rs.append(rk)
        pz.append(-(b * zk + qk + c * rk))
        pq.append(qk + c * rk)
    return [(0.0, zk, qk) for zk, qk in zip(zs, qs)]


def _horner(coeffs, s):
    """W(s) = sum_k coeffs[k] s^k, each coefficient a triple in
    (w - w*, z, q)."""
    w, z, q = coeffs[-1]
    for cw, cz, cq in coeffs[-2::-1]:
        w, z, q = w * s + cw, z * s + cz, q * s + cq
    return w, z, q


def _defect(terms, coeffs, rate, s):
    """Invariance defect of W at s, to be compared with SADDLE_RTOL.

    E = rhs(W(s)) - lambda s W'(s) vanishes on the exact manifold, and
    |E| / |lambda| bounds W's distance from it, as J2 - k lambda I has no
    eigenvalue smaller than |lambda|. That distance is the RMS over the
    three components of (w, z, q) (w's is 0) of its share of SADDLE_ATOL
    + SADDLE_RTOL |W_i|, returned times SADDLE_RTOL.
    """
    a, b, c, e, *_ = terms
    _, z, q = _horner(coeffs, s)
    _, dz, dq = _horner([[k * x for x in cf] for k, cf in enumerate(coeffs)][1:], s)
    fz = -((b * z + a + q) * z + c)
    fq = q * (q - e + c / z)
    return SADDLE_RTOL * math.hypot(
        (fz - rate * s * dz) / rate / (SADDLE_ATOL + SADDLE_RTOL * abs(z)),
        (fq - rate * s * dq) / rate / (SADDLE_ATOL + SADDLE_RTOL * abs(q))) / _ROOT3


def _seed(terms, coeffs, rate, s_end, scale, events):
    """((s0, defect at s0, rows), rhs evaluations) of the seed on W, on
    s_end's side; None in place of the triple where no seed passes.

    s0 starts where the last term, |a_K| |s|^K, is SADDLE_RTOL |x*|
    (scale), and halves until _defect at both s0 and -s0 is at most
    SADDLE_RTOL and W clears the coordinate floor at every row reported
    from s0 (_manifold_rows). The decay alone is no gate: past the radius
    of convergence the terms still fall while their sum is wrong. The
    search gives up when |s0| falls to |s_end|.
    """
    k = len(coeffs) - 1
    s0 = math.copysign((SADDLE_RTOL * scale / math.hypot(*coeffs[k])) ** (1.0 / k), s_end)
    calls = 0
    while abs(s0) > abs(s_end):
        calls += 1
        defect = _defect(terms, coeffs, rate, s0)
        if defect <= SADDLE_RTOL:
            calls += 1
            if _defect(terms, coeffs, rate, -s0) <= SADDLE_RTOL:
                rows = _manifold_rows(coeffs, rate, s0, s_end, scale)
                if all(events(x)[1] > 0.0 for _, x in rows):
                    return (s0, defect, rows), calls
        s0 *= 0.5
    return None, calls


def _manifold_rows(coeffs, rate, s0, s_end, scale):
    """(t, W(s)) at s0 (t = 0) and at the rows reported from W after it, at
    the exact times of s(t) = s0 e^{lambda t}, the last row at s_end.

    They are spaced as a fifth-order step control at a fixed local error
    would space them, for an error proportional to |s|: the step in
    ln |s| is MANIFOLD_ROW_STEP (|x*| / |s|)^(1/5), |x*| = scale, wherever
    the seed lies.
    """
    first, end = MANIFOLD_ROW_STEP * (scale / abs(s0)) ** 0.2, math.log(s0 / s_end)
    rows, tau = [(0.0, s0)], first
    while tau < end:
        rows.append((tau / -rate, s0 * math.exp(-tau)))
        tau += first * math.exp(0.2 * tau)
    if end > 0.0:
        rows.append((end / -rate, s_end))
    return [(t, _horner(coeffs, s)) for t, s in rows]


def _dormand_prince(fun, y, max_step, events):
    """Integrate y' = fun(y) from t = 0 until T_BUDGET or a terminal event.

    y is a sequence of three floats, and fun(*y) returns three. Dormand &
    Prince 5(4) with the step control of Hairer, Norsett & Wanner (Solving
    ODEs I, sec. II.4), the common RK45, at rtol SADDLE_RTOL and atol
    SADDLE_ATOL. Each stage is written out for the three components, with
    the pair's coefficients, so a step calls fun and events and nothing
    else. After each accepted step, a component of events(y), which gives
    two values, that changes sign is located to one ulp of t by _illinois
    on the step's dense output, in about 7 evaluations; the earliest
    crossing ends the path. Returns (times, states, nfev, hit, evals), hit
    the event met or None, evals the searches' evaluations.
    """
    t_bound, rtol, atol = float(T_BUDGET), SADDLE_RTOL, SADDLE_ATOL
    t, (x, z, q) = 0.0, y
    fx, fz, fq = f = fun(x, z, q)
    # First step: two rhs calls, f at the seed and one Euler probe. Each
    # norm is the root mean square of the three scaled components.
    sx, sz, sq = atol + abs(x) * rtol, atol + abs(z) * rtol, atol + abs(q) * rtol
    d0 = math.hypot(x / sx, z / sz, q / sq) / _ROOT3
    d1 = math.hypot(fx / sx, fz / sz, fq / sq) / _ROOT3
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    ax, az, aq = fun(x + h0 * fx, z + h0 * fz, q + h0 * fq)
    d2 = math.hypot((ax - fx) / sx, (az - fz) / sz, (aq - fq) / sq) / _ROOT3 / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_bound, max_step)
    nfev, ts, ys = 2, [t], [y]
    old0, old1 = events(y)
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
            bx, bz, bq = k2 = fun(x + (1/5 * fx) * h, z + (1/5 * fz) * h, q + (1/5 * fq) * h)
            cx, cz, cq = k3 = fun(x + (3/40 * fx + 9/40 * bx) * h,
                                  z + (3/40 * fz + 9/40 * bz) * h,
                                  q + (3/40 * fq + 9/40 * bq) * h)
            dx, dz, dq = k4 = fun(x + (44/45 * fx - 56/15 * bx + 32/9 * cx) * h,
                                  z + (44/45 * fz - 56/15 * bz + 32/9 * cz) * h,
                                  q + (44/45 * fq - 56/15 * bq + 32/9 * cq) * h)
            ex, ez, eq = k5 = fun(
                x + (19372/6561 * fx - 25360/2187 * bx + 64448/6561 * cx - 212/729 * dx) * h,
                z + (19372/6561 * fz - 25360/2187 * bz + 64448/6561 * cz - 212/729 * dz) * h,
                q + (19372/6561 * fq - 25360/2187 * bq + 64448/6561 * cq - 212/729 * dq) * h)
            gx, gz, gq = k6 = fun(
                x + (9017/3168 * fx - 355/33 * bx + 46732/5247 * cx + 49/176 * dx
                     - 5103/18656 * ex) * h,
                z + (9017/3168 * fz - 355/33 * bz + 46732/5247 * cz + 49/176 * dz
                     - 5103/18656 * ez) * h,
                q + (9017/3168 * fq - 355/33 * bq + 46732/5247 * cq + 49/176 * dq
                     - 5103/18656 * eq) * h)
            xn = x + h * (35/384 * fx + 500/1113 * cx + 125/192 * dx - 2187/6784 * ex
                          + 11/84 * gx)
            zn = z + h * (35/384 * fz + 500/1113 * cz + 125/192 * dz - 2187/6784 * ez
                          + 11/84 * gz)
            qn = q + h * (35/384 * fq + 500/1113 * cq + 125/192 * dq - 2187/6784 * eq
                          + 11/84 * gq)
            f_new = nx, nz, nq = fun(xn, zn, qn)
            nfev += 6
            err = math.hypot(
                (-71/57600 * fx + 71/16695 * cx - 71/1920 * dx + 17253/339200 * ex
                 - 22/525 * gx + 1/40 * nx) * h / (atol + max(abs(x), abs(xn)) * rtol),
                (-71/57600 * fz + 71/16695 * cz - 71/1920 * dz + 17253/339200 * ez
                 - 22/525 * gz + 1/40 * nz) * h / (atol + max(abs(z), abs(zn)) * rtol),
                (-71/57600 * fq + 71/16695 * cq - 71/1920 * dq + 17253/339200 * eq
                 - 22/525 * gq + 1/40 * nq) * h / (atol + max(abs(q), abs(qn)) * rtol),
            ) / _ROOT3
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t_old, y_old, f_old, t, f = t, y, f, t_new, f_new
        x, z, q, fx, fz, fq = xn, zn, qn, nx, nz, nq
        y = [x, z, q]
        new0, new1 = events(y)
        sign_change = (old0 <= 0 <= new0 or new0 <= 0 <= old0,
                       old1 <= 0 <= new1 or new1 <= 0 <= old1)
        if True in sign_change:
            crossed = [i for i, c in enumerate(sign_change) if c]
            K = (f_old, k2, k3, k4, k5, k6, f)
            Q = [[sum([k * p for k, p in zip(ks, col)]) for col in zip(*_DP_P)]
                 for ks in zip(*K)]

            def dense(s):
                r = (s - t_old) / h
                powers = (r, r * r, r * r * r, r * r * r * r)
                return [b + h * sum([q * p for q, p in zip(qs, powers)])
                        for b, qs in zip(y_old, Q)]

            found = [_illinois(lambda s: events(dense(s))[i], t_old, t) for i in crossed]
            t, hit = min((t, i) for (t, _), i in zip(found, crossed))
            ts.append(t)
            ys.append(dense(t))
            return ts, ys, nfev, hit, sum(n for _, n in found)
        ts.append(t)
        ys.append(y)
        old0, old1 = new0, new1
    return ts, ys, nfev, None, 0


def _illinois(g, lo, hi):
    """(zero of g, evaluations of g) for g that changes sign or vanishes on
    [lo, hi]: Illinois regula falsi (Dowell & Jarratt 1971, BIT 11), its
    secant point kept one float inside the bracket. Where g has one sign at
    both ends, or the bracket is wider than bisection at half speed (one
    step behind) would leave it, it bisects, so no g costs much over twice
    bisection. It ends at adjacent floats or an exact zero, on the smaller |g|."""
    g_lo, g_hi = g(lo), g(hi)
    a, b, side, cap, n = g_lo, g_hi, 0, 2.0 * (hi - lo), 2
    while g_lo and g_hi:
        if (g_lo > 0) == (g_hi > 0) or hi - lo > cap:
            x = 0.5 * (lo + hi)
        else:
            x = min(math.nextafter(hi, lo),
                    max(math.nextafter(lo, hi), hi - b * ((hi - lo) / (b - a))))
        if not lo < x < hi:
            break
        g_x, n, cap = g(x), n + 1, cap * 0.5 ** 0.5
        # Illinois: an end kept twice in a row has its weight halved.
        if (g_x > 0) == (g_lo > 0):
            lo, g_lo, a, b, side = x, g_x, g_x, 0.5 * b if side < 0 else b, -1
        else:
            hi, g_hi, b, a, side = x, g_x, g_x, 0.5 * a if side > 0 else a, 1
    return (lo if abs(g_lo) < abs(g_hi) else hi), n


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
