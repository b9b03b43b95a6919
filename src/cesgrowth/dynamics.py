"""Saddle paths of the reduced system and their levels.

F = ln tau - ln tau0(w) is conserved, the balanced path lies on F = 0,
and w = (v/u) z follows w' = g(w) alone. Where tau0* < 1 the path lies on
the plane w = w*, where it is the hyperbola q = theta (1 + p/z) and is
written in closed form; elsewhere it is integrated on (w, z, q) with
stability.plane_terms' rhs. Everything here runs on Python floats; numpy
is imported only when a Trajectory's array view is read.
"""

import math
from functools import cached_property

from .core import consumption_growth, sector_rates
from .errors import ParameterError, StepSizeUnderflowError, TargetNotReachedError
from .params import ModelParams
from .stability import (_j2, allocations, eigen4, g_curvature, jacobian_fd, plane_terms,
                        shadow_price)
# Only for the benchmark's tracer, which wraps it here (perfbench/spans.py).
from .stability import rhs_reduced_values  # noqa: F401
from .steady import steady_state

# Coordinate floor at which a path halts.
BOX_MARGIN = 1e-9
# Reverse-time integration off the plane: the stepper's rtol and atol, the
# seed's offset from the fixed point relative to |x*|, at which every path's
# clock ends, and the longest time it may travel.
SADDLE_RTOL = 1e-10
SADDLE_ATOL = 1e-13
SEED_SCALE = 1e-6
T_BUDGET = 500.0
# The step in ln |s| between plane rows at |s| = |x*| (_plane_path).
ROW_STEP = 0.0756

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


def _array(rows, *shape):
    """rows as a float numpy array of the given shape, numpy imported here."""
    import numpy as np

    return np.array(rows, dtype=float).reshape(shape)


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
        return _array(self.time_rows, -1)

    @cached_property
    def states(self):
        return _array(self.state_rows, -1, 4)

    @cached_property
    def levels(self):
        return None if self.level_rows is None else _array(self.level_rows, -1, 3)


def saddle_path(params: ModelParams, z0: float) -> Trajectory:
    """Construct the stable-manifold trajectory reaching z = z0.

    The path is reported as (z, q, u, v), u and v from allocations, its
    rows forward in time from z0 (t = 0) to |s| = SEED_SCALE |x*|, s the
    coordinate along stable_eigenpair's unit vector. Where tau0* < 1 it lies
    on the plane w = w*, where it is exact and is built in closed form from
    any z0 > 0 (_plane_path): consumption is the transversality margin
    theta times wealth, q = theta (1 + p/z). Where tau0* > 1 the stable root
    is lambda_w, and the path is integrated in reversed time on (w, z, q)
    with plane_terms' rhs from x* + v s_end, w to second order, on the side
    (sign of s) where z moves toward z0, until z crosses z0.
    TargetNotReachedError where w, z, q, u or v falls to BOX_MARGIN, at a
    row or on a step, or the travel budget runs out.

    meta records "steps", the stepped rows, seed included, "nfev" and
    "event_evals", the evaluations of the search that placed z0 on a step
    (all three 0 on the plane, where nothing is stepped or searched for),
    "plane" (tau0* < 1), "stable_eigenvalue", "stop_reason"
    ("target_reached") and "t_stop". A z0 within 1e-12 max(1, z*) of z*
    gives x* alone, at t = 0, with "stop_reason" "at_steady_state".
    """
    if not (math.isfinite(z0) and z0 > 0.0):
        raise ParameterError(f"z0 must be positive and finite, got {z0}")
    z0 = float(z0)
    ss = steady_state(params)
    x_star = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    meta = {"steps": 0, "nfev": 0, "event_evals": 0, "plane": ss.tau0 < 1.0}
    if abs(z0 - ss.z_star) <= 1e-12 * max(1.0, ss.z_star):
        meta.update(stop_reason="at_steady_state", t_stop=0.0)
        return Trajectory(times=[0.0], states=[x_star], meta=meta)

    rates = sector_rates(ss.w_star, params)
    terms = plane_terms(ss.w_star, params, rates)
    spectrum = eigen4(ss, params, rates, terms)
    lam, (dw, dz, dq, *duv), _ = stable_eigenpair(ss, params, spectrum, terms)
    scale = math.hypot(*x_star)
    meta.update(stable_eigenvalue=lam, stop_reason="target_reached")

    def stopped(reason, z):
        raise TargetNotReachedError(f"z never crossed {z0} ({reason}; final z = {z:g})")

    if meta["plane"]:
        times, states, low = _plane_path(ss, terms, rates, (dz, *duv), z0, scale)
        if low is not None:
            stopped("hit a coordinate floor", low)
        meta["t_stop"] = times[-1]
        return Trajectory(times=times, states=states, meta=meta)

    rate, w_star, z_star, q_star, tau0 = lam.real, ss.w_star, ss.z_star, ss.q_star, terms[5]
    # Orient s so that z initially moves toward z0.
    s_end = math.copysign(SEED_SCALE * scale, dz * (z0 - z_star))
    law = (w_star, tau0, params.rate_terms[3] - params.rate_terms[8])

    def events(x):
        z, q, u, v = _reduced(law, *x)
        return z - z0, min(w_star + x[0], z, q, u, v) - BOX_MARGIN

    # The stepper works on y = (w - w*, z - z*, q - q*) / unit, the
    # distance from x* in units of the seed's: its step control then
    # resolves the motion relative to that distance, which sets the clock.
    unit = abs(s_end)

    def located(y):
        return unit * y[0], z_star + unit * y[1], q_star + unit * y[2]

    def fun(y0, y1, y2):  # reversed time
        a, b, c, e, g, _ = plane_terms(w_star + unit * y0, params)
        z, q = z_star + unit * y1, q_star + unit * y2
        return -g / unit, ((b * z + a + q) * z + c) / unit, q * (e - q - c / z) / unit

    # w moves on its own, w' = g(w), so the clock is w's: the seed's w is
    # W's to second order, g(W(s)) = lambda s W'(s), with g''(w*) in
    # closed form. (z, q) off W by O(s^2) decays in reversed time.
    w2 = g_curvature(w_star, rates, params) * dw * dw / (2.0 * rate)
    seed = _horner([(0.0, z_star, q_star), (dw, dz, dq), (w2, 0.0, 0.0)], s_end)
    if events(seed)[1] <= 0.0:
        stopped("hit a coordinate floor", seed[1])
    # Every step, the first included, is capped at the path's own time
    # scale: half the stable root's time constant 1/|lambda|, at most 1.
    ts, ys, nfev, hit, evals = _dormand_prince(
        fun, [(x - o) / unit for x, o in zip(seed, (0.0, z_star, q_star))],
        min(1.0, 0.5 / abs(rate)), lambda y: events(located(y)))
    ys = [located(y) for y in ys]
    if hit != 0:
        reason = {1: "hit a coordinate floor", None: "travel budget exhausted"}[hit]
        stopped(reason, ys[-1][1])
    # Forward time: t = 0 at z0, the stepper's steps reversed.
    times = [ts[-1] - t for t in reversed(ts)]
    meta.update(steps=len(ts), nfev=nfev, event_evals=evals, t_stop=times[-1])
    return Trajectory(times=times, states=[_reduced(law, *y) for y in ys[::-1]], meta=meta)


def stable_eigenpair(ss, params: ModelParams, eigenvalues, terms=None) -> tuple:
    """(lambda, (dw, dz, dq, du, dv), terms): the stable eigenvalue of the
    balanced path ss, from its spectrum eigenvalues as eigen4 gives it, its
    eigenvector, of either sign, unit in (dz, dq, du, dv) (the 4-D one),
    dw its w = (v/u) z component, and the plane_terms at w*, terms if given.

    It is the eigenvalue of least real part, real and negative on every
    balanced path (eigen4). Where tau0* < 1 it is J2's lambda_J, and
    (dz, dq) = (1, (lambda - j11)/j12) on the plane w = w*. Where tau0* > 1
    it is lambda_w, and (dw, dz, dq) = (1, dz, dq) with (J2 - lambda I)(dz,
    dq) = -d(z', q')/dw at fixed (z, q): jacobian_fd's rows z', q' in u, v
    times the allocations' slopes at fixed z, w du/dw = (r (p - 1) d - (r -
    1) p tau0)/d^2 and w dv/dw = ((p tau0 - w/z) d - (tau0 - w/z) p
    tau0)/d^2, tau0 ~ w^p, p = psi1 - e, d = tau0 - 1, r = tau0 z/w. On
    both halves du/dz = tau0/(d w) and dv/dz = w/(d z^2).
    """
    lam = eigenvalues[0]
    terms = terms or plane_terms(ss.w_star, params)
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


def _reduced(law, x, z, q):
    """(z, q, u, v) at (w - w*, z, q) = (x, z, q), u and v from allocations;
    law = (w*, tau0*, p): S1 and S2 are powers of w, so tau0 = tau0* (w/w*)^p."""
    w_star, tau0, power = law
    w = w_star + x
    return (z, q, *allocations(tau0 * (w / w_star) ** power, w, z))


def _horner(coeffs, s):
    """W(s) = sum_k coeffs[k] s^k, each coefficient a triple in
    (w - w*, z, q)."""
    w, z, q = coeffs[-1]
    for cw, cz, cq in coeffs[-2::-1]:
        w, z, q = w * s + cw, z * s + cz, q * s + cq
    return w, z, q


def _plane_path(ss, terms, rates, dzuv, z0, scale):
    """(times, states, low): the rows (z, q, u, v) of the path to z0 on the
    plane w = w*, where tau0* < 1, in closed form, and the z of the last
    row where one of them is at most BOX_MARGIN (else None).

    There z' = -(b z^2 + (a + q) z + c) and q' = q (q - e + c/z)
    (plane_terms), and the stable manifold is the hyperbola q = theta (1 +
    p/z), theta = ss.tvc_margin, p = (Y1 - w* MPK)/MPH: consumption c = q k
    is theta times wealth k + p h at constant prices. On it z' = -b (z -
    z*)(z + p), so y = (z - z*)/(z + p) = y0 e^{lambda t}, lambda = -b (z*
    + p), and 1/(z + p) moves linearly in e^{lambda t}; u and v come from
    allocations at (tau0*, w*, z). s = kappa y, kappa = (z* + p)/dz, dzuv =
    (dz, du, dv) from the unit eigenvector; the last row is at |s| =
    SEED_SCALE |x*|, |x*| = scale.

    The rows are spaced in tau = ln(s0/s) as a fifth-order step control
    would space them: for the linear part, an error ~ |s|, by ROW_STEP
    (|x*| / |s|)^(1/5), capped where the Taylor term h^5 N/5! of the higher
    orders' fifth derivative in tau reaches SADDLE_RTOL |x*|. As z - z* =
    (z* + p) sum_{k>=1} y^k and q = q* sum_{k>=0} (r y)^k, r = -p/z*, N =
    ((z* + p) _li5_tail(y), q* _li5_tail(r y)), z's part weighed with u and
    v by dzuv. The cap is taken at the first row and grows as e^{2 tau/5},
    as if N fell as s^2: above z* (y > 0) it falls at least that fast,
    below z* its z part over y^2 rises toward 32 (z* + p) as y -> 0. Near a
    pole of N, y = 1 or r y = 1 (z0 far above z*, or near 0), N falls far
    faster, and the cap from the first row alone would ask for billions of
    rows: where the grown cap is below a tenth of the linear part's step,
    the cap at the row itself is taken where larger.
    """
    w_star, z_star, theta, (_, b, *_, tau0) = ss.w_star, ss.z_star, ss.tvc_margin, terms
    p = shadow_price(w_star, rates)
    # -lambda, the stable root's decay rate.
    decay, d0, d_star = b * (z_star + p), 1.0 / (z0 + p), 1.0 / (z_star + p)
    y0, r, weight = (z0 - z_star) * d0, -p / z_star, (z_star + p) * math.hypot(*dzuv) / dzuv[0]
    s0 = (z_star + p) / dzuv[0] * y0
    end = math.log(abs(s0) / (SEED_SCALE * scale))
    first, bound = ROW_STEP * (scale / abs(s0)) ** 0.2, 120.0 * SADDLE_RTOL * scale
    # The cap in use is cap e^{2 tau/5}: cap is its value carried back to tau = 0.
    tau, cap, z, times, states, low = 0.0, 0.0, z0, [], [], None
    while True:
        q = theta * (1.0 + p / z)
        u, v = allocations(tau0, w_star, z)
        if z <= BOX_MARGIN or q <= BOX_MARGIN or u <= BOX_MARGIN or v <= BOX_MARGIN:
            low = z
        times.append(tau / decay)
        states.append((z, q, u, v))
        if tau >= end:
            return times, states, low
        grow = math.exp(0.2 * tau)
        step, grown = first * grow, cap * grow * grow
        if grown < 0.1 * step:
            y = y0 * math.exp(-tau)
            grown = max(grown, (bound / math.hypot(
                weight * _li5_tail(y), ss.q_star * _li5_tail(r * y))) ** 0.2)
            cap = grown / (grow * grow)
        tau += step if step < grown else grown
        if tau > end:
            tau = end
        z = 1.0 / (d0 + (d0 - d_star) * math.expm1(-tau)) - p


def _li5_tail(x):
    """sum_{k>=2} k^5 x^k, (x d/dx)^5 of 1/(1 - x) less its linear term, as
    the rational function Li_{-5}(x) - x, exact wherever x != 1."""
    return x * x * (32.0 + x * (51.0 + x * (46.0 + x * (x * (6.0 - x) - 14.0)))) / (1.0 - x) ** 6


def _dormand_prince(fun, y, max_step, events):
    """Integrate y' = fun(y) from t = 0 until T_BUDGET or a terminal event.

    y is a sequence of three floats, and fun(*y) returns three. Dormand &
    Prince 5(4) with the step control of Hairer, Norsett & Wanner (Solving
    ODEs I, sec. II.4), the common RK45, at rtol SADDLE_RTOL and atol
    SADDLE_ATOL. The first step is max_step (at most T_BUDGET), the
    caller's time scale, after one call of fun: no starting-step estimate
    is made, and a first step that fails the error test shrinks as any
    other. Each stage is written out for the three components, with the
    pair's coefficients, so a step calls fun and events and nothing
    else. After each accepted step, a component of events(y), which gives
    two values, that changes sign is located to one ulp of t by _illinois
    on the step's dense output, in about 7 evaluations; the earliest
    crossing ends the path. Returns (times, states, nfev, hit, evals), hit
    the event met or None, evals the searches' evaluations.
    """
    t_bound, rtol, atol = float(T_BUDGET), SADDLE_RTOL, SADDLE_ATOL
    t, (x, z, q) = 0.0, y
    fx, fz, fq = f = fun(x, z, q)
    h_abs, nfev, ts, ys = min(t_bound, max_step), 1, [t], [y]
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


def reconstruct_levels(traj: Trajectory, k0: float, params: ModelParams) -> Trajectory:
    """Levels (k, h, c) along a stored reduced path, k = k0 at its first row.

    Consumption c = q k grows at the Keynes-Ramsey rate r(w) =
    core.consumption_growth(MPK(w)), w = (v/u) z, summed by the trapezoid
    rule on ln c, so k = k0 e^{int r} q0/q; h = k/z and c = q k. On the
    plane w = w* (meta "plane") r = r* at every row, from one kernel call,
    so ln k = ln k0 + r* (t - t0) - ln(q/q0), t0 the first row's time.
    """
    if len(traj) == 0:
        raise ParameterError("trajectory is empty")
    if not (math.isfinite(k0) and k0 > 0.0):
        raise ParameterError(f"k0 must be positive and finite, got {k0}")
    levels, acc, plane, q0 = [], 0.0, traj.meta.get("plane"), traj.state_rows[0][1]
    for t, (z, q, u, v) in zip(traj.time_rows, traj.state_rows):
        if not u:
            raise ParameterError(f"u must be nonzero, got {u}")
        if not q:
            raise ParameterError(f"q must be nonzero, got {q}")
        if plane and levels:
            acc = r * (t - traj.time_rows[0])
        else:
            r = consumption_growth(sector_rates(v / u * z, params)[5], params)
            acc += (t - t_old) * (r + r_old) / 2.0 if levels else 0.0
        k = k0 * math.exp(acc) * (q0 / q)
        levels.append((k, k / z, q * k))
        t_old, r_old = t, r
    return Trajectory(times=list(traj.time_rows), states=list(traj.state_rows), levels=levels,
                      meta=dict(traj.meta))
