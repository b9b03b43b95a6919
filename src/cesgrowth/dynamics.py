"""Stable-manifold trajectories of the reduced system and their levels.

Everything here runs on Python floats, and on complex numbers where the
manifold's expansion samples the rhs on a circle; numpy is imported only
when a Trajectory's array view is read.
"""

import cmath
import math
from functools import cached_property

from .core import sector_rates
from .errors import (
    NoRealStableEigenvectorError,
    ParameterError,
    SingularStateError,
    StepSizeUnderflowError,
    TargetNotReachedError,
)
from .params import ModelParams
from .stability import classify, eigen4, jacobian_fd, rhs_reduced_values
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
# Stable-manifold expansion (_stable_manifold): its order, the samples on
# each circle, the first circle's radius relative to |x*|, and the largest
# ratio of |s| between neighbouring rows reported from it.
MANIFOLD_ORDER = 6
MANIFOLD_SAMPLES = 8
MANIFOLD_RADIUS = 1e-2
MANIFOLD_ROW_RATIO = 0.8

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

    Near x* the manifold is the polynomial W of _stable_manifold, on which
    the flow is s(t) = s0 e^{lambda t} exactly. The path starts at W(s0),
    on the side (sign of s) where z moves toward z0, and is integrated in
    reversed time until z crosses z0; a z0 that W already reaches is
    solved for on W and nothing is integrated. The path is reported in
    forward-time order: the stepped segment's rows, one per accepted step
    and the seed, then rows of W at the exact times of s(t) until |s| =
    SEED_SCALE |x*|.

    A z0 past the corner u = v = 1 (_past_corner), or an expansion that
    fails its checks, starts the path at the linear seed x* + v_s s_end
    instead, with no rows from W.

    meta records "steps", the stepped segment's rows, seed included
    (accepted steps + 1; 0 when nothing was integrated), and "nfev",
    "event_evals", the evaluations of the search that placed z0 (on W or
    on a step; 0 at x*), the expansion's "order" (1 for the linear seed),
    circle "radius", seed "s0" and "seed_defect" (None where not
    computed), the rhs calls "setup_nfev" of the Jacobian, the expansion
    and its gate (not eigen4's two), and "t_stop", the time of the last
    row.
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

    jac = jacobian_fd(*x_star, params)
    lam, v_s = stable_eigenpair(jac, eigen4(ss, params))
    # Orient s so that z initially moves toward z0.
    sign = 1.0 if (v_s[0] > 0.0) == (z0 > ss.z_star) else -1.0
    scale = math.hypot(*x_star)
    s_end = sign * SEED_SCALE * scale

    def events(x):
        z, q, u, v = x
        return [z - z0, min(z, q, u, v) - BOX_MARGIN, abs(u - v) - UV_EVENT_GAP]

    rate = lam.real
    coeffs, radius, setup_nfev, seed = None, None, 0, None
    if not _past_corner(x_star, v_s, s_end, z0):
        coeffs, radius, setup_nfev = _stable_manifold(params, x_star, jac, rate, v_s, scale)
    if coeffs is not None:
        seed, calls = _seed(params, coeffs, rate, s_end, events)
        setup_nfev += calls
    if seed is None:  # the linear seed
        coeffs = [x_star, v_s]
        seed = s_end, None, [(0.0, _horner(coeffs, s_end))]
    s0, defect, rows = seed
    meta = {"order": len(coeffs) - 1, "radius": radius, "seed_defect": defect,
            "setup_nfev": setup_nfev + len(jac), "stable_eigenvalue": lam}
    if (rows[0][1][0] - z0) * (ss.z_star - z0) < 0.0:
        # z0 lies between z* and W(s0): find it on W and integrate nothing.
        s0, evals = _illinois(lambda s: _horner(coeffs, s)[0] - z0, min(0.0, s0), max(0.0, s0))
        rows = _manifold_rows(coeffs, rate, s0, s_end)
        ts, ys, nfev = [0.0], [rows[0][1]], 0
    else:
        def fun(z, q, u, v):
            # The manifold may leave the (0,1) allocation box; the reduced
            # equations remain smooth there.
            zdot, qdot, udot, vdot = rhs_reduced_values(z, q, u, v, params)
            return -zdot, -qdot, -udot, -vdot

        # Near the seed derivatives are small, so the first-step heuristic
        # would overshoot without a step cap.
        ts, ys, nfev, hit, evals = _dormand_prince(fun, rows[0][1],
                                                   min(1.0, 0.5 / abs(rate)), events)
        if hit != 0:
            reason = {1: "hit a coordinate floor", 2: "approached u = v",
                      None: "travel budget exhausted"}[hit]
            raise TargetNotReachedError(
                f"z never crossed {z0} ({reason}; final z = {ys[-1][0]:g})"
            )
    # Forward time: t = 0 at z0, the stepper's steps reversed, then W.
    t_seed = ts[-1]
    times = [t_seed - t for t in reversed(ts)] + [t_seed + t for t, _ in rows[1:]]
    states = ys[::-1] + [x for _, x in rows[1:]]
    meta.update(steps=len(ts) if nfev else 0, nfev=nfev, event_evals=evals, s0=s0,
                stop_reason="target_reached", t_stop=times[-1])
    return Trajectory(times=times, states=states, meta=meta)


def _past_corner(x_star, v_s, s_end, z0):
    """Whether z0 lies past the point where the eigenvector's line from x*,
    on s_end's side, first reaches u = 1 or v = 1.

    u = 1 and v = 1 are invariant planes of the rhs, so a path crosses
    them only at the corner u = v = 1, where the rhs is singular; on the
    paper cases and the stiff economies the line meets u = 1 at the z
    where the path reaches that corner. The stopping time of a path
    through the corner moves by up to 4e-5 with its seed, as its steps
    pass within about 1e-6 of u = v, and the expansion makes it no more
    accurate. Such a path keeps the linear seed and the path it always
    gave.
    """
    reach = [(1.0 - x_star[i]) / (v_s[i] * s_end) for i in (2, 3) if v_s[i] * s_end > 0.0]
    return bool(reach) and abs(z0 - x_star[0]) >= min(reach) * abs(v_s[0] * s_end)


def _horner(coeffs, s):
    """W(s) = sum_k coeffs[k] s^k, each coefficient a 4-vector."""
    z, q, u, v = coeffs[-1]
    for c0, c1, c2, c3 in coeffs[-2::-1]:
        z, q, u, v = z * s + c0, q * s + c1, u * s + c2, v * s + c3
    return [z, q, u, v]


def _defect(params, coeffs, rate, s):
    """Invariance defect of W at s, as a share of the stepper's tolerance.

    E = rhs(W(s)) - lambda s W'(s) vanishes on the exact manifold. It is a
    velocity: a W off the manifold by D has E = (J - k lambda) D at order
    k, and every eigenvalue of J - k lambda I has modulus at least
    |lambda|, so |E| / |lambda| bounds the seed's distance from the
    manifold. That distance is measured like the stepper's local error, as
    the root mean square of its components over SADDLE_ATOL + SADDLE_RTOL
    |W_i|, and returned times SADDLE_RTOL, for comparison with it.
    """
    x = _horner(coeffs, s)
    dx = _horner([[k * a for a in c] for k, c in enumerate(coeffs)][1:], s)
    f = rhs_reduced_values(*x, params)
    err = [(fi - rate * s * di) / rate / (SADDLE_ATOL + SADDLE_RTOL * abs(xi))
           for fi, di, xi in zip(f, dx, x)]
    return SADDLE_RTOL * math.hypot(*err) / 2.0


def _stable_manifold(params, x_star, jac, rate, v_s, scale):
    """(coefficients, radius, rhs calls) of the stable manifold's expansion.

    The coefficients [x*, v_s, a_2, ..., a_K], K = MANIFOLD_ORDER, give
    W(s) = x* + v_s s + sum_k a_k s^k with rhs(W(s)) = lambda s W'(s), on
    which the flow is s(t) = s0 e^{lambda t}: the parameterization method
    of Cabre, Fontich & de la Llave (2003), Indiana Univ. Math. J. 52.
    Order k solves (J - k lambda I) a_k = -[rhs(W_{<k})]_k, which is not
    singular, as k lambda is no eigenvalue of a saddle with one stable
    root. The right side, the k-th Taylor coefficient of the rhs along the
    expansion so far, is a DFT of its samples at N = MANIFOLD_SAMPLES
    points on the circle |s| = r (Lyness & Moler 1967, SIAM J. Numer.
    Anal. 4). W is real, so conjugate points give conjugate samples, and
    N/2 + 1 of them are evaluated. The points follow the expansion order
    by order, W_{<k}(s) = W_{<k-1}(s) + a_{k-1} s^(k-1).

    The first order's samples also give the first coefficient, J v_s =
    lambda v_s, which is known. Where they miss it by more than
    SADDLE_RTOL |lambda|, a singularity near the circle aliases into
    every coefficient. That error falls like r^N, so a second circle is
    taken, of the radius that error implies, halved. The first circle's
    radius is MANIFOLD_RADIUS |x*|. coefficients is None where both
    circles fail or a sample is singular.
    """
    n = MANIFOLD_SAMPLES
    roots = [cmath.exp(2j * math.pi * j / n) for j in range(n // 2 + 1)]
    r, calls = MANIFOLD_RADIUS * scale, 0
    for circle in range(2):
        coeffs, points = [list(x_star), list(v_s)], [x_star] * len(roots)
        try:
            for k in range(2, MANIFOLD_ORDER + 1):
                points = [[x + a * p for x, a in zip(xs, coeffs[-1])]
                          for xs, p in zip(points, [(r * w) ** (k - 1) for w in roots])]
                f = [rhs_reduced_values(*x, params) for x in points]
                calls += len(roots)
                if k == 2:
                    miss = max(abs(c - rate * v) for c, v in zip(_dft(f, roots, 1, r), v_s))
                    if miss > SADDLE_RTOL * abs(rate):
                        break
                m = [[x - k * rate if i == j else x for j, x in enumerate(row)]
                     for i, row in enumerate(jac)]
                coeffs.append(_solve_pivoted(m, [-c for c in _dft(f, roots, k, r)]))
            else:
                return coeffs, r, calls
        except SingularStateError:
            break
        if circle == 0:
            r *= 0.5 * (SADDLE_RTOL * abs(rate) / miss) ** (1.0 / n)
    return None, r, calls


def _dft(f, roots, k, r):
    """k-th Taylor coefficient, per component, of a real-analytic g from its
    samples f at s = r w over roots, the N-th roots of unity w on the upper
    half circle, 1 first and -1 last; the lower half are their conjugates."""
    n = 2 * (len(roots) - 1)
    half = [[(x * w ** -k).real for x in fx] for fx, w in zip(f[1:-1], roots[1:-1])]
    return [(g0.real + (-1) ** k * gn.real + 2.0 * sum(h)) / (n * r**k)
            for g0, gn, *h in zip(f[0], f[-1], *half)]


def _seed(params, coeffs, rate, s_end, events):
    """((s0, defect at s0, rows), rhs calls) of the seed on W, on s_end's
    side; None in place of the triple where no seed passes.

    s0 starts where the last term, |a_K| |s|^K, is SADDLE_RTOL |x*|, and
    halves until _defect at both s0 and -s0 is at most SADDLE_RTOL and W
    clears the coordinate floor and the u = v gap at s0 and at every row
    reported from it. The decay alone is no gate: past the radius of
    convergence the terms still fall while their sum is wrong. The search
    gives up when |s0| falls to |s_end|. rows are _manifold_rows from s0.
    """
    k = len(coeffs) - 1
    s0 = math.copysign((SADDLE_RTOL * math.hypot(*coeffs[0])
                        / math.hypot(*coeffs[k])) ** (1.0 / k), s_end)
    calls = 0
    while abs(s0) > abs(s_end):
        try:
            calls += 1
            defect = _defect(params, coeffs, rate, s0)
            if defect <= SADDLE_RTOL:
                calls += 1
                if _defect(params, coeffs, rate, -s0) <= SADDLE_RTOL:
                    rows = _manifold_rows(coeffs, rate, s0, s_end)
                    if all(min(events(x)[1:]) > 0.0 for _, x in rows):
                        return (s0, defect, rows), calls
        except SingularStateError:
            pass
        s0 *= 0.5
    return None, calls


def _manifold_rows(coeffs, rate, s0, s_end):
    """(t, W(s)) at s0 (t = 0) and at the rows reported from W after it, at
    the exact times of s(t) = s0 e^{lambda t}, the last row at s_end.

    They are spaced as a fifth-order step control at a fixed local error
    would space them, for an error proportional to |s|: the step in
    ln |s| grows as |s|^(-1/5) from ln(1/MANIFOLD_ROW_RATIO) at s0.
    """
    first, end = -math.log(MANIFOLD_ROW_RATIO), math.log(s0 / s_end)
    rows, tau = [(0.0, s0)], first
    while tau < end:
        rows.append((tau / -rate, s0 * math.exp(-tau)))
        tau += first * math.exp(0.2 * tau)
    if end > 0.0:
        rows.append((end / -rate, s_end))
    return [(t, _horner(coeffs, s)) for t, s in rows]


def stable_eigenpair(jac, eigenvalues) -> tuple:
    """(lambda, v): the stable eigenvalue of the 4x4 Jacobian jac, from its
    spectrum eigenvalues as eigen4 gives it, and its unit eigenvector, of
    either sign.

    There is one where classify counts a stable root. lambda is then the
    eigenvalue of least real part, since a negative real part sorts below
    the structural zero, and v the null vector of J - lambda I from
    _solve_pivoted.
    """
    if not classify(eigenvalues)[0]:
        raise NoRealStableEigenvectorError(
            f"no stable eigenvalue: real parts {[x.real for x in eigenvalues]}"
        )
    lam = eigenvalues[0]
    if lam.imag:
        raise NoRealStableEigenvectorError(
            f"stable eigenvector is complex (eigenvalue {lam})"
        )
    a = [[x - lam.real if i == j else x for j, x in enumerate(row)]
         for i, row in enumerate(jac)]
    v = _solve_pivoted(a)
    if v is None:
        raise NoRealStableEigenvectorError(f"stable eigenvalue {lam} is not simple")
    norm = math.hypot(*v)
    return lam, [c / norm for c in v]


def _solve_pivoted(a, b=None):
    """x with a x = b, by Gaussian elimination with complete pivoting.

    Without b, the last pivot is taken as zero and x is the null vector
    whose free coordinate is 1, found by back substitution. None where
    another pivot is exactly zero.
    """
    n = len(a)
    a = [list(row) + [0.0 if b is None else b[i]] for i, row in enumerate(a)]
    cols = list(range(n))
    m = n - 1 if b is None else n
    for k in range(m):
        _, p, q = max((abs(a[i][j]), i, j) for i in range(k, n) for j in range(k, n))
        if not a[p][q]:
            return None
        a[k], a[p] = a[p], a[k]
        for row in a:
            row[k], row[q] = row[q], row[k]
        cols[k], cols[q] = cols[q], cols[k]
        for row in a[k + 1:]:
            f = row[k] / a[k][k]
            for j in range(k, n + 1):
                row[j] -= f * a[k][j]
    x = [0.0] * (n - 1) + [1.0] if b is None else [0.0] * n
    for k in reversed(range(m)):
        x[k] = (a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))) / a[k][k]
    v = [0.0] * n
    for k, c in enumerate(cols):
        v[c] = x[k]
    return v


def _dormand_prince(fun, y, max_step, events):
    """Integrate y' = fun(y) from t = 0 until T_BUDGET or a terminal event.

    y is a sequence of four floats (z, q, u, v), and fun(z, q, u, v)
    returns four. Dormand & Prince 5(4) with the step control of Hairer,
    Norsett & Wanner (Solving ODEs I, sec. II.4), the common RK45, at rtol
    SADDLE_RTOL and atol SADDLE_ATOL. Each stage is written out for the
    four components, with the pair's coefficients, so a step calls fun
    and events and nothing else. After each accepted step, a component of
    events(y), which gives three values, that changes sign is located to
    one ulp of t by _illinois on the step's dense output, in about 7
    evaluations (bisection took 50); the earliest crossing ends the path.
    Returns (times, states, nfev, hit, evals), hit the event met or None,
    evals the searches' evaluations.
    """
    t_bound, rtol, atol = float(T_BUDGET), SADDLE_RTOL, SADDLE_ATOL
    t, (z, q, u, v) = 0.0, y
    fz, fq, fu, fv = f = fun(z, q, u, v)
    # First step: two rhs calls, f at the seed and one Euler probe. Each
    # norm is the root mean square of the four scaled components, hypot / 2.
    sz, sq = atol + abs(z) * rtol, atol + abs(q) * rtol
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0 = math.hypot(z / sz, q / sq, u / su, v / sv) / 2.0
    d1 = math.hypot(fz / sz, fq / sq, fu / su, fv / sv) / 2.0
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound)
    az, aq, au, av = fun(z + h0 * fz, q + h0 * fq, u + h0 * fu, v + h0 * fv)
    d2 = math.hypot((az - fz) / sz, (aq - fq) / sq, (au - fu) / su, (av - fv) / sv) / 2.0 / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_bound, max_step)
    nfev, ts, ys = 2, [t], [y]
    old0, old1, old2 = events(y)
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
            bz, bq, bu, bv = k2 = fun(z + (1/5 * fz) * h, q + (1/5 * fq) * h,
                                      u + (1/5 * fu) * h, v + (1/5 * fv) * h)
            cz, cq, cu, cv = k3 = fun(z + (3/40 * fz + 9/40 * bz) * h,
                                      q + (3/40 * fq + 9/40 * bq) * h,
                                      u + (3/40 * fu + 9/40 * bu) * h,
                                      v + (3/40 * fv + 9/40 * bv) * h)
            dz, dq, du, dv = k4 = fun(z + (44/45 * fz - 56/15 * bz + 32/9 * cz) * h,
                                      q + (44/45 * fq - 56/15 * bq + 32/9 * cq) * h,
                                      u + (44/45 * fu - 56/15 * bu + 32/9 * cu) * h,
                                      v + (44/45 * fv - 56/15 * bv + 32/9 * cv) * h)
            ez, eq, eu, ev = k5 = fun(
                z + (19372/6561 * fz - 25360/2187 * bz + 64448/6561 * cz - 212/729 * dz) * h,
                q + (19372/6561 * fq - 25360/2187 * bq + 64448/6561 * cq - 212/729 * dq) * h,
                u + (19372/6561 * fu - 25360/2187 * bu + 64448/6561 * cu - 212/729 * du) * h,
                v + (19372/6561 * fv - 25360/2187 * bv + 64448/6561 * cv - 212/729 * dv) * h)
            gz, gq, gu, gv = k6 = fun(
                z + (9017/3168 * fz - 355/33 * bz + 46732/5247 * cz + 49/176 * dz
                     - 5103/18656 * ez) * h,
                q + (9017/3168 * fq - 355/33 * bq + 46732/5247 * cq + 49/176 * dq
                     - 5103/18656 * eq) * h,
                u + (9017/3168 * fu - 355/33 * bu + 46732/5247 * cu + 49/176 * du
                     - 5103/18656 * eu) * h,
                v + (9017/3168 * fv - 355/33 * bv + 46732/5247 * cv + 49/176 * dv
                     - 5103/18656 * ev) * h)
            zn = z + h * (35/384 * fz + 500/1113 * cz + 125/192 * dz - 2187/6784 * ez
                          + 11/84 * gz)
            qn = q + h * (35/384 * fq + 500/1113 * cq + 125/192 * dq - 2187/6784 * eq
                          + 11/84 * gq)
            un = u + h * (35/384 * fu + 500/1113 * cu + 125/192 * du - 2187/6784 * eu
                          + 11/84 * gu)
            vn = v + h * (35/384 * fv + 500/1113 * cv + 125/192 * dv - 2187/6784 * ev
                          + 11/84 * gv)
            f_new = nz, nq, nu, nv = fun(zn, qn, un, vn)
            nfev += 6
            err = math.hypot(
                (-71/57600 * fz + 71/16695 * cz - 71/1920 * dz + 17253/339200 * ez
                 - 22/525 * gz + 1/40 * nz) * h / (atol + max(abs(z), abs(zn)) * rtol),
                (-71/57600 * fq + 71/16695 * cq - 71/1920 * dq + 17253/339200 * eq
                 - 22/525 * gq + 1/40 * nq) * h / (atol + max(abs(q), abs(qn)) * rtol),
                (-71/57600 * fu + 71/16695 * cu - 71/1920 * du + 17253/339200 * eu
                 - 22/525 * gu + 1/40 * nu) * h / (atol + max(abs(u), abs(un)) * rtol),
                (-71/57600 * fv + 71/16695 * cv - 71/1920 * dv + 17253/339200 * ev
                 - 22/525 * gv + 1/40 * nv) * h / (atol + max(abs(v), abs(vn)) * rtol),
            ) / 2.0
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        t_old, y_old, f_old, t, f = t, y, f, t_new, f_new
        z, q, u, v, fz, fq, fu, fv = zn, qn, un, vn, nz, nq, nu, nv
        y = [z, q, u, v]
        new0, new1, new2 = events(y)
        sign_change = (old0 <= 0 <= new0 or new0 <= 0 <= old0,
                       old1 <= 0 <= new1 or new1 <= 0 <= old1,
                       old2 <= 0 <= new2 or new2 <= 0 <= old2)
        if True in sign_change:
            crossed = [i for i, c in enumerate(sign_change) if c]
            K = (f_old, k2, k3, k4, k5, k6, f)
            Q = [[sum([k * p for k, p in zip(ks, col)]) for col in zip(*_DP_P)]
                 for ks in zip(*K)]

            def dense(s):
                x = (s - t_old) / h
                powers = (x, x * x, x * x * x, x * x * x * x)
                return [b + h * sum([q * p for q, p in zip(qs, powers)])
                        for b, qs in zip(y_old, Q)]

            found = [_illinois(lambda s: events(dense(s))[i], t_old, t) for i in crossed]
            t, hit = min((t, i) for (t, _), i in zip(found, crossed))
            ts.append(t)
            ys.append(dense(t))
            return ts, ys, nfev, hit, sum(n for _, n in found)
        ts.append(t)
        ys.append(y)
        old0, old1, old2 = new0, new1, new2
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
