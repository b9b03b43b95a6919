"""Oracles of the tests: closed forms and an independent level system.

No command of the package needs these. They check it from outside: the
level system rhs_full against the reduced system, the share-form outputs
and their psi-derivatives against the normalized CES family, the rows
of a comparison table by name, a complex-step Jacobian of the reduced
system and a complex-step stable eigenvector where w moves, the
consumption equation and lambda_w in the package's former
notation, the plane-half saddle path in closed form at any precision, the
plain forms of three of dynamics' inner loops: Horner's rule on lists,
bisection and the Dormand-Prince stepper on lists, and the sweep's CSV
writer in its former per-row "%.17g" form, with its monotone footer as
numpy's differences of the whole table gave it.
"""

import math
from typing import NamedTuple

import mpmath

from cesgrowth import dynamics
from cesgrowth.cli import _SWEEP_COLUMNS
from cesgrowth.core import R_FLOOR, UV_GAP_FLOOR, aux_from_wuv, sector_rates, tau_of
from cesgrowth.errors import ParameterError, SingularStateError, StepSizeUnderflowError
from cesgrowth.normalization import (
    Baseline,
    ComparisonRow,
    _check_sector,
    normalized_params,
    psi_of_sigma,
)
from cesgrowth.params import ModelParams
from cesgrowth.stability import _j2, allocations, plane_terms, rhs_reduced_values
from cesgrowth.steady import closed_forms, gap_P, steady_state


def _current_ratio(sector: int, w: float, tau: float | None) -> float:
    _check_sector(sector)
    if w <= 0.0:
        raise ParameterError(f"w must be positive, got {w}")
    if sector == 1:
        return w
    if tau is None or tau <= 0.0:
        raise ParameterError("sector 2 requires a positive tau")
    return w / tau


def share_pi(
    sigma: float, baseline: Baseline, sector: int, w: float, tau: float | None = None
) -> float:
    """Physical-capital share pi = x_bar^{1-psi} x^psi / (x_bar^{1-psi} x^psi + m)."""
    psi = psi_of_sigma(sigma)
    x_bar = baseline.effective_ratio(sector)
    x = _current_ratio(sector, w, tau)
    num = x_bar ** (1.0 - psi) * x ** psi
    return num / (num + baseline.m)


def share_pi_bar(baseline: Baseline, sector: int) -> float:
    """Baseline share x_bar / (x_bar + m); independent of sigma."""
    x_bar = baseline.effective_ratio(sector)
    return x_bar / (x_bar + baseline.m)


def comparison_row(rows: tuple, name: str) -> ComparisonRow:
    """The row named name among the rows compare_economies returns."""
    for r in rows:
        if r.name == name:
            return r
    raise KeyError(name)


def powz(base: float, expo: float) -> float:
    """base**expo via exp(expo * log(base)); base must be positive."""
    return math.exp(expo * math.log(base))


class State(NamedTuple):
    """Stationary coordinates (z = k/h, q = c/k, u, v), named; unchecked."""

    z: float
    q: float
    u: float
    v: float


def w_of(state: State) -> float:
    """Effective capital ratio w = (v/u) z = kv / hu."""
    return state.v / state.u * state.z


def p1_of(w: float, params: ModelParams) -> float:
    """P1 = alpha1 w^psi1 + 1 - alpha1."""
    return sector_rates(w, params)[0]


def p2_of(w: float, params: ModelParams) -> float:
    """P2 = alpha2 theta^{-psi2/(1-psi2)} w^{psi2(1-psi1)/(1-psi2)} + 1 - alpha2."""
    return sector_rates(w, params)[1]


class AuxBundle(NamedTuple):
    """The auxiliary scalars of core.aux_from_wuv, named in its order.

    D  : growth-rate wedge hdot/h - kdot/k - c/k
    P  : BGP gap (zero on the balanced growth path)
    T  : numerator of the share difference; R = (1-psi1)(1-psi2) T
    G1 : (psi1-psi2) u + 1 - psi1, G2 analogous in v
    Q  : P1 P2
    X  : r(w) + delta_k - (v/w) Y1, so that qdot/q = q + X
    """

    D: float
    P: float
    T: float
    G1: float
    G2: float
    Q: float
    R: float
    X: float


def aux_of(state: State, params: ModelParams) -> AuxBundle:
    """Evaluate the full auxiliary bundle at a reduced state."""
    return AuxBundle(*aux_from_wuv(w_of(state), state.u, state.v, params))


def consumption_terms(w: float, u: float, v: float, params: ModelParams) -> tuple:
    """The terms of X = qdot/q - q in the A1 H/eps form, before the package
    wrote it with the growth rates: (-A1 H/eps, -(rho - (eps - 1) delta_k)/eps),
    whose sum is X. With P_eps = alpha1 (eps v - 1) w^psi1 + eps (1-alpha1) v
    and H = w^{-1} P1^{1/psi1 - 1} P_eps, the coefficient of A1/eps in qdot,
    as P_eps = eps v P1 - S1 and MPK = Y1 S1/(w P1),

        A1 H/eps + (rho - (eps - 1) delta_k)/eps = (v/w) Y1 - r(w) - delta_k.
    """
    eps = params.eps
    p1 = p1_of(w, params)
    s1 = params.alpha1 * powz(w, params.psi1)
    p_eps = (eps * v - 1.0) * s1 + eps * (1.0 - params.alpha1) * v
    h = powz(p1, 1.0 / params.psi1 - 1.0) * p_eps / w
    return -params.A1 * h / eps, -(params.rho - (eps - 1.0) * params.delta_k) / eps


def lambda_w_of(w: float, params: ModelParams) -> float:
    """lambda_w = g'(w) at a root w of gap_P, in the package's former closed
    form: with dP/d ln w = -(1 - psi1)(MPK (1 - alpha1)/P1 + MPH S2/P2),

        lambda_w = -(MPK (1 - alpha1) P2 + MPH S2 P1) / T,

    T = (1 - alpha2) S1 - (1 - alpha1) S2 = (1 - alpha1) S2 (tau0 - 1)."""
    p1, p2, s1, s2, _, mpk, _, mph, _ = sector_rates(w, params)
    one_less_alpha1, one_less_alpha2 = 1.0 - params.alpha1, 1.0 - params.alpha2
    return -(mpk * one_less_alpha1 * p2 + mph * s2 * p1) / (
        one_less_alpha2 * s1 - one_less_alpha1 * s2)


def costate_ratio(w: float, params: ModelParams) -> float:
    """mu/lambda = A1 alpha1 / (A2 alpha2 theta) * P1^{1/psi1-1} / P2^{1/psi2-1}.

    That is the goods sector's marginal product of human capital,
    (1-alpha1) A1 P1^{1/psi1-1}, over the education sector's.
    """
    p1, _, _, _, y1, _, _, mph, _ = sector_rates(w, params)
    return (1.0 - params.alpha1) * y1 / p1 / mph


def rhs_full(state: tuple, params: ModelParams) -> tuple:
    """Time derivatives (kdot, hdot, cdot, udot, vdot) of the level system
    at state = (k, h, c, u, v).

    The tests' level-system oracle: the growth rates of k, h and c are
    written out here from P1 and P2, not read from sector_rates, so that
    comparing this with rhs_reduced_values checks the kernel.
    """
    k, h, c, u, v = state
    if abs(u - v) < UV_GAP_FLOOR:
        raise SingularStateError(f"u - v = {u - v} too small", state=state)
    z = k / h
    w = v / u * z
    bun = aux_of(State(z, c / k, u, v), params)
    # T's terms, (1 - alpha2) S1 + (1 - alpha1) S2, are 2 (1 - alpha2) S1 - T.
    terms = 2.0 * (1.0 - params.alpha2) * params.alpha1 * powz(w, params.psi1) - bun.T
    if abs(bun.T) < R_FLOOR * abs(terms):
        raise SingularStateError(f"R = {bun.R} vanishes at this state", state=state)
    psi1, psi2 = params.psi1, params.psi2
    p1 = p1_of(w, params)
    p2 = p2_of(w, params)
    q = c / k

    k_growth = params.A1 * v / w * powz(p1, 1.0 / psi1) - q - params.delta_k
    h_growth = params.A2 * powz(p2, 1.0 / psi2) * (1.0 - u) - params.delta_h
    c_growth = (
        -(params.rho + params.delta_k) / params.eps
        + params.alpha1
        * params.A1
        * powz(w, psi1 - 1.0)
        * powz(p1, 1.0 / psi1 - 1.0)
        / params.eps
    )
    u_growth = (bun.D + q + bun.Q * bun.G2 * bun.P / bun.R) * (1.0 - u) / (u - v)
    v_growth = (bun.D + q + bun.Q * bun.G1 * bun.P / bun.R) * (1.0 - v) / (u - v)
    return k * k_growth, h * h_growth, c * c_growth, u * u_growth, v * v_growth


def complex_step_jacobian(z: float, q: float, u: float, v: float,
                          params: ModelParams, step: float = 1e-20) -> tuple:
    """The Jacobian of rhs_reduced_values as four rows of floats, by complex
    steps: column i is Im rhs(x + i h e_i) / h (Squire & Trapp, SIAM Review
    40, 1998), with h = step |x_i| (step where x_i = 0). No difference is
    taken, so the error is at rounding level whatever the step, at four rhs
    evaluations. The step is relative: a fixed h = 1e-20 is no longer small
    beside a coordinate such as v* = 8.6e-24, and the columns then miss the
    derivative by up to their own size."""
    x = [float(z), float(q), float(u), float(v)]
    columns = []
    for i in range(4):
        xi = list(x)
        h = step * abs(x[i]) or step
        xi[i] += h * 1j
        columns.append([f.imag / h for f in rhs_reduced_values(*xi, params)])
    return tuple(zip(*columns))


def complex_step_eigenvector(ss, params: ModelParams, rate: float,
                             step: float = 1e-20) -> tuple:
    """The unit stable eigenvector (dw, dz, dq, du, dv) at the balanced path
    ss where tau0* > 1, for its stable root rate = lambda_w, in the form
    dynamics.stable_eigenpair had before its closed form: (dw, dz, dq) =
    (1, dz, dq) with (J2 - lambda I)(dz, dq) = -d(z', q')/dw at fixed
    (z, q), the slope from one complex step of plane_terms at w* + ih
    (Martins, Sturdza & Alonso 2003, ACM TOMS 29), and (du, dv) the
    imaginary parts of allocations at (w* + ih, z* + ih dz) over h. Unit in
    (dz, dq, du, dv)."""
    h, w, z, q = step, ss.w_star, ss.z_star, ss.q_star
    j11, j12, j21, j22 = _j2(plane_terms(w, params), z, q)
    a, b, c, e, _, tau0_h = plane_terms(complex(w, h), params)
    fz = -(b.imag * z * z + a.imag * z + c.imag) / h
    fq = q * (c.imag / z - e.imag) / h
    d11, d22 = j11 - rate, j22 - rate
    det = d11 * d22 - j12 * j21
    dz, dq = (j12 * fq - d22 * fz) / det, (j21 * fz - d11 * fq) / det
    u_h, v_h = allocations(tau0_h, complex(w, h), complex(z, h * dz))
    du, dv = u_h.imag / h, v_h.imag / h
    norm = math.hypot(dz, dq, du, dv)
    return 1.0 / norm, dz / norm, dq / norm, du / norm, dv / norm


def normalized_y(
    sigma: float,
    baseline: Baseline,
    sector: int,
    k: float,
    h: float,
    u: float,
    v: float,
) -> float:
    """Sector output of the family member at (k, h, u, v).

    Share form: y1 = y1_bar * (hu)/(h_bar u_bar) * (w/w_bar)
    * (pi_bar/pi)^{1/psi}; the sector-2 analogue carries tau_bar/tau.
    Numerically identical to the direct CES evaluation with the
    normalized (alpha, A).
    """
    psi = psi_of_sigma(sigma)
    _check_sector(sector)
    if k <= 0.0 or h <= 0.0:
        raise ParameterError("k and h must be positive")
    w = k * v / (h * u)
    tau = tau_of(u, v)
    pi = share_pi(sigma, baseline, sector, w, tau)
    pi_bar = share_pi_bar(baseline, sector)
    if sector == 1:
        return (
            baseline.y1_bar
            * (h * u)
            / (baseline.h_bar * baseline.u_bar)
            * (w / baseline.w_bar)
            * (pi_bar / pi) ** (1.0 / psi)
        )
    return (
        baseline.y2_bar
        * (h * (1.0 - u))
        / (baseline.h_bar * (1.0 - baseline.u_bar))
        * (w / baseline.w_bar)
        * (baseline.tau_bar / tau)
        * (pi_bar / pi) ** (1.0 / psi)
    )


def identity_wwb(
    sigma: float, baseline: Baseline, sector: int, w: float, tau: float | None = None
) -> float:
    """Residual of (x/x_bar)^psi = pi(1-pi_bar) / (pi_bar(1-pi)); zero identically."""
    psi = psi_of_sigma(sigma)
    x_bar = baseline.effective_ratio(sector)
    x = _current_ratio(sector, w, tau)
    pi = share_pi(sigma, baseline, sector, w, tau)
    pi_bar = share_pi_bar(baseline, sector)
    lhs = (x / x_bar) ** psi
    rhs = pi * (1.0 - pi_bar) / (pi_bar * (1.0 - pi))
    return lhs - rhs


def dpi_dpsi(
    sigma: float, baseline: Baseline, sector: int, w: float, tau: float | None = None
) -> float:
    """d pi / d psi = pi (1 - pi) ln(x / x_bar)."""
    pi = share_pi(sigma, baseline, sector, w, tau)
    x_bar = baseline.effective_ratio(sector)
    x = _current_ratio(sector, w, tau)
    return pi * (1.0 - pi) * math.log(x / x_bar)


def dy_dpsi(
    sigma: float,
    baseline: Baseline,
    sector: int,
    k: float,
    h: float,
    u: float,
    v: float,
) -> float:
    """d y / d psi = -(1/psi^2) y [pi ln(pi_bar/pi) + (1-pi) ln((1-pi_bar)/(1-pi))].

    Strictly positive whenever pi differs from pi_bar (log concavity).
    """
    psi = psi_of_sigma(sigma)
    w = k * v / (h * u)
    tau = tau_of(u, v)
    y = normalized_y(sigma, baseline, sector, k, h, u, v)
    pi = share_pi(sigma, baseline, sector, w, tau)
    pi_bar = share_pi_bar(baseline, sector)
    bracket = pi * math.log(pi_bar / pi) + (1.0 - pi) * math.log(
        (1.0 - pi_bar) / (1.0 - pi)
    )
    return -y * bracket / psi**2


def r_star_closed_form(
    sigma1: float, baseline: Baseline, params: ModelParams, pi1_star: float
) -> float:
    """r*(sigma1) = (1/eps)[y1_bar/(k_bar v_bar) pi1_bar (pi1_bar/pi1*)^{(1-psi1)/psi1} - rho - dk]."""
    psi = psi_of_sigma(sigma1)
    pi_bar = share_pi_bar(baseline, 1)
    scale = baseline.y1_bar / (baseline.k_bar * baseline.v_bar)
    return (
        scale * pi_bar * (pi_bar / pi1_star) ** ((1.0 - psi) / psi)
        - params.rho
        - params.delta_k
    ) / params.eps


def steady_share_pi1(sigma1: float, baseline: Baseline, params: ModelParams) -> float:
    """Steady-state sector-1 share of the family member at sigma1.

    Sector 2 stays at the template's own sigma2 (normalized); the member
    economy's BGP is solved and its w* plugged into the share formula.
    """
    member = normalized_params(sigma1, params.sigma2, baseline, params)
    ss = steady_state(member)
    return share_pi(sigma1, baseline, 1, ss.w_star)


def r_star_of_sigma(sigma1: float, baseline: Baseline, params: ModelParams) -> float:
    """Common growth rate of the family member at sigma1, in share form."""
    return r_star_closed_form(
        sigma1, baseline, params, steady_share_pi1(sigma1, baseline, params)
    )


def dr_dpsi(sigma1: float, baseline: Baseline, params: ModelParams) -> float:
    """d r*/d psi1 of the share-form growth rate at the member's own share."""
    pi1 = steady_share_pi1(sigma1, baseline, params)
    return dr_dpsi_at(sigma1, baseline, params, pi1)


def dr_dpsi_at(
    sigma1: float, baseline: Baseline, params: ModelParams, pi1_star: float
) -> float:
    """Closed form of d r*/d psi1, evaluated at the share pi1_star.

    Total derivative at a fixed input ratio: the share's own psi
    dependence is folded in through the share identity.
    """
    psi = psi_of_sigma(sigma1)
    pi_bar = share_pi_bar(baseline, 1)
    scale = baseline.y1_bar / (baseline.k_bar * baseline.v_bar)
    brace = (1.0 - (1.0 - psi) * (1.0 - pi1_star)) * math.log(pi_bar / pi1_star) + (
        1.0 - psi
    ) * (1.0 - pi1_star) * math.log((1.0 - pi_bar) / (1.0 - pi1_star))
    return (
        -scale
        * pi_bar
        / (params.eps * psi**2)
        * (pi_bar / pi1_star) ** ((1.0 - psi) / psi)
        * brace
    )


class PlanePath(NamedTuple):
    """A plane-half saddle path in closed form at mpmath precision: its
    (q, u, v) at z0, its clock (from z0 to |s| = SEED_SCALE |x*|), the
    stable root lam, p, theta and x* = (z*, q*, u*, v*), and at(t), the
    state (z, q, u, v) at time t after z0."""

    q: object
    u: object
    v: object
    clock: object
    lam: object
    p: object
    theta: object
    x_star: tuple
    at: object


def plane_path(params: ModelParams, z0, dps: int = 40) -> PlanePath:
    """The saddle path to z0 of an economy with tau0* < 1, in closed form at
    dps digits, from none of dynamics' code: w* from mpmath.findroot on
    gap_P, then closed_forms and plane_terms at w*.

    On the plane w = w*, z' = -(b z^2 + (a + q) z + c) and q' = q (q - e
    + c/z). q = m + n/z is invariant where the 1/z^2 terms cancel, n = p m,
    and (m - e)(e + a - m) = b c; its root m = theta = rho + (eps - 1) r*
    is the saddle's, so q = theta (1 + p/z), p = z* (q*/theta - 1), the
    hyperbola through x*. On it z' = -b (z - z*)(z + p), so y = (z -
    z*)/(z + p) = y0 e^{lam t} with lam = -b (z* + p), and z = (z* + p
    y)/(1 - y). s = kappa y is the stable manifold's linear coordinate, the
    one along the unit eigenvector (dz, dq, du, dv) in (z, q, u, v), with
    kappa = (z* + p)/dz, so the clock is ln(|kappa y0| / (SEED_SCALE
    |x*|)) / |lam|.
    """
    ss = steady_state(params)
    with mpmath.workdps(dps):
        w = mpmath.findroot(lambda w: gap_P(w, params), mpmath.mpf(ss.w_star))
        star = closed_forms(w, params)
        a, b, c, e, _, tau0 = plane_terms(w, params)
        z_star, q_star, theta = star.z_star, star.q_star, star.tvc_margin
        p = z_star * (q_star / theta - 1)
        lam = -b * (z_star + p)
        x_star = (z_star, q_star, star.u_star, star.v_star)
        slopes = (1, -theta * p / z_star**2, tau0 / ((tau0 - 1) * w),
                  w / ((tau0 - 1) * z_star**2))
        kappa = (z_star + p) * mpmath.sqrt(sum(d * d for d in slopes))
        z0 = mpmath.mpf(z0)
        y0 = (z0 - z_star) / (z0 + p)
        clock = mpmath.log(abs(kappa * y0) / (dynamics.SEED_SCALE * mpmath.sqrt(
            sum(x * x for x in x_star)))) / abs(lam)

        def state(z):
            return (z, theta * (1 + p / z), (tau0 * z / w - 1) / (tau0 - 1),
                    (tau0 - w / z) / (tau0 - 1))

        def at(t):
            with mpmath.workdps(dps):
                y = y0 * mpmath.exp(lam * t)
                return state((z_star + p * y) / (1 - y))

        return PlanePath(*state(z0)[1:], clock, lam, p, theta, x_star, at)


def horner(coeffs, s):
    """sum_k coeffs[k] s^k by Horner's rule, one list comprehension per
    coefficient, each a vector."""
    x = list(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        x = [a * s + b for a, b in zip(x, c)]
    return x


def bisect(g, lo, hi):
    """(zero of g, evaluations of g) for g that changes sign or vanishes on
    [lo, hi]: bisection down to adjacent floats, then the one of them where
    |g| is smaller."""
    g_lo, g_hi, n = g(lo), g(hi), 2
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        g_mid, n = g(mid), n + 1
        if (g_mid > 0) == (g_lo > 0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return (lo if abs(g_lo) < abs(g_hi) else hi), n


def dormand_prince(fun, y, max_step, events):
    """dynamics._dormand_prince in its list form, for any number of
    components: fun(y) takes and returns a sequence, and each stage is one
    list comprehension over the components. The same coefficients, the same
    float operations in the same order, and the same dense-output search
    for the stopping events; returns (times, states, nfev, hit, evals)."""
    t_bound, rtol, atol = float(dynamics.T_BUDGET), dynamics.SADDLE_RTOL, dynamics.SADDLE_ATOL
    root_n = math.sqrt(len(y))
    t, f = 0.0, fun(y)
    h_abs, nfev, ts, ys, g = min(t_bound, max_step), 1, [t], [y], events(y)
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
            Q = [[sum([k * p for k, p in zip(ks, col)]) for col in zip(*dynamics._DP_P)]
                 for ks in zip(*K)]

            def dense(s):
                x = (s - t_old) / h
                powers = (x, x * x, x * x * x, x * x * x * x)
                return [b + h * sum([q * p for q, p in zip(qs, powers)])
                        for b, qs in zip(y_old, Q)]

            found = [dynamics._illinois(lambda s: events(dense(s))[i], t_old, t)
                     for i in crossed]
            t, hit = min((t, i) for (t, _), i in zip(found, crossed))
            ts.append(t)
            ys.append(dense(t))
            return ts, ys, nfev, hit, sum(n for _, n in found)
        ts.append(t)
        ys.append(y)
        g = g_new
    return ts, ys, nfev, None, 0


def sweep_csv(values, errors) -> str:
    """The sweep's CSV header and rows, without the monotone footer, as the
    per-row writer wrote them: each solved row's cells "%.17g," one row at
    a time, and an error row as sigma, a comma per remaining value column
    and the message."""
    solved_row = "%.17g," * (len(_SWEEP_COLUMNS) - 1)
    error_cells = "," * (len(_SWEEP_COLUMNS) - 1)
    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [
        format(row[0], ".17g") + error_cells + err if err else solved_row % tuple(row)
        for row, err in zip(values.tolist(), errors)
    ]
    return "\n".join(lines) + "\n"


def sweep_footer(values, errors) -> str:
    """The sweep's monotone footer as the former writer computed it: the
    columns whose numpy differences between consecutive solved rows are all
    positive, or all negative, where at least two rows solved."""
    import numpy as np

    ok = np.array(values, dtype=float)[[not e for e in errors]]
    diffs = np.diff(ok, axis=0)
    inc, dec = [], []
    if len(ok) >= 2:
        for j, col in enumerate(_SWEEP_COLUMNS[:-1]):
            if np.all(diffs[:, j] > 0):
                inc.append(col)
            elif np.all(diffs[:, j] < 0):
                dec.append(col)
    return (
        f"# monotone_increasing: {','.join(inc)}\n"
        f"# monotone_decreasing: {','.join(dec)}\n"
    )
