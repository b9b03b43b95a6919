"""Reduced 4-D dynamics and its equations on the plane F = 0, Jacobian,
eigenvalues and saddle-path classification."""

from typing import NamedTuple

from .core import R_FLOOR, UV_GAP_FLOOR, aux_from_wuv, consumption_growth, sector_rates
from .errors import SingularStateError
from .params import ModelParams
from .steady import SteadyState, rates_slope, steady_state


def _checked_w(z, q, u, v):
    """w = (v/u) z at the state (z, q, u, v), after two of the reduced
    system's guards: SingularStateError where |u - v| < UV_GAP_FLOOR or
    where w is not positive."""
    if abs(u - v) < UV_GAP_FLOOR:
        raise SingularStateError(f"u - v = {u - v} too small", state=(z, q, u, v))
    w = v / u * z if u else 0.0
    if w.real <= 0.0:
        raise SingularStateError(f"w = (v/u) z not positive at u={u}, v={v}, z={z}",
                                 state=(z, q, u, v))
    return w


def _check_r(t, r, rates: tuple, params: ModelParams, state: tuple) -> None:
    """The third guard: SingularStateError where |T| is below R_FLOOR times
    (1 - alpha2) S1 + (1 - alpha1) S2. T is those terms' difference, so
    there it is their rounding, and R = (1 - psi1)(1 - psi2) T with it."""
    _, _, s1, s2, *_ = rates
    _, one_less_alpha1, one_less_alpha2, *_ = params.rate_terms
    if abs(t) < R_FLOOR * abs(one_less_alpha2 * s1 + one_less_alpha1 * s2):
        raise SingularStateError(f"R = {r} vanishes", state=state)


def rhs_reduced_values(
    z: float, q: float, u: float, v: float, params: ModelParams
) -> tuple:
    """Time derivatives (zdot, qdot, udot, vdot) of the stationary coordinates.

    The coordinates need not lie in the (0,1) box: the reduced equations
    only involve powers of w = (v/u) z and the allocations linearly, so
    they extend smoothly past u = 1 or v = 1; the stable manifold can
    traverse that region. Complex or mpmath coordinates run the same code.
    """
    w = _checked_w(z, q, u, v)
    rates = sector_rates(w, params)
    d, gap, t, g1, g2, pq, r, x = aux_from_wuv(w, u, v, params, rates)
    _check_r(t, r, rates, params, (z, q, u, v))

    zdot = -(d + q) * z
    qdot = (x + q) * q
    udot = (d + q + g2 * pq * gap / r) * u * (1.0 - u) / (u - v)
    vdot = (d + q + g1 * pq * gap / r) * v * (1.0 - v) / (u - v)
    return zdot, qdot, udot, vdot


def jacobian_fd(z: float, q: float, u: float, v: float, params: ModelParams) -> tuple:
    """The Jacobian of rhs_reduced_values at (z, q, u, v), as four rows of
    floats, in closed form from one real sector_rates call. Any state the
    rhs accepts will do, on the balanced path or off it, past u, v > 1
    too, and it raises the rhs's SingularStateError where the rhs does.

    The rhs is

        zdot = -(D + q) z,   qdot = (X + q) q,
        udot = (D + q + G2 K) u(1 - u)/(u - v),
        vdot = (D + q + G1 K) v(1 - v)/(u - v),

    with K = Q P/R and D, X, G1, G2, Q, R = (1 - psi1)(1 - psi2) T from
    core.aux_from_wuv. It reads u and v directly and everything else
    through w = (v/u) z, with grad w = w (1/z, 0, -1/u, 1/v). So with
    f' = w df/dw, a function f(w, u, v) has the gradient
    f' (1/z, 0, -1/u, 1/v) + (0, 0, df/du, df/dv). Of the rates,

        S1' = psi1 S1,  S2' = e S2,  e = psi2 (1 - psi1)/(1 - psi2),
        Y1' = Y1 S1/P1,  Y2' = e Y2 S2/(psi2 P2),  P' = dP/d ln w,
        MPK' = -(1 - psi1)(1 - alpha1) MPK/P1,

    P' from steady.rates_slope, and T' = (1 - alpha2) S1'
    - (1 - alpha1) S2', Q' = S1' P2 + P1 S2'. By the product rule,
    with X = (MPK - rho - delta_k)/eps + delta_k - (v/w) Y1,

        D' = (1 - u) Y2' + (v/w) Y1 (1 - alpha1)/P1,
        dD/du = -Y2,  dD/dv = -Y1/w,  dG2/dv = dG1/du = psi1 - psi2,
        X' = (1 - alpha1)/P1 ((v/w) Y1 - (1 - psi1) MPK/eps),
        dX/dv = -Y1/w,   K' = (Q' P + Q P')/R - K T'/T,

    and the factors u(1 - u)/(u - v) and v(1 - v)/(u - v) are
    differentiated in u and v directly.
    """
    w = _checked_w(z, q, u, v)
    rates = sector_rates(w, params)
    d, gap, t, g1, g2, pq, r, x = aux_from_wuv(w, u, v, params, rates)
    _check_r(t, r, rates, params, (z, q, u, v))
    p1, p2, s1, s2, y1, mpk, y2, _, _ = rates
    (_, one_less_alpha1, one_less_alpha2, psi1, psi2,
     _, inv_psi2, _, e, _, _, _) = params.rate_terms
    ds1, ds2 = psi1 * s1, e * s2
    y1_w = y1 / w

    dd = (1.0 - u) * e * inv_psi2 * y2 * s2 / p2 + v * y1_w * one_less_alpha1 / p1
    dx = one_less_alpha1 / p1 * (v * y1_w - (1.0 - psi1) * mpk / params.eps)
    k = pq * gap / r
    dk = (((ds1 * p2 + p1 * ds2) * gap + pq * rates_slope(rates, params)) / r
          - k * (one_less_alpha2 * ds1 - one_less_alpha1 * ds2) / t)

    dpsi = psi1 - psi2
    nu, nv = d + q + g2 * k, d + q + g1 * k
    dnu, dnv = dd + g2 * dk, dd + g1 * dk
    uv = u - v
    fu, fv = u * (1.0 - u) / uv, v * (1.0 - v) / uv
    return (
        (-(d + q) - dd, -z, z * (dd / u + y2), -z * (dd / v - y1_w)),
        (q * dx / z, x + 2.0 * q, -q * dx / u, q * (dx / v - y1_w)),
        (fu * dnu / z, fu, -fu * (dnu / u + y2) + nu * (1.0 - 2.0 * u - fu) / uv,
         fu * (dnu / v - y1_w + dpsi * k) + nu * fu / uv),
        (fv * dnv / z, fv, fv * (dpsi * k - dnv / u - y2) - nv * fv / uv,
         fv * (dnv / v - y1_w) + nv * (1.0 - 2.0 * v + fv) / uv),
    )


def plane_terms(w, params: ModelParams, rates: tuple | None = None) -> tuple:
    """(a, b, c, e, g, tau0) at the effective capital ratio w, a float (or
    mpmath or complex in the tests' oracles), from rates, the sector_rates
    tuple at w, where the caller has it, or one sector_rates call: the one
    place the reduced system on F = 0 is written. With gamma = tau0/(tau0 - 1),
    T = (1 - alpha2) S1 - (1 - alpha1) S2, r(w) = core.consumption_growth(MPK)
    and the rates of sector_rates,

        a = gamma (Y2 - Y1/w) + delta_k - delta_h,    b = -gamma Y2/w,
        c = Y1/(tau0 - 1),    e = gamma Y1/w - r(w) - delta_k,
        g = w P1 P2 P/((1 - psi1) T),    tau0 = (1 - alpha2) S1/((1 - alpha1) S2),

    the state moves as w' = g(w), z' = -(b z^2 + (a + q) z + c) and
    q' = q (q - e + c/z).

    These are rhs_reduced_values' equations where u and v are
    allocations(tau0, w, z), F = 0: there 1 - u = gamma (1 - z/w) and
    v/w = gamma/w - 1/((tau0 - 1) z). SingularStateError at g's pole,
    tau0(w) = 1.
    """
    p1, p2, s1, s2, y1, mpk, y2, _, gap = rates or sector_rates(w, params)
    _, one_less_alpha1, one_less_alpha2, psi1, *_ = params.rate_terms
    t = one_less_alpha2 * s1 - one_less_alpha1 * s2
    tau0 = one_less_alpha2 * s1 / (one_less_alpha1 * s2)
    if not t or tau0 == 1.0:
        raise SingularStateError(f"tau0(w) = 1 at w = {w}", state=(w,))
    gamma, y1_w = tau0 / (tau0 - 1.0), y1 / w
    return (gamma * (y2 - y1_w) + params.delta_k - params.delta_h,
            -gamma * y2 / w,
            y1 / (tau0 - 1.0),
            gamma * y1_w - consumption_growth(mpk, params) - params.delta_k,
            w * p1 * p2 * gap / ((1.0 - psi1) * t),
            tau0)


def shadow_price(w, rates: tuple):
    """p = (Y1 - w MPK)/MPH at w, from the sector_rates tuple there: the
    price of h in units of k, at which wealth is k + p h."""
    _, _, _, _, y1, mpk, _, mph, _ = rates
    return (y1 - w * mpk) / mph


def allocations(tau0, w, z) -> tuple:
    """(u, v) on F = 0 at (w, z), for tau0 = tau0(w): u = (tau0 z/w - 1)/(tau0 - 1)
    and v = (tau0 - w/z)/(tau0 - 1). u = v at z = w, the corner u = v = 1,
    and at z = w/tau0, where u = v = 0."""
    return (tau0 * z / w - 1.0) / (tau0 - 1.0), (tau0 - w / z) / (tau0 - 1.0)


def _j2(terms, z, q) -> tuple:
    """(j11, j12, j21, j22): J2, the Jacobian of (z', q') in (z, q) on the
    plane at a fixed point (z, q), in rate form: diag(z, q) times the
    Jacobian of z'/z = -(b z + a + q + c/z) and q'/q = q - e + c/z, which
    vanish there. No value of z' or q' at the fixed point enters it, so
    the rounding of the (1 - u) Y2 term of z' where u is near 1 does not."""
    _, b, c, *_ = terms
    return c / z - b * z, -z, -q * c / (z * z), q


def eigen4(ss: SteadyState, params: ModelParams, rates: tuple | None = None,
           terms: tuple | None = None) -> tuple:
    """The 4-D spectrum at the balanced path ss, {0, lambda_w, theta,
    lambda_J} as complex numbers sorted by (real, imag), in closed form
    from one real sector_rates call, or from the rates and plane_terms at
    w* that the caller passes.

    The static efficiency condition F = ln tau - ln tau0(w) is conserved
    by the flow, and w = (v/u) z follows w' = g(w) whatever the other
    coordinates (plane_terms). So the spectrum is an exact 0 for F,
    lambda_w = g'(w*) and the pair of J2, the Jacobian of (z', q') in
    (z, q) on the invariant plane w = w*, F = 0 (_j2). As P(w*) = 0,

        lambda_w = P1 P2 (dP/d ln w)/((1 - psi1) T),

    with dP/d ln w < 0 from steady.rates_slope. As T = (1 - alpha1) S2
    (tau0 - 1), sign lambda_w = sign(1 - tau0*): the factor-intensity
    ranking of Bond, Wang & Yip (1996).

    J2's pair is theta = ss.tvc_margin, the transversality margin, and
    lambda_J = -b z* q*/theta = -b (z* + p), p = shadow_price(w*). Proof:
    x*'s equations z' = q' = 0 give c/z* = e - q* and a = -b z* - e, so
    J2 (_j2) has trace e - b z* and determinant -b z* q*. As gamma (Y1 -
    Y2 p) = w MPK, e + b p = MPK - r(w) - delta_k = theta at every w, and
    x* lies on the plane's stable hyperbola q = theta (1 + p/z)
    (dynamics._plane_path), so theta^2 - (e - b z*) theta - b z* q* =
    theta (theta - e - b p) = 0: theta is a root, and det/theta = -b (z*
    + p) the other. theta > 0, or steady_state raises TvcViolationError.
    p = Y1 (1 - alpha1)/(P1 MPH) > 0, so q* > 0, and lambda_J = gamma Y2
    (z* + p)/w* = gamma Y2 z* q*/(w* theta), gamma = tau0*/(tau0* - 1),
    has the sign of tau0* - 1, opposite to lambda_w's; at tau0* = 1
    plane_terms raises SingularStateError. So the spectrum is real, and
    exactly one root is negative: lambda_J where tau0* < 1, lambda_w
    where tau0* > 1. Every balanced path is a saddle, as Bond, Wang & Yip
    find; indeterminacy needs externalities (Benhabib & Perli 1994), and
    the model has none. lambda_J is taken as -b (z* + p), the plane
    path's decay rate, as it reads no q*, which cancels where it is
    small. A real eigenvalue has imaginary part +0.0.
    """
    rates = rates or sector_rates(ss.w_star, params)
    terms = terms or plane_terms(ss.w_star, params, rates)
    p1, p2, s1, s2, *_ = rates
    _, one_less_alpha1, one_less_alpha2, psi1, *_ = params.rate_terms
    lambda_w = p1 * p2 * rates_slope(rates, params) / (
        (1.0 - psi1) * (one_less_alpha2 * s1 - one_less_alpha1 * s2))
    lambda_j = -terms[1] * (ss.z_star + shadow_price(ss.w_star, rates))
    spectrum = [0j] + [complex(x, 0.0) for x in (lambda_w, ss.tvc_margin, lambda_j)]
    return tuple(sorted(spectrum, key=lambda x: (x.real, x.imag)))


def g_curvature(w, rates: tuple, params: ModelParams):
    """g''(w) at a root w of P, from the sector_rates tuple at w. With f' =
    df/d ln w, g = w K P and K = P1 P2/((1 - psi1) T); at P = 0, g'(w) = K P'
    (eigen4's lambda_w) and w g'' = K ((1 + 2 K'/K) P' + P''), where K'/K =
    psi1 S1/P1 + e S2/P2 - T'/T, T' = (1 - alpha2) psi1 S1 - (1 - alpha1) e S2,
    e = rate_terms[8], P' is steady.rates_slope and, as MPK' = -(1 - psi1)(1 -
    alpha1) MPK/P1 and MPH' = (1 - psi1) MPH S2/P2, P'' = (1 - psi1)((1 - alpha1)
    MPK ((1 - psi1)(1 - alpha1) + psi1 S1)/P1^2 - MPH (S2/P2)(e + (1 - psi1 - e) S2/P2))."""
    p1, p2, s1, s2, _, mpk, _, mph, _ = rates
    _, one_less_alpha1, one_less_alpha2, psi1, *_, e, _, _, _ = params.rate_terms
    t, x2 = one_less_alpha2 * s1 - one_less_alpha1 * s2, s2 / p2
    dk = psi1 * s1 / p1 + e * x2 - (one_less_alpha2 * psi1 * s1 - one_less_alpha1 * e * s2) / t
    d2p = (1.0 - psi1) * (one_less_alpha1 * mpk * ((1.0 - psi1) * one_less_alpha1 + psi1 * s1)
                          / (p1 * p1) - mph * x2 * (e + (1.0 - psi1 - e) * x2))
    slope = (1.0 + 2.0 * dk) * rates_slope(rates, params) + d2p
    return p1 * p2 * slope / ((1.0 - psi1) * t * w)


class StabilityReport(NamedTuple):
    """Jacobian (four rows), spectrum and classification at the steady state."""

    steady: SteadyState
    jacobian: tuple
    eigenvalues: tuple
    n_stable: int
    classification: str


def classify(eigenvalues) -> tuple[int, str]:
    """(n_stable, label) of a spectrum of the 4-D system: the stated check
    of eigen4's theorem that labels StabilityReport. It gives (1,
    "saddle_path") on every balanced path steady_state returns; the other
    labels are reached only by spectra from elsewhere, such as LAPACK's.

    The eigenvalue of least |Re| is the structural zero: the static
    efficiency condition ln tau = ln tau0(w) is conserved by the flow, so
    its gradient is a left null vector of the Jacobian. The other three
    are stable where Re < 0; a real part of exactly 0.0 is not stable.
    One stable root makes a saddle path, three a sink, none a source and
    two a degenerate point.
    """
    re = [x.real for x in eigenvalues]
    re.remove(min(re, key=abs))
    n_stable = len([x for x in re if x < 0.0])
    return n_stable, {1: "saddle_path", 3: "sink", 0: "source"}.get(n_stable, "degenerate")


def stability_report(params: ModelParams) -> StabilityReport:
    """Solve the BGP, linearize around it and classify the local dynamics."""
    ss = steady_state(params)
    jac = jacobian_fd(ss.z_star, ss.q_star, ss.u_star, ss.v_star, params)
    ev = eigen4(ss, params)
    n_stable, label = classify(ev)
    return StabilityReport(
        steady=ss,
        jacobian=jac,
        eigenvalues=ev,
        n_stable=n_stable,
        classification=label,
    )
