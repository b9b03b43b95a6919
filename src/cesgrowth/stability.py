"""Reduced 4-D dynamics, Jacobian, eigenvalues and saddle-path classification."""

import math
from typing import NamedTuple

from .core import R_FLOOR, UV_GAP_FLOOR, aux_from_wuv, sector_rates
from .errors import SingularStateError
from .params import ModelParams
from .steady import COMPLEX_STEP, SteadyState, steady_state


def rhs_reduced_values(
    z: float, q: float, u: float, v: float, params: ModelParams
) -> tuple:
    """Time derivatives (zdot, qdot, udot, vdot) of the stationary coordinates.

    The coordinates need not lie in the (0,1) box: the reduced equations
    only involve powers of w = (v/u) z and the allocations linearly, so
    they extend smoothly past u = 1 or v = 1; the stable manifold can
    traverse that region. Complex coordinates, as jacobian_fd and eigen4
    pass them, run the same code.
    """
    if abs(u - v) < UV_GAP_FLOOR:
        raise SingularStateError(f"u - v = {u - v} too small", state=(z, q, u, v))
    w = v / u * z if u else 0.0
    if w.real <= 0.0:
        raise SingularStateError(f"w = (v/u) z not positive at u={u}, v={v}, z={z}",
                                 state=(z, q, u, v))
    d, gap, _, g1, g2, pq, r, _, h = aux_from_wuv(w, u, v, params)
    if abs(r) < R_FLOOR:
        raise SingularStateError(f"R = {r} vanishes", state=(z, q, u, v))

    zdot = -(d + q) * z
    qdot = (
        q
        - params.A1 * h / params.eps
        - (params.rho - (params.eps - 1.0) * params.delta_k) / params.eps
    ) * q
    udot = (d + q + g2 * pq * gap / r) * u * (1.0 - u) / (u - v)
    vdot = (d + q + g1 * pq * gap / r) * v * (1.0 - v) / (u - v)
    return zdot, qdot, udot, vdot


def jacobian_fd(z: float, q: float, u: float, v: float, params: ModelParams) -> tuple:
    """Complex-step Jacobian of rhs_reduced_values, as four rows of floats.

    Column i is Im rhs(x + i h e_i) / h with h = COMPLEX_STEP (Squire &
    Trapp, SIAM Review 40, 1998): no subtraction, so the error is at
    rounding level and independent of h, from one rhs evaluation per column.
    """
    h = COMPLEX_STEP
    x = [float(z), float(q), float(u), float(v)]
    columns = []
    for i in range(4):
        xi = list(x)
        xi[i] += h * 1j
        columns.append([f.imag / h for f in rhs_reduced_values(*xi, params)])
    return tuple(zip(*columns))


def _roots2(b: float, c: float) -> list:
    """Roots of x^2 + b x + c: two floats, or a complex pair."""
    disc = b * b - 4.0 * c
    if disc < 0.0:
        x = complex(-0.5 * b, 0.5 * math.sqrt(-disc))
        return [x, x.conjugate()]
    t = -0.5 * (b + math.copysign(math.sqrt(disc), b))  # no cancellation
    return [t, c / t] if t else [0.0, 0.0]


def eigen4(ss: SteadyState, params: ModelParams) -> tuple:
    """The 4-D spectrum at the balanced path ss, as complex numbers sorted
    by (real, imag), from the reduced system's triangular split.

    The static efficiency condition F = ln tau - ln tau0(w) is conserved
    by the flow, and w = (v/u) z follows w' = g(w) = w P1 P2 P / ((1 - psi1) T)
    whatever the other coordinates, with T = (1 - alpha2) S1 - (1 - alpha1) S2.
    So the spectrum is an exact 0 for F, lambda_w = g'(w*) and the pair of
    J2, the Jacobian of (zdot, qdot) in (z, q) on the invariant plane
    w = w*, F = 0, where u = (tau0 z/w - 1)/(tau0 - 1) and
    v = (tau0 - w/z)/(tau0 - 1). As P(w*) = 0,
    lambda_w = P1 P2 (dP/d ln w) / ((1 - psi1) T), from one sector_rates
    call at w* (1 + ih), h = COMPLEX_STEP; sign lambda_w = sign(1 - tau0*),
    as P falls in w. zdot/z and qdot/q vanish at x*, so J2 is diag(z*, q*)
    times their Jacobian, one complex step of rhs_reduced_values a column:
    no rounding of the rates' values at x* enters it, which matters where
    u* is near 1 and the (1 - u) Y2 term of zdot is rounding noise. A real
    eigenvalue has imaginary part +0.0, and a complex pair is exactly
    conjugate.
    """
    w, tau0, h = ss.w_star, ss.tau0, COMPLEX_STEP
    columns = []
    for z, q in ((complex(ss.z_star, h), ss.q_star), (ss.z_star, complex(ss.q_star, h))):
        u = (tau0 * z / w - 1.0) / (tau0 - 1.0)
        v = (tau0 - w / z) / (tau0 - 1.0)
        zdot, qdot, _, _ = rhs_reduced_values(z, q, u, v, params)
        columns.append((ss.z_star * (zdot / z).imag / h, ss.q_star * (qdot / q).imag / h))
    (a, c), (b, d) = columns
    p1, p2, s1, s2, _, _, _, _, gap = sector_rates(w * complex(1.0, h), params)
    _, one_less_alpha1, one_less_alpha2, psi1, *_ = params.rate_terms
    t = one_less_alpha2 * s1.real - one_less_alpha1 * s2.real
    lam_w = p1.real * p2.real * (gap.imag / h) / ((1.0 - psi1) * t)
    pair = [complex(x) for x in _roots2(-(a + d), a * d - b * c)]
    return tuple(sorted([0j, complex(lam_w, 0.0)] + pair, key=lambda x: (x.real, x.imag)))


class StabilityReport(NamedTuple):
    """Jacobian (four rows), spectrum and classification at the steady state."""

    steady: SteadyState
    jacobian: tuple
    eigenvalues: tuple
    n_stable: int
    classification: str


def classify(eigenvalues) -> tuple[int, str]:
    """(n_stable, label) of a spectrum of the 4-D system.

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
