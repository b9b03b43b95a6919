"""CES technologies and the auxiliary scalars of the differential system.

Everything here is a pure function of its arguments.
"""

import math
import sys
from typing import NamedTuple

from .errors import ParameterError, SingularStateError
from .params import LevelState, ModelParams, ReducedState

# Denominator guards of the reduced system.
UV_GAP_FLOOR = 1e-12
R_FLOOR = 1e-14


def powz(base: float, expo: float) -> float:
    """base**expo via exp(expo * log(base)); base must be positive."""
    return math.exp(expo * math.log(base))


def w_of(state: ReducedState) -> float:
    """Effective capital ratio w = (v/u) z = kv / hu."""
    return state.v / state.u * state.z


def tau_of(u: float, v: float) -> float:
    """tau = v(1-u) / (u(1-v))."""
    if not (0.0 < u < 1.0) or not (0.0 < v < 1.0):
        raise ParameterError(f"u, v must be strictly inside (0,1), got u={u}, v={v}")
    return v * (1.0 - u) / (u * (1.0 - v))


def sector_rates(w, params: ModelParams) -> tuple:
    """Sector rates at the effective capital ratio w, as a plain tuple.

    w is a positive float, a complex number with positive real part (the
    complex-step Jacobian differentiates through it) or a numpy array of
    positive floats, read elementwise; every power base is then positive:
    w, theta and P_i > 1 - alpha_i > 0.

    Returns (P1, P2, S1, S2, Y1, MPK, Y2, MPH, P) where
    S1 = alpha1 w^psi1 and S2 = alpha2 theta^{-psi2/(1-psi2)} w^{psi2(1-psi1)/(1-psi2)}
    are the share terms (params.s2_terms holds S2's factor and exponent)
    and P1 = S1 + 1 - alpha1, P2 = S2 + 1 - alpha2;
    Y1 = A1 P1^{1/psi1} is goods output per unit hu and
    MPK = alpha1 A1 w^{psi1-1} P1^{1/psi1-1} its marginal product of capital;
    Y2 = A2 P2^{1/psi2} is education output per unit h(1-u) at the
    interior-optimum allocation and MPH = (1-alpha2) A2 P2^{1/psi2-1} its
    marginal product of human capital; P = MPK - MPH - (delta_k - delta_h)
    is the BGP gap. Every use of these rates reads them from here, except
    the level-system oracle rhs_full.
    """
    nonpositive = w.real <= 0.0
    family = getattr(w, "ndim", 0) > 0  # params.is_array(w), inlined on the hot path
    if nonpositive.any() if family else nonpositive:
        raise ParameterError(f"w must be positive, got {w.real.min() if family else w.real}")
    psi1, psi2 = params.psi1, params.psi2
    s2_factor, s2_exponent = params.s2_terms
    s1 = params.alpha1 * w**psi1
    s2 = s2_factor * w**s2_exponent
    # 1 - alpha is summed first: it is exact for alpha >= 1/2, while s + 1
    # would round away a share term far below 1.
    p1 = s1 + (1.0 - params.alpha1)
    p2 = s2 + (1.0 - params.alpha2)
    y1 = params.A1 * p1 ** (1.0 / psi1)
    y2 = params.A2 * p2 ** (1.0 / psi2)
    mpk = y1 * s1 / (w * p1)
    mph = (1.0 - params.alpha2) * y2 / p2
    gap = mpk - mph - (params.delta_k - params.delta_h)
    return p1, p2, s1, s2, y1, mpk, y2, mph, gap


def p1_of(w: float, params: ModelParams) -> float:
    """P1 = alpha1 w^psi1 + 1 - alpha1."""
    return sector_rates(w, params)[0]


def p2_of(w: float, params: ModelParams) -> float:
    """P2 = alpha2 theta^{-psi2/(1-psi2)} w^{psi2(1-psi1)/(1-psi2)} + 1 - alpha2."""
    return sector_rates(w, params)[1]


def y1_of(k: float, h: float, u: float, v: float, params: ModelParams) -> float:
    """Goods output y1 = A1 [alpha1 (kv)^psi1 + (1-alpha1)(hu)^psi1]^{1/psi1}."""
    psi = params.psi1
    inner = params.alpha1 * (k * v) ** psi + (1.0 - params.alpha1) * (h * u) ** psi
    return params.A1 * inner ** (1.0 / psi)


def y2_of(k: float, h: float, u: float, v: float, params: ModelParams) -> float:
    """Education output y2 = A2 {alpha2 [k(1-v)]^psi2 + (1-alpha2)[h(1-u)]^psi2}^{1/psi2}."""
    psi = params.psi2
    inner = (
        params.alpha2 * (k * (1.0 - v)) ** psi
        + (1.0 - params.alpha2) * (h * (1.0 - u)) ** psi
    )
    return params.A2 * inner ** (1.0 / psi)


class AuxBundle(NamedTuple):
    """All auxiliary scalars evaluated at one state, as an immutable named tuple.

    D  : growth-rate wedge hdot/h - kdot/k - c/k
    P  : BGP gap (zero on the balanced growth path)
    T  : numerator of the share difference; R = (1-psi1)(1-psi2) T
    G1 : (psi1-psi2) u + 1 - psi1, G2 analogous in v
    Q  : P1 P2
    P_eps : alpha1 (eps v - 1) w^psi1 + eps (1-alpha1) v
    H  : w^{-1} P1^{1/psi1 - 1} P_eps (the coefficient of A1/eps in qdot)
    """

    D: float
    P: float
    T: float
    G1: float
    G2: float
    Q: float
    R: float
    P_eps: float
    H: float

    @property
    def singular(self) -> bool:
        """True when R vanished (T = 0), a singular configuration."""
        return abs(self.R) < R_FLOOR


def aux_of(state: ReducedState, params: ModelParams) -> AuxBundle:
    """Evaluate the full auxiliary bundle at a reduced state."""
    return aux_from_wuv(w_of(state), state.u, state.v, params)


def aux_from_wuv(w: float, u: float, v: float, params: ModelParams) -> AuxBundle:
    """Auxiliary bundle from (w, u, v) directly.

    The bundle only involves powers of w (positive) and u, v linearly, so
    it extends smoothly to allocations outside (0, 1); stable-manifold
    construction relies on that.
    """
    p1, p2, s1, s2, y1, _, y2, _, gap = sector_rates(w, params)
    psi1, psi2 = params.psi1, params.psi2
    t = (1.0 - params.alpha2) * s1 - (1.0 - params.alpha1) * s2
    p_eps = (params.eps * v - 1.0) * s1 + params.eps * (1.0 - params.alpha1) * v
    return AuxBundle(
        D=(1.0 - u) * y2 - v / w * y1 + params.delta_k - params.delta_h,
        P=gap,
        T=t,
        G1=(psi1 - psi2) * u + 1.0 - psi1,
        G2=(psi1 - psi2) * v + 1.0 - psi1,
        Q=p1 * p2,
        R=(1.0 - psi1) * (1.0 - psi2) * t,
        P_eps=p_eps,
        H=y1 / (params.A1 * p1) * p_eps / w,
    )


def costate_ratio(w: float, params: ModelParams) -> float:
    """mu/lambda = A1 alpha1 / (A2 alpha2 theta) * P1^{1/psi1-1} / P2^{1/psi2-1}.

    That is the goods sector's marginal product of human capital,
    (1-alpha1) A1 P1^{1/psi1-1}, over the education sector's.
    """
    p1, _, _, _, y1, _, _, mph, _ = sector_rates(w, params)
    return (1.0 - params.alpha1) * y1 / p1 / mph


def rhs_full(state: LevelState, params: ModelParams) -> tuple:
    """Time derivatives (kdot, hdot, cdot, udot, vdot) of the level system.

    The tests' level-system oracle: the growth rates of k, h and c are
    written out here from P1 and P2, not read from sector_rates, so that
    comparing this with rhs_reduced checks the kernel.
    """
    k, h, c, u, v = state.k, state.h, state.c, state.u, state.v
    if abs(u - v) < UV_GAP_FLOOR:
        raise SingularStateError(f"u - v = {u - v} too small", state=state)
    z = k / h
    w = v / u * z
    reduced = ReducedState(z=z, q=max(c / k, sys.float_info.min), u=u, v=v)
    bun = aux_of(reduced, params)
    if bun.singular:
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
