"""CES technologies and the auxiliary scalars of the differential system.

Everything here is a pure function of its arguments.
"""

from .errors import ParameterError
from .params import ModelParams

# Denominator guards of the reduced system: a floor on |u - v|, and one on
# |T| relative to its terms (stability._check_r).
UV_GAP_FLOOR = 1e-12
R_FLOOR = 1e-14


def tau_of(u: float, v: float) -> float:
    """tau = v(1-u) / (u(1-v))."""
    if not (0.0 < u < 1.0) or not (0.0 < v < 1.0):
        raise ParameterError(f"u, v must be strictly inside (0,1), got u={u}, v={v}")
    return v * (1.0 - u) / (u * (1.0 - v))


def sector_rates(w, params: ModelParams) -> tuple:
    """Sector rates at the effective capital ratio w, as a plain tuple.

    w is a positive float, a complex number with positive real part
    (dynamics' transverse-half eigenvector and curvature differentiate
    through it by complex steps) or a numpy array of
    positive floats, read elementwise; every power base is then positive:
    w, theta and P_i > 1 - alpha_i > 0.

    Returns (P1, P2, S1, S2, Y1, MPK, Y2, MPH, P) where
    S1 = alpha1 w^psi1 and S2 = alpha2 theta^{-psi2/(1-psi2)} w^{psi2(1-psi1)/(1-psi2)}
    are the share terms (params.rate_terms holds S2's factor and exponent)
    and P1 = S1 + 1 - alpha1, P2 = S2 + 1 - alpha2;
    Y1 = A1 P1^{1/psi1} is goods output per unit hu and
    MPK = alpha1 A1 w^{psi1-1} P1^{1/psi1-1} its marginal product of capital;
    Y2 = A2 P2^{1/psi2} is education output per unit h(1-u) at the
    interior-optimum allocation and MPH = (1-alpha2) A2 P2^{1/psi2-1} its
    marginal product of human capital; P = MPK - MPH - (delta_k - delta_h)
    is the BGP gap. Every use of these rates in the package reads them from
    here.
    """
    nonpositive = w.real <= 0.0
    family = getattr(w, "ndim", 0) > 0  # params.is_array(w), inlined on the hot path
    if nonpositive.any() if family else nonpositive:
        raise ParameterError(f"w must be positive, got {w.real.min() if family else w.real}")
    (alpha1, one_less_alpha1, one_less_alpha2, psi1, _, inv_psi1, inv_psi2,
     s2_factor, s2_exponent, a1, a2, delta_gap) = params.rate_terms
    s1 = alpha1 * w**psi1
    s2 = s2_factor * w**s2_exponent
    # 1 - alpha is summed first: it is exact for alpha >= 1/2, while s + 1
    # would round away a share term far below 1.
    p1 = s1 + one_less_alpha1
    p2 = s2 + one_less_alpha2
    y1 = a1 * p1**inv_psi1
    y2 = a2 * p2**inv_psi2
    mpk = y1 * s1 / (w * p1)
    mph = one_less_alpha2 * y2 / p2
    gap = mpk - mph - delta_gap
    return p1, p2, s1, s2, y1, mpk, y2, mph, gap


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


def consumption_growth(mpk, params: ModelParams):
    """The Keynes-Ramsey rule: consumption grows at (MPK - rho - delta_k)/eps,
    for mpk a float, a complex number, an mpmath number or an array."""
    return (mpk - params.rho - params.delta_k) / params.eps


def aux_from_wuv(w, u, v, params: ModelParams, rates: tuple | None = None) -> tuple:
    """(D, P, T, G1, G2, Q, R, X) at (w, u, v) as a plain tuple, the one
    place they are written, from rates, the sector_rates tuple at w, where
    the caller has it:

    D  : growth-rate wedge hdot/h - kdot/k - c/k
    P  : BGP gap (zero on the balanced growth path)
    T  : numerator of the share difference; R = (1-psi1)(1-psi2) T
    G1 : (psi1-psi2) u + 1 - psi1, G2 analogous in v
    Q  : P1 P2
    X  : r(w) + delta_k - (v/w) Y1, consumption growth less capital growth
         without the -c/k term, so qdot/q = q + X

    They involve only powers of w (positive) and u, v linearly, so they
    extend smoothly to allocations outside (0, 1); stable-manifold
    construction relies on that.
    """
    p1, p2, s1, s2, y1, mpk, y2, _, gap = rates or sector_rates(w, params)
    _, one_less_alpha1, one_less_alpha2, psi1, psi2, *_ = params.rate_terms
    t = one_less_alpha2 * s1 - one_less_alpha1 * s2
    y1_k = v / w * y1
    return (
        (1.0 - u) * y2 - y1_k + params.delta_k - params.delta_h,
        gap,
        t,
        (psi1 - psi2) * u + 1.0 - psi1,
        (psi1 - psi2) * v + 1.0 - psi1,
        p1 * p2,
        (1.0 - psi1) * (1.0 - psi2) * t,
        consumption_growth(mpk, params) + params.delta_k - y1_k,
    )
