"""Balanced-growth-path solver.

The BGP reduces to one scalar equation P(w) = 0 in the effective capital
ratio w, where the gap P is the goods MPK less the education MPH less
(delta_k - delta_h). Its limits at w -> 0+ and w -> +inf depend on the
signs of psi1 and psi2: for psi1 > 0 the goods MPK tends to
A1 alpha1^{1/psi1} as w -> +inf instead of to zero, so P need not change
sign. Where it does, a sign-change bracket plus a safeguarded Newton
iteration is enough; where it does not, solve_w raises NoBracketError.
All starred quantities follow in closed form (closed_forms).

P falls strictly in w for every economy ModelParams accepts with A2 > 0,
so a sign change brackets exactly one root. With
g = alpha1 + (1-alpha1) w^{-psi1}, MPK = alpha1 A1 g^{(1-psi1)/psi1} and

    d MPK/dw = -alpha1 A1 (1-psi1)(1-alpha1) g^{(1-2 psi1)/psi1} w^{-psi1-1} < 0;

with e = psi2 (1-psi1)/(1-psi2), MPH = (1-alpha2) A2 P2^{(1-psi2)/psi2} and

    d MPH/dw = (1-alpha2) alpha2 A2 (1-psi1) theta^{-psi2/(1-psi2)}
               P2^{(1-2 psi2)/psi2} w^{e-1} > 0,

since psi1 < 1 and g, P2, theta > 0.

solve_w and closed_forms take one economy (a ModelParams of floats) or a
family (a ModelParams of arrays, one economy per element) through the
same code: a float stays a Python float or complex number throughout.
"""

import math
from dataclasses import dataclass

from .core import aux_from_wuv, sector_rates
from .errors import (
    AllocationOutOfRangeError,
    NoBracketError,
    NoConvergenceError,
    ParameterError,
    TvcViolationError,
)
from .params import ModelParams, is_array

MAX_BRACKET_EXPANSIONS = 40
# Newton refinement: the imaginary step of the slope, the Newton step in
# ln w below which an iterate is accepted, and the cap on iterations.
COMPLEX_STEP = 1e-20
NEWTON_RTOL = 1e-12
MAX_NEWTON_STEPS = 60


@dataclass(frozen=True)
class SteadyState:
    """Solved BGP quantities."""

    w_star: float
    z_star: float
    q_star: float
    u_star: float
    v_star: float
    r_star: float
    tau0: float
    pi1k: float
    pi2k: float
    tvc_margin: float


def gap_P(w: float, params: ModelParams) -> float:
    """BGP gap P(w) = a1 A1 w^{psi1-1} P1^{1/psi1-1} - (1-a2) A2 P2^{1/psi2-1} - (dk-dh)."""
    return sector_rates(w, params)[8]


def _where(cond, a, b):
    """a where cond holds, else b, for a float or an array."""
    if not is_array(cond):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b)


def _exp(x):
    """e**x for a float or an array."""
    if not is_array(x):
        return math.exp(x)
    import numpy as np

    return np.exp(x)


def _gap(w, params: ModelParams):
    """gap_P(w), or nan where a computation on floats overflows."""
    try:
        return gap_P(w, params)
    except OverflowError:
        return math.nan


def solve_w(params: ModelParams):
    """The root of gap_P, for one economy or a family held as arrays.

    params holds floats (one economy) or arrays (one economy per element),
    and the root comes back the same way. The bracket is grown from w = 1
    by a factor 10, at most 40 times per side, until the gap changes sign;
    it ends at the first w where the gap overflows or is not finite. A
    safeguarded Newton iteration in ln w then refines it. Its slope
    d gap_P / d ln w is the complex step Im gap_P(w e^{ih}) / h through
    sector_rates. An iterate is accepted once the Newton step it proposes
    is at most NEWTON_RTOL, and a proposal outside the bracket is replaced
    by the bracket's geometric midpoint.

    One economy raises ParameterError for A2 <= 0, NoBracketError where
    no bracket is found and NoConvergenceError where the iteration does
    not settle within MAX_NEWTON_STEPS. A family member comes back nan in
    each of these cases. Run a family under np.errstate: such members
    overflow.
    """
    g_one = _gap(1.0, params)
    family = is_array(g_one)
    if not (family or params.A2 > 0.0):
        raise ParameterError("solve_w requires A2 > 0")
    ok = (params.A2 > 0.0) & (abs(g_one) < math.inf)
    ends = []
    for down in (True, False):
        w, g = 1.0, g_one
        for _ in range(MAX_BRACKET_EXPANSIONS):
            grow = ok & ((g <= 0.0) if down else (g >= 0.0))
            if not (grow.any() if family else grow):
                break
            w = _where(grow, w / 10.0 if down else w * 10.0, w)
            g = _gap(w, params)
            ok = ok & (abs(g) < math.inf)
        ends.append((w, g))
    (lo, g_lo), (hi, g_hi) = ends
    if family:
        ok = ok & (g_lo > 0.0) & (g_hi < 0.0)
    else:
        for w, g in ends:
            if not abs(g) < math.inf:
                raise NoBracketError(
                    f"no sign change of gap_P before it stops being finite at w = {w:g}"
                )
        if not (g_lo > 0.0 and g_hi < 0.0):
            raise NoBracketError(
                f"no sign change of gap_P in [{lo:g}, {hi:g}] "
                f"(gap_P({lo:g})={g_lo:g}, gap_P({hi:g})={g_hi:g})"
            )

    root = math.nan * g_one
    w = (lo * hi) ** 0.5
    for _ in range(MAX_NEWTON_STEPS):
        if not (ok.any() if family else ok):
            break
        g_c = gap_P(w * complex(1.0, COMPLEX_STEP), params)
        g, slope = g_c.real, g_c.imag / COMPLEX_STEP
        lo = _where(ok & (g > 0.0), w, lo)
        hi = _where(ok & (g < 0.0), w, hi)
        step = -g / slope
        proposal = w * _exp(step)
        done = ok & (abs(step) <= NEWTON_RTOL)
        root = _where(done, proposal, root)
        ok = ok ^ done  # done holds only where ok does
        w = _where((lo < proposal) & (proposal < hi), proposal, (lo * hi) ** 0.5)
    if not family and ok:
        raise NoConvergenceError(
            f"Newton iteration for gap_P's root did not settle within "
            f"{MAX_NEWTON_STEPS} steps in [{lo:g}, {hi:g}]"
        )
    return root


def transversality(params: ModelParams, r_star):
    """Margin rho + (eps - 1) r*; positive iff both transversality limits are negative."""
    return params.rho + (params.eps - 1.0) * r_star


def closed_forms(w, params: ModelParams) -> SteadyState:
    """The starred quantities at a root w of gap_P, a float or an array.

    Unchecked: where u* or v* leaves (0, 1), the quantities that need
    both are nan, and the margin is returned whatever its sign.
    """
    p1, p2, s1, s2, _, mpk, y2, _, _ = sector_rates(w, params)
    r = (mpk - params.rho - params.delta_k) / params.eps
    # Interior-optimum ratio tau0 = w^{(psi1-psi2)/(1-psi2)} theta^{1/(1-psi2)},
    # read off the share terms.
    tau0 = (1.0 - params.alpha2) * s1 / ((1.0 - params.alpha1) * s2)
    # 1 - u*, kept apart: v*'s denominator 1 - u* + tau0 u* written as
    # 1 + (tau0 - 1) u* cancels when u* is near 1 and tau0 is small.
    one_less_u = (r + params.delta_h) / y2
    u = 1.0 - one_less_u
    # v* is defined only for 0 < u* < 1.
    u_in = _where((0.0 < u) & (u < 1.0), u, math.nan)
    v = tau0 * u_in / (one_less_u + tau0 * u_in)
    v_in = _where((0.0 < v) & (v < 1.0), v, math.nan)
    # q* is the zero of the qdot equation, q = (A1 H + rho - (eps-1) delta_k) / eps.
    a1_h = params.A1 * aux_from_wuv(w, u_in, v_in, params).H
    q = (a1_h + params.rho - params.delta_k * (params.eps - 1.0)) / params.eps
    return SteadyState(
        w_star=w,
        z_star=w * u_in / v_in,
        q_star=q,
        u_star=u,
        v_star=v,
        r_star=r,
        tau0=tau0,
        pi1k=s1 / p1,
        pi2k=s2 / p2,
        tvc_margin=transversality(params, r),
    )


def steady_state(params: ModelParams) -> SteadyState:
    """Assemble the full balanced-growth-path record."""
    ss = closed_forms(solve_w(params), params)
    u, v = ss.u_star, ss.v_star
    if not (0.0 < u < 1.0) or not (0.0 < v < 1.0):
        raise AllocationOutOfRangeError(
            f"steady-state allocations out of range: u*={u}, v*={v}",
            u_star=u,
            v_star=v,
        )
    if ss.tvc_margin <= 0.0:
        raise TvcViolationError(
            f"transversality violated: rho + (eps-1) r* = {ss.tvc_margin}"
        )
    return ss
