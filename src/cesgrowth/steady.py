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
family (a ModelParams of arrays, one economy per element). solve_w takes
the same steps on both: on Python floats for one, masked for a family.
"""

import math
from typing import NamedTuple

from .core import consumption_growth, sector_rates
from .errors import (
    AllocationOutOfRangeError,
    NoBracketError,
    NoConvergenceError,
    ParameterError,
    TvcViolationError,
)
from .params import ModelParams, is_array

MAX_BRACKET_EXPANSIONS = 40
# Newton refinement: the step in ln w below which an iterate is accepted,
# and the cap on iterations.
NEWTON_RTOL = 1e-12
MAX_NEWTON_STEPS = 60


class SteadyState(NamedTuple):
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


def rates_slope(rates: tuple, params: ModelParams):
    """dP/d ln w from the tuple sector_rates returns at w:

        dP/d ln w = -(1 - psi1) (MPK (1 - alpha1)/P1 + MPH S2/P2).

    Both terms are positive and psi1 < 1, so the slope is negative: the
    strict fall of P proved above, in the rates' own terms.
    """
    p1, p2, _, s2, _, mpk, _, mph, _ = rates
    _, one_less_alpha1, _, psi1, *_ = params.rate_terms
    return -(1.0 - psi1) * (mpk * one_less_alpha1 / p1 + mph * (s2 / p2))


def gap_slope(w, params: ModelParams) -> tuple:
    """(P, dP/d ln w) at w, a float or an array, from one sector_rates call."""
    rates = sector_rates(w, params)
    return rates[8], rates_slope(rates, params)


def _where(cond, a, b):
    """a where cond holds, else b, for a float or an array."""
    if not is_array(cond):
        return a if cond else b
    import numpy as np

    return np.where(cond, a, b)


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
    safeguarded Newton iteration in ln w then refines it, with the gap and
    its slope from gap_slope. An iterate is accepted once its Newton step,
    or the bracket's relative width, is at most NEWTON_RTOL. A proposal outside the
    bracket (infinite where e**step overflows), none where the slope rounds
    to zero, or one that reverses the last step without halving it (rounding
    noise in the gap sending Newton round a cycle) is replaced by the
    bracket's geometric midpoint.

    One economy takes these steps on Python floats and raises ParameterError
    for A2 <= 0, NoBracketError where no bracket is found and
    NoConvergenceError where the iteration does not settle within
    MAX_NEWTON_STEPS. A family member comes back nan in each of these cases
    (_solve_family); run a family under np.errstate: such members overflow.
    """
    g_one = _gap(1.0, params)
    if is_array(g_one):
        return _solve_family(params, g_one)
    if not params.A2 > 0.0:
        raise ParameterError("solve_w requires A2 > 0")
    ends = []
    for down in (True, False):
        w, g = 1.0, g_one
        for _ in range(MAX_BRACKET_EXPANSIONS):
            if not abs(g) < math.inf or (g > 0.0 if down else g < 0.0):
                break
            w = w / 10.0 if down else w * 10.0
            g = _gap(w, params)
        if not abs(g) < math.inf:
            raise NoBracketError(f"no sign change of gap_P before it stops being finite "
                                 f"at w = {w:g}")
        ends.append((w, g))
    (lo, g_lo), (hi, g_hi) = ends
    if not (g_lo > 0.0 and g_hi < 0.0):
        raise NoBracketError(
            f"no sign change of gap_P in [{lo:g}, {hi:g}] "
            f"(gap_P({lo:g})={g_lo:g}, gap_P({hi:g})={g_hi:g})"
        )

    w, last = (lo * hi) ** 0.5, 0.0
    for _ in range(MAX_NEWTON_STEPS):
        g, slope = gap_slope(w, params)
        if g > 0.0:
            lo = w
        elif g < 0.0:
            hi = w
        # A slope that rounds to zero proposes no step: the midpoint is taken.
        step = -g / slope if slope else math.nan
        try:
            proposal = w * math.exp(step)
        except OverflowError:
            proposal = math.inf
        if abs(step) <= NEWTON_RTOL:
            return proposal
        if hi <= lo * (1.0 + NEWTON_RTOL):
            return w
        cycling = step * last < 0.0 and abs(step) > 0.5 * abs(last)
        last = step
        w = proposal if lo < proposal < hi and not cycling else (lo * hi) ** 0.5
    raise NoConvergenceError(
        f"Newton iteration for gap_P's root did not settle within "
        f"{MAX_NEWTON_STEPS} steps in [{lo:g}, {hi:g}]"
    )


def _solve_family(params: ModelParams, g_one):
    """solve_w's steps on a family, masked by member, from its gap at w = 1."""
    import numpy as np

    ok = (params.A2 > 0.0) & (abs(g_one) < math.inf)
    ends = []
    for down in (True, False):
        w, g = 1.0, g_one
        for _ in range(MAX_BRACKET_EXPANSIONS):
            grow = ok & ((g <= 0.0) if down else (g >= 0.0))
            if not grow.any():
                break
            w = np.where(grow, w / 10.0 if down else w * 10.0, w)
            g = gap_P(w, params)
            ok = ok & (abs(g) < math.inf)
        ends.append((w, g))
    (lo, g_lo), (hi, g_hi) = ends
    ok = ok & (g_lo > 0.0) & (g_hi < 0.0)

    root = math.nan * g_one
    w, last = (lo * hi) ** 0.5, 0.0
    for _ in range(MAX_NEWTON_STEPS):
        if not ok.any():
            break
        g, slope = gap_slope(w, params)
        lo = np.where(ok & (g > 0.0), w, lo)
        hi = np.where(ok & (g < 0.0), w, hi)
        # A slope that rounds to zero gives an inf or nan step: the midpoint is taken.
        step = -g / slope
        proposal = w * np.exp(step)
        done = ok & (abs(step) <= NEWTON_RTOL)
        narrow = ok & (hi <= lo * (1.0 + NEWTON_RTOL))
        root = np.where(done, proposal, np.where(narrow, w, root))
        ok = ok ^ (done | narrow)  # both hold only where ok does
        cycling = (step * last < 0.0) & (abs(step) > 0.5 * abs(last))
        last, mid = step, (lo * hi) ** 0.5
        w = np.where(cycling, mid, np.where((lo < proposal) & (proposal < hi), proposal, mid))
    return root


def transversality(params: ModelParams, r_star):
    """Margin rho + (eps - 1) r*; positive iff both transversality limits are negative."""
    return params.rho + (params.eps - 1.0) * r_star


def closed_forms(w, params: ModelParams) -> SteadyState:
    """The starred quantities at a root w of gap_P, a float or an array.

    Unchecked: where u* or v* leaves (0, 1), the quantities that need
    both are nan, and the margin is returned whatever its sign.
    """
    p1, p2, s1, s2, y1, mpk, y2, _, _ = sector_rates(w, params)
    r = consumption_growth(mpk, params)
    # Interior-optimum ratio tau0 = w^{(psi1-psi2)/(1-psi2)} theta^{1/(1-psi2)},
    # read off the share terms.
    tau0 = (1.0 - params.alpha2) * s1 / ((1.0 - params.alpha1) * s2)
    # 1 - u*, kept apart: v*'s denominator 1 - u* + tau0 u* written as
    # 1 + (tau0 - 1) u* cancels when u* is near 1 and tau0 is small.
    # Y2 underflows to 0 where A2 is subnormal: a float then divides as an
    # array does, to an infinite or nan 1 - u*, out of range.
    r_h = r + params.delta_h
    one_less_u = r_h / y2 if is_array(y2) or y2 else r_h * math.inf
    u = 1.0 - one_less_u
    # v* is defined only for 0 < u* < 1.
    u_in = _where((0.0 < u) & (u < 1.0), u, math.nan)
    v = tau0 * u_in / (one_less_u + tau0 * u_in)
    v_in = _where((0.0 < v) & (v < 1.0), v, math.nan)
    return SteadyState(
        w_star=w,
        z_star=w * u_in / v_in,
        # c/k stays put where capital, growing at (v/w) Y1 - q - delta_k,
        # keeps pace with consumption at r*.
        q_star=v_in / w * y1 - r - params.delta_k,
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
