"""Balanced-growth-path solver.

The BGP reduces to one scalar equation P(w) = 0 in the effective capital
ratio w, where the gap P is the goods MPK less the education MPH less
(delta_k - delta_h). Its limits at w -> 0+ and w -> +inf depend on the
signs of psi1 and psi2: for psi1 > 0 the goods MPK tends to
A1 alpha1^{1/psi1} as w -> +inf instead of to zero, so P need not change
sign. Where it does, a sign-change bracket plus a safeguarded bracketed
root step is enough; where it does not, solve_w raises NoBracketError.
All starred quantities follow in closed form (closed_forms).

One economy is solved by solve_w (Brent's method); a family held as
arrays in one ModelParams is solved at once by solve_w_batch (Newton).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import aux_from_wuv, sector_rates
from .errors import (
    AllocationOutOfRangeError,
    NoBracketError,
    NonMonotoneWarning,
    ParameterError,
    TvcViolationError,
)
from .params import ModelParams

MAX_BRACKET_EXPANSIONS = 40
# Batched refinement: the imaginary step of the slope, the Newton step in
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


def _finite_gap(w: float, params: ModelParams) -> float:
    """gap_P(w), or NoBracketError where it overflows or is not finite."""
    try:
        g = gap_P(w, params)
    except OverflowError:
        g = math.nan
    if not math.isfinite(g):
        raise NoBracketError(
            f"no sign change of gap_P before it stops being finite at w = {w:g}"
        )
    return g


def solve_w(params: ModelParams, tol: float = 1e-12) -> float:
    """Find the unique root of gap_P by bracket expansion from w = 1.

    The bracket is grown geometrically (factor 10, at most 40 expansions
    per side) until the gap changes sign, then refined by a safeguarded
    bracketed secant/bisection iteration to relative width `tol`. The
    expansion ends at the first w where the gap overflows or is not finite.
    """
    if tol <= 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if not params.A2 > 0.0:
        raise ParameterError("solve_w requires A2 > 0")

    lo = hi = 1.0
    g_lo = g_hi = _finite_gap(1.0, params)
    samples = [(1.0, g_lo)]
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if g_lo > 0.0:
            break
        lo /= 10.0
        g_lo = _finite_gap(lo, params)
        samples.append((lo, g_lo))
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if g_hi < 0.0:
            break
        hi *= 10.0
        g_hi = _finite_gap(hi, params)
        samples.append((hi, g_hi))
    if not (g_lo > 0.0 and g_hi < 0.0):
        raise NoBracketError(
            f"no sign change of gap_P in [{lo:g}, {hi:g}] "
            f"(gap_P({lo:g})={g_lo:g}, gap_P({hi:g})={g_hi:g})"
        )
    samples.sort()
    if any(b[1] >= a[1] for a, b in zip(samples, samples[1:])):
        warnings.warn(
            "sampled gap_P values are not strictly decreasing in w",
            NonMonotoneWarning,
            stacklevel=2,
        )
    return brentq(gap_P, lo, hi, args=(params,), xtol=1e-300, rtol=max(tol, 9e-16))


def solve_w_batch(params: ModelParams) -> np.ndarray:
    """Roots of gap_P for a ModelParams that holds one economy per array element.

    The bracket of each economy is the one solve_w finds: grown from w = 1
    by a factor 10, at most 40 times per side. A safeguarded Newton
    iteration in ln w then refines it; its slope d gap_P / d ln w is the
    complex step Im gap_P(w e^{ih}) / h through sector_rates. An iterate
    is accepted once the Newton step it proposes is below NEWTON_RTOL,
    and a proposal outside the bracket is replaced by the bracket's
    geometric midpoint.

    An economy comes back nan wherever solve_w would raise or warn on it
    (a gap that is not finite, no sign change, samples not strictly
    decreasing in w) and where the iteration does not settle within
    MAX_NEWTON_STEPS. Run it under np.errstate: such economies overflow.
    """
    g_one = gap_P(1.0, params)
    ok = np.isfinite(g_one) & (params.A2 > 0.0)
    ends = []
    for down in (True, False):
        w, g = np.ones_like(g_one), g_one
        for _ in range(MAX_BRACKET_EXPANSIONS):
            grow = ok & ~((g > 0.0) if down else (g < 0.0))
            if not grow.any():
                break
            w = np.where(grow, w / 10.0 if down else w * 10.0, w)
            g_new = gap_P(w, params)
            # solve_w's check: the samples fall strictly as w rises.
            falls = (g_new > g) if down else (g_new < g)
            ok &= ~grow | (np.isfinite(g_new) & falls)
            g = np.where(grow, g_new, g)
        ends.append((w, g))
    (lo, g_lo), (hi, g_hi) = ends
    ok &= (g_lo > 0.0) & (g_hi < 0.0)

    root = np.full_like(g_one, np.nan)
    w = np.sqrt(lo * hi)
    for _ in range(MAX_NEWTON_STEPS):
        if not ok.any():
            break
        g_c = gap_P(w * complex(1.0, COMPLEX_STEP), params)
        g, slope = g_c.real, g_c.imag / COMPLEX_STEP
        lo = np.where(ok & (g > 0.0), w, lo)
        hi = np.where(ok & (g < 0.0), w, hi)
        step = -g / slope
        proposal = w * np.exp(step)
        done = ok & (np.abs(step) <= NEWTON_RTOL)
        root = np.where(done, proposal, root)
        ok &= ~done
        w = np.where((lo < proposal) & (proposal < hi), proposal, np.sqrt(lo * hi))
    return root


def transversality(params: ModelParams, r_star):
    """Margin rho + (eps - 1) r*; positive iff both transversality limits are negative."""
    return params.rho + (params.eps - 1.0) * r_star


def _where(cond, a, b):
    """a where cond holds, else b, for a float or an array."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


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


def steady_state(params: ModelParams, tol: float = 1e-12) -> SteadyState:
    """Assemble the full balanced-growth-path record."""
    ss = closed_forms(solve_w(params, tol=tol), params)
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
