"""Balanced-growth-path solver.

The BGP reduces to one scalar equation P(w) = 0 in the effective capital
ratio w, where the gap P is the goods MPK less the education MPH less
(delta_k - delta_h). Its limits at w -> 0+ and w -> +inf depend on the
signs of psi1 and psi2: for psi1 > 0 the goods MPK tends to
A1 alpha1^{1/psi1} as w -> +inf instead of to zero, so P need not change
sign. Where it does, a sign-change bracket plus a safeguarded bracketed
root step is enough; where it does not, solve_w raises NoBracketError.
All starred quantities follow in closed form.
"""

import math
import warnings
from dataclasses import dataclass

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


def solve_w(params: ModelParams, tol: float = 1e-12) -> float:
    """Find the unique root of gap_P by bracket expansion from w = 1.

    The bracket is grown geometrically (factor 10, at most 40 expansions
    per side) until the gap changes sign, then refined by a safeguarded
    bracketed secant/bisection iteration to relative width `tol`.
    """
    if tol <= 0.0:
        raise ParameterError(f"tol must be positive, got {tol}")
    if not params.A2 > 0.0:
        raise ParameterError("solve_w requires A2 > 0")

    lo = hi = 1.0
    g_lo = g_hi = gap_P(1.0, params)
    samples = [(1.0, g_lo)]
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if g_lo > 0.0:
            break
        lo /= 10.0
        g_lo = gap_P(lo, params)
        samples.append((lo, g_lo))
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if g_hi < 0.0:
            break
        hi *= 10.0
        g_hi = gap_P(hi, params)
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


def transversality(params: ModelParams, r_star: float) -> float:
    """Margin rho + (eps - 1) r*; positive iff both transversality limits are negative."""
    return params.rho + (params.eps - 1.0) * r_star


def steady_state(params: ModelParams, tol: float = 1e-12) -> SteadyState:
    """Assemble the full balanced-growth-path record."""
    w = solve_w(params, tol=tol)
    p1, p2, s1, s2, _, mpk, y2, _, _ = sector_rates(w, params)
    r = (mpk - params.rho - params.delta_k) / params.eps
    # Interior-optimum ratio tau0 = w^{(psi1-psi2)/(1-psi2)} theta^{1/(1-psi2)},
    # read off the share terms.
    tau0 = (1.0 - params.alpha2) * s1 / ((1.0 - params.alpha1) * s2)
    u = 1.0 - (r + params.delta_h) / y2
    # v* is defined only for 0 < u* < 1: at u* = 1 its denominator can round to 0.
    v = tau0 * u / (1.0 + (tau0 - 1.0) * u) if 0.0 < u < 1.0 else math.nan
    if not (0.0 < u < 1.0) or not (0.0 < v < 1.0):
        raise AllocationOutOfRangeError(
            f"steady-state allocations out of range: u*={u}, v*={v}",
            u_star=u,
            v_star=v,
        )
    # q* is the zero of the qdot equation, q = (A1 H + rho - (eps-1) delta_k) / eps.
    a1_h = params.A1 * aux_from_wuv(w, u, v, params).H
    q = (a1_h + params.rho - params.delta_k * (params.eps - 1.0)) / params.eps
    margin = transversality(params, r)
    if margin <= 0.0:
        raise TvcViolationError(
            f"transversality violated: rho + (eps-1) r* = {margin}"
        )
    return SteadyState(
        w_star=w,
        z_star=w * u / v,
        q_star=q,
        u_star=u,
        v_star=v,
        r_star=r,
        tau0=tau0,
        pi1k=s1 / p1,
        pi2k=s2 / p2,
        tvc_margin=margin,
    )

