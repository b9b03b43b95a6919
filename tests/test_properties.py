"""Properties over the parameter domain that ModelParams accepts."""

import sys
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesgrowth import (CesGrowthError, ModelParams, SingularStateError, jacobian_fd,
                       stability_report, steady_state)
from cesgrowth.core import consumption_growth, sector_rates
from cesgrowth.params import PSI_FLOOR
from cesgrowth.stability import plane_terms, rhs_reduced_values
from cesgrowth.steady import gap_P, gap_slope, solve_w

from conftest import NEWTON_OVERFLOW, STIFF_POOL, Y2_UNDERFLOW
from oracles import complex_step_jacobian

ALPHA = st.floats(0.05, 0.95)
PSI = st.floats(-0.9, 0.9).filter(lambda psi: abs(psi) > PSI_FLOOR)
ECONOMY = st.fixed_dictionaries({
    "A1": st.floats(0.05, 5.0),
    "A2": st.floats(0.0, 2.0),
    "alpha1": ALPHA,
    "alpha2": ALPHA,
    "psi1": PSI,
    "psi2": PSI,
    "delta_k": st.floats(0.0, 0.3),
    "delta_h": st.floats(0.0, 0.3),
    "eps": st.floats(1.0, 8.0, exclude_min=True),
    "rho": st.floats(0.001, 0.3),
})
# A state off the balanced path: factors of z* and q*, then u and v.
OFF_PATH = st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0),
                     st.floats(0.05, 3.0, exclude_min=True, exclude_max=True),
                     st.floats(0.05, 3.0, exclude_min=True, exclude_max=True))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ECONOMY)
@example(NEWTON_OVERFLOW[0])
@example(NEWTON_OVERFLOW[1])
@example(Y2_UNDERFLOW)
def test_every_economy_ends_in_a_result_or_a_typed_error(fields):
    """steady_state and stability_report return, or raise a CesGrowthError;
    any other exception fails the test. A balanced path that steady_state
    returns lies where the reduced state is defined: z*, q* > 0 and u*, v*
    in (0, 1)."""
    params = ModelParams(**fields)
    try:
        ss = steady_state(params)
    except CesGrowthError:
        pass
    else:
        assert ss.z_star > 0.0 and ss.q_star > 0.0
        assert 0.0 < ss.u_star < 1.0 and 0.0 < ss.v_star < 1.0
    try:
        stability_report(params)
    except CesGrowthError:
        pass


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ECONOMY)
def test_the_newton_slope_falls_and_is_exact_at_every_root(fields):
    """At every root solve_w finds, gap_slope's closed-form dP/d ln w is
    negative, and it agrees with a 30-digit mpmath.diff of gap_P in ln w
    to 1e-12 relative. Where a |psi| is below 4e-3 the bound is the
    kernel's own rounding, 4e-15/min|psi|: P_i^{1/psi_i} raises the
    rounding of P_i to that power, in gap_P's float values as in the slope
    (measured at most 1.8e-13 where both |psi| >= 1e-3, and
    1.3e-15/min|psi| over the whole domain)."""
    params = ModelParams(**fields)
    try:
        w = solve_w(params)
    except CesGrowthError:
        return
    _, slope = gap_slope(w, params)
    with mpmath.workdps(30):
        exact = mpmath.diff(lambda x: gap_P(mpmath.exp(x), params), mpmath.log(w))
    assert slope < 0.0
    bound = max(1e-12, 4e-15 / min(abs(params.psi1), abs(params.psi2)))
    assert abs(slope - exact) <= bound * abs(exact)


# The relative fixed-point residual's bound, 2 eps. Measured at most 1.49 eps
# on economy_scan's 2 995 solved economies, 0.76 eps on STIFF_POOL, 1.45 eps
# over 30 000 of this strategy's draws (20 022 solved), 1.66 eps over
# 300 000 uniform draws from ECONOMY's ranges (default_rng(1), (2), (3)) and
# 1.30 eps on the 18 902 solved economies of conftest.WIDE_DRAW.
FIXED_POINT_RTOL = 2.0 * sys.float_info.epsilon


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ECONOMY)
@example(STIFF_POOL[35])
@example(STIFF_POOL[420])
@example(STIFF_POOL[1912])
def test_the_balanced_path_is_a_fixed_point_of_the_plane(fields):
    """At every balanced path steady_state returns, the plane's z' and q'
    from plane_terms(w*) vanish at (z*, q*) to FIXED_POINT_RTOL of the sum
    of their terms' magnitudes. The terms are written out to the rates at
    w*: with gamma = tau0/(tau0 - 1), z' = -(b z^2 + (a + q) z + c) has
    b z^2, gamma Y2 z, gamma (Y1/w) z, delta_k z, delta_h z, q z and c,
    and q'/q = q - e + c/z has q, gamma Y1/w, r, delta_k and c/z. The
    terms of a and e alone do not bound them: where e = gamma Y1/w - r -
    delta_k cancels to a small q*, q' misses by 47 eps of |q| + |e| + |c/z|.
    Where tau0* = 1 there is no plane."""
    params = ModelParams(**fields)
    try:
        ss = steady_state(params)
    except CesGrowthError:
        return
    w, z, q = ss.w_star, ss.z_star, ss.q_star
    rates = sector_rates(w, params)
    y1, mpk, y2 = rates[4:7]
    try:
        a, b, c, e, _, tau0 = plane_terms(w, params, rates)
    except SingularStateError:  # tau0* = 1: identical sectors, no plane
        return
    gamma = abs(tau0 / (tau0 - 1.0))
    z_terms = (abs(b) * z * z + abs(c)
               + (gamma * (y2 + y1 / w) + params.delta_k + params.delta_h + q) * z)
    q_terms = q + gamma * y1 / w + abs(consumption_growth(mpk, params)) + params.delta_k \
        + abs(c / z)
    assert abs(b * z * z + (a + q) * z + c) <= FIXED_POINT_RTOL * z_terms
    assert abs(q - e + c / z) <= FIXED_POINT_RTOL * q_terms


def _exact_params(params: ModelParams) -> SimpleNamespace:
    """A stand-in for params that the kernel reads alike, with every field
    and every constant of rate_terms an mpmath number at the current
    precision, so that 1/psi_i and S2's exponent are exact for psi_i."""
    exact = SimpleNamespace(**{k: mpmath.mpf(x) for k, x in params._asdict().items()})
    exact.theta = ModelParams.theta.func(exact)
    exact.rate_terms = ModelParams.rate_terms.func(exact)
    return exact


def _high_precision_jacobian(x, params) -> list:
    """Central differences of rhs_reduced_values at the current mpmath
    precision, with the step 1e-20 |x_i| relative to each coordinate, as
    four rows of mpmath numbers."""
    columns = []
    for i in range(4):
        xp = [mpmath.mpf(c) for c in x]
        xm = list(xp)
        h = mpmath.mpf("1e-20") * abs(xp[i])
        xp[i] += h
        xm[i] -= h
        diff = zip(rhs_reduced_values(*xp, params), rhs_reduced_values(*xm, params))
        columns.append([(a - b) / (2 * h) for a, b in diff])
    return list(zip(*columns))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ECONOMY, OFF_PATH)
def test_the_closed_form_jacobian_matches_complex_steps(fields, off):
    """jacobian_fd agrees with oracles.complex_step_jacobian to 1e-12 of
    max|J|, at every balanced path steady_state returns and at one state
    off it per economy. Where the two part by more, the float rhs is
    ill-conditioned there, and both carry its rounding: near tau0 = 1 and
    u = v, say, K' = (Q P)'/R - K T'/T turns the rounding of P at x* into
    3e-12 of max|J|. There the formula itself is checked: jacobian_fd run
    on 60-digit numbers matches 60-digit differences of the rhs to 1e-20
    of max|J| (measured at most 6e-34), both with the economy's constants
    in 60 digits too; with its float constants, 1/psi1 rounded, say, the
    rhs is another model, up to 3e-13 of max|J| away. A state where R
    vanishes in 60 digits has no Jacobian; where the sectors are identical
    (psi1 = psi2, alpha1 = alpha2), T is 0 and the float guard, relative
    to T's terms, raises first. Over 29 212 solved draws, 6 states parted. Where the complex
    steps raise off the path, jacobian_fd raises the same type of error."""
    params = ModelParams(**fields)
    try:
        ss = steady_state(params)
    except CesGrowthError:
        return
    x = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    for state in (x, (off[0] * x[0], off[1] * x[1], off[2], off[3])):
        try:
            expected = np.array(complex_step_jacobian(*state, params))
        except CesGrowthError as exc:
            with pytest.raises(type(exc)):
                jacobian_fd(*state, params)
            continue
        jac = np.array(jacobian_fd(*state, params))
        scale = np.max(np.abs(expected))
        if np.max(np.abs(jac - expected)) <= 1e-12 * scale:
            continue
        try:
            with mpmath.workdps(60):
                exact = _exact_params(params)
                formula = jacobian_fd(*map(mpmath.mpf, state), exact)
                reference = _high_precision_jacobian(state, exact)
                miss = max(abs(a - b) for ra, rb in zip(formula, reference) for a, b in zip(ra, rb))
        except SingularStateError:
            continue
        assert miss <= 1e-20 * scale
