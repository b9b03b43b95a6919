"""Properties over the parameter domain that ModelParams accepts."""

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesgrowth import CesGrowthError, ModelParams, stability_report, steady_state
from cesgrowth.params import PSI_FLOOR
from cesgrowth.steady import gap_P, gap_slope, solve_w

from conftest import NEWTON_OVERFLOW

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


@settings(max_examples=500, deadline=None, derandomize=True)
@given(ECONOMY)
@example(NEWTON_OVERFLOW[0])
@example(NEWTON_OVERFLOW[1])
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
