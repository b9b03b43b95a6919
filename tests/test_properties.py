"""Properties over the parameter domain that ModelParams accepts."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cesgrowth import CesGrowthError, ModelParams, stability_report, steady_state
from cesgrowth.params import PSI_FLOOR

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
