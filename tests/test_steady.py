"""Balanced-growth-path solver checks."""

from dataclasses import replace

import pytest

from cesgrowth import (
    AllocationOutOfRangeError,
    ModelParams,
    NoBracketError,
    ParameterError,
    SteadyState,
    TvcViolationError,
    gap_P,
    solve_w,
    steady_state,
)
from cesgrowth.core import tau_of
from cesgrowth.steady import transversality

from conftest import CASE_PSI, U_STAR_AT_ONE, bench_params

# Reference balanced-growth values (z*, u*, v*, q*) per case.
CASE_TARGETS = {
    1: (10.73, 0.882, 0.866, 0.240),
    2: (5.18, 0.874, 0.759, 0.267),
    3: (7.56, 0.923, 0.818, 0.254),
    4: (6.73, 0.933, 0.799, 0.259),
    5: (4.87, 0.884, 0.745, 0.271),
}


@pytest.mark.parametrize("case", sorted(CASE_PSI))
def test_case_steady_values(case):
    p = bench_params(*CASE_PSI[case])
    ss = steady_state(p)
    z, u, v, q = CASE_TARGETS[case]
    assert ss.z_star == pytest.approx(z, abs=0.01)
    assert ss.u_star == pytest.approx(u, abs=0.01)
    assert ss.v_star == pytest.approx(v, abs=0.01)
    assert ss.q_star == pytest.approx(q, abs=0.01)


def test_root_really_solves_gap(params_any_case):
    w = solve_w(params_any_case)
    assert gap_P(w, params_any_case) == pytest.approx(0.0, abs=1e-10)


def test_gap_brackets_the_root(params_any_case):
    w = solve_w(params_any_case)
    assert gap_P(w * 0.99, params_any_case) > 0.0
    assert gap_P(w * 1.01, params_any_case) < 0.0


def test_tau0_matches_allocation_ratio(params_any_case):
    ss = steady_state(params_any_case)
    assert tau_of(ss.u_star, ss.v_star) == pytest.approx(ss.tau0, rel=1e-10)


def test_interest_rate_and_tvc(params_any_case):
    ss = steady_state(params_any_case)
    assert ss.r_star > 0.0
    assert ss.tvc_margin == pytest.approx(
        transversality(params_any_case, ss.r_star)
    )
    assert ss.tvc_margin > 0.0


def test_shares_inside_unit_interval(params_any_case):
    ss = steady_state(params_any_case)
    assert 0.0 < ss.pi1k < 1.0
    assert 0.0 < ss.pi2k < 1.0


def test_z_consistent_with_w(params_any_case):
    ss = steady_state(params_any_case)
    assert ss.z_star == pytest.approx(
        ss.w_star * ss.u_star / ss.v_star, rel=1e-12
    )


def test_solve_w_rejects_bad_inputs():
    p = bench_params(0.25, -0.10)
    with pytest.raises(ParameterError):
        solve_w(p, tol=0.0)
    with pytest.raises(ParameterError):
        solve_w(replace(p, A2=0.0))


def test_tvc_violation_raised():
    """A low-productivity, patient economy has negative growth and fails
    the transversality margin rho + (eps - 1) r* > 0."""
    p = replace(bench_params(0.25, -0.10), A1=0.05, rho=0.001)
    with pytest.raises(TvcViolationError):
        steady_state(p)


def test_u_star_at_one_raises_allocation_error():
    with pytest.raises(AllocationOutOfRangeError) as info:
        steady_state(ModelParams(**U_STAR_AT_ONE))
    assert not 0.0 < info.value.u_star < 1.0


def test_steady_state_record_type(params_case1):
    assert isinstance(steady_state(params_case1), SteadyState)
