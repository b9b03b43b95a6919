"""Balanced-growth-path solver checks."""

from dataclasses import replace

import numpy as np
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
from cesgrowth.stability import stability_report
from cesgrowth.steady import closed_forms, solve_w_batch, transversality

from conftest import CASE_PSI, KERNEL_OVERFLOW, U_STAR_AT_ONE, bench_params

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


@pytest.mark.parametrize("call", [solve_w, steady_state, stability_report])
def test_kernel_overflow_ends_the_bracket_search(call):
    """The bracket search stops at the first w where the gap overflows."""
    with pytest.raises(NoBracketError, match="stops being finite at w = 10$"):
        call(ModelParams(**KERNEL_OVERFLOW))


def test_kernel_overflow_through_numpy_scalars_is_not_a_silent_nan():
    """With numpy scalars the kernel returns inf or nan instead of raising."""
    params = ModelParams(**{k: np.float64(v) for k, v in KERNEL_OVERFLOW.items()})
    with np.errstate(all="ignore"), pytest.raises(NoBracketError) as info:
        solve_w(params)
    assert "nan" not in str(info.value) and "w = 10" in str(info.value)


TECHNOLOGY = ("A1", "A2", "alpha1", "alpha2", "psi1", "psi2")


def _as_family(economies):
    """The economies as one ModelParams holding an array per technology field."""
    return replace(
        economies[0],
        **{name: np.array([getattr(p, name) for p in economies]) for name in TECHNOLOGY},
    )


CASES = [bench_params(*CASE_PSI[c]) for c in sorted(CASE_PSI)]


def test_batch_root_matches_solve_w():
    roots = solve_w_batch(_as_family(CASES))
    for p, w in zip(CASES, roots):
        assert w == pytest.approx(solve_w(p), rel=1e-12)
        # Newton's last step leaves the root at the gap's rounding level.
        assert abs(gap_P(float(w), p)) <= 1e-14


def test_batch_root_flags_what_solve_w_rejects():
    """nan where solve_w raises: a gap that overflows, or no sign change."""
    # Near-linear goods technology: its MPK stays above the MPH up to 1e40.
    no_bracket = replace(CASES[0], A1=1.0, alpha1=0.45, psi1=0.998)
    with pytest.raises(NoBracketError, match="no sign change of gap_P in"):
        solve_w(no_bracket)
    family = _as_family(CASES + [ModelParams(**KERNEL_OVERFLOW), no_bracket])
    with np.errstate(all="ignore"):
        roots = solve_w_batch(family)
    assert np.all(np.isfinite(roots[:-2])) and np.all(np.isnan(roots[-2:]))


def test_closed_forms_on_an_array_equal_those_on_a_float():
    roots = solve_w_batch(_as_family(CASES))
    batch = closed_forms(roots, _as_family(CASES))
    for i, p in enumerate(CASES):
        single = closed_forms(float(roots[i]), p)
        for name in SteadyState.__dataclass_fields__:
            assert getattr(batch, name)[i] == pytest.approx(
                getattr(single, name), rel=1e-14
            )
