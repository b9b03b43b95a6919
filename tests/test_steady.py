"""Balanced-growth-path solver checks."""

import json
import math

import mpmath
import numpy as np
import pytest

from cesgrowth import (
    AllocationOutOfRangeError,
    ModelParams,
    NoBracketError,
    NoConvergenceError,
    ParameterError,
    SteadyState,
    TvcViolationError,
    baseline_from_steady_state,
    gap_P,
    jacobian_fd,
    normalized_params,
    solve_w,
    steady_state,
)
from cesgrowth import cli, steady
from cesgrowth.core import sector_rates, tau_of
from cesgrowth.stability import rhs_reduced_values, stability_report
from cesgrowth.steady import closed_forms, transversality

from conftest import (
    BENCH,
    CASE_PSI,
    KERNEL_OVERFLOW,
    NEWTON_CYCLE,
    NEWTON_OVERFLOW,
    STIFF_POOL,
    U_STAR_AT_ONE,
    Y2_UNDERFLOW,
    bench_params,
)

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


def test_gap_falls_strictly_on_random_economies(rng):
    """The steady module's proof that P falls in w, checked in floating
    point on a log grid of w for validated draws across the domain."""
    ws = np.logspace(-3.0, 3.0, 61)
    for _ in range(500):
        params = ModelParams(
            A1=rng.uniform(0.1, 5.0), A2=rng.uniform(0.01, 2.0),
            alpha1=rng.uniform(0.05, 0.95), alpha2=rng.uniform(0.05, 0.95),
            psi1=rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.9),
            psi2=rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.9),
            delta_k=rng.uniform(0.0, 0.1), delta_h=rng.uniform(0.0, 0.1),
            eps=rng.uniform(1.1, 5.0), rho=rng.uniform(0.01, 0.1),
        )
        with np.errstate(all="raise"):
            gaps = gap_P(ws, params)
        assert np.all(np.diff(gaps) < 0.0), params


def test_solve_w_rejects_bad_inputs():
    p = bench_params(0.25, -0.10)
    with pytest.raises(ParameterError, match="requires A2 > 0"):
        solve_w(p._replace(A2=0.0))


def test_tvc_violation_raised():
    """A low-productivity, patient economy has negative growth and fails
    the transversality margin rho + (eps - 1) r* > 0."""
    p = bench_params(0.25, -0.10)._replace(A1=0.05, rho=0.001)
    with pytest.raises(TvcViolationError):
        steady_state(p)


def test_u_star_at_one_raises_allocation_error():
    with pytest.raises(AllocationOutOfRangeError) as info:
        steady_state(ModelParams(**U_STAR_AT_ONE))
    assert not 0.0 < info.value.u_star < 1.0


def test_y2_underflow_raises_allocation_error():
    """Y2 rounds to 0 at the root: 1 - u* = (r* + delta_h)/Y2 is -inf for
    one economy as for a one-element family, not a ZeroDivisionError."""
    params = ModelParams(**Y2_UNDERFLOW)
    with pytest.raises(AllocationOutOfRangeError, match=r"u\*=inf, v\*=nan$") as info:
        steady_state(params)
    assert info.value.u_star == math.inf
    family = ModelParams(**{k: np.array([v]) for k, v in Y2_UNDERFLOW.items()})
    with np.errstate(all="ignore"):
        assert closed_forms(solve_w(family), family).u_star[0] == math.inf


def test_steady_state_record_type(params_case1):
    assert isinstance(steady_state(params_case1), SteadyState)


@pytest.mark.parametrize("call", [solve_w, steady_state, stability_report])
def test_kernel_overflow_ends_the_bracket_search(call):
    """The bracket search stops at the first w where the gap overflows."""
    with pytest.raises(NoBracketError, match="stops being finite at w = 10$"):
        call(ModelParams(**KERNEL_OVERFLOW))


def test_newton_step_that_overflows_takes_the_midpoint():
    """A float Newton step in ln w above about 709 overflows e**step. The
    proposal then lies outside the bracket, as an array's inf does, and the
    bracket's midpoint is taken: one economy ends in a typed error, and the
    other solves to the root its one-element family finds."""
    with pytest.raises(AllocationOutOfRangeError, match=r"v\*=1\.0$"):
        steady_state(ModelParams(**NEWTON_OVERFLOW[0]))
    fields = NEWTON_OVERFLOW[1]
    w = steady_state(ModelParams(**fields)).w_star
    family = ModelParams(**{k: np.array([v]) for k, v in fields.items()})
    with np.errstate(all="ignore"):
        assert solve_w(family)[0] == pytest.approx(w, rel=1e-12)


def test_kernel_overflow_through_numpy_scalars_is_not_a_silent_nan():
    """With numpy scalars the kernel returns inf or nan instead of raising."""
    params = ModelParams(**{k: np.float64(v) for k, v in KERNEL_OVERFLOW.items()})
    with np.errstate(all="ignore"), pytest.raises(NoBracketError) as info:
        solve_w(params)
    assert "nan" not in str(info.value) and "w = 10" in str(info.value)


TECHNOLOGY = ("A1", "A2", "alpha1", "alpha2", "psi1", "psi2")


def _as_family(economies):
    """The economies as one ModelParams holding an array per technology field."""
    return economies[0]._replace(
        **{name: np.array([getattr(p, name) for p in economies]) for name in TECHNOLOGY},
    )


CASES = [bench_params(*CASE_PSI[c]) for c in sorted(CASE_PSI)]


def test_batch_root_matches_solve_w():
    roots = solve_w(_as_family(CASES))
    for p, w in zip(CASES, roots):
        assert w == pytest.approx(solve_w(p), rel=1e-14)


def test_batch_root_flags_what_solve_w_rejects():
    """nan where solve_w raises: a gap that overflows, or no sign change."""
    # Near-linear goods technology: its MPK stays above the MPH up to 1e40.
    no_bracket = CASES[0]._replace(A1=1.0, alpha1=0.45, psi1=0.998)
    with pytest.raises(NoBracketError, match="no sign change of gap_P in"):
        solve_w(no_bracket)
    family = _as_family(CASES + [ModelParams(**KERNEL_OVERFLOW), no_bracket])
    with np.errstate(all="ignore"):
        roots = solve_w(family)
    assert np.all(np.isfinite(roots[:-2])) and np.all(np.isnan(roots[-2:]))


def _mpmath_root(params, w):
    """The root of the gap near w, in 40-digit arithmetic from the economy's
    fields as given, and the slope d gap / d ln w there."""
    with mpmath.workdps(40):
        a1, a2, alpha1, alpha2, psi1, psi2, dk, dh = map(mpmath.mpf, params[:8])
        theta = alpha1 * (1 - alpha2) / (alpha2 * (1 - alpha1))

        def gap(x):
            w = mpmath.exp(x)
            p1 = alpha1 * w**psi1 + 1 - alpha1
            s2 = alpha2 * theta ** (-psi2 / (1 - psi2)) * w ** (psi2 * (1 - psi1) / (1 - psi2))
            p2 = s2 + 1 - alpha2
            return (alpha1 * a1 * w ** (psi1 - 1) * p1 ** (1 / psi1 - 1)
                    - (1 - alpha2) * a2 * p2 ** (1 / psi2 - 1) - (dk - dh))

        x = mpmath.findroot(gap, mpmath.log(w))
        return float(mpmath.exp(x)), float(mpmath.diff(gap, x))


def _within_rounding_of_the_root(w, params):
    """Whether ln w is within the gap's rounding of the 40-digit root: the
    goods MPK carries about an ulp of P1 raised to the power 1/psi1, so
    the computed gap is noise within mpk 2^-52 max(1, 1/|psi1|) of zero."""
    w_ref, slope = _mpmath_root(params, w)
    mpk = sector_rates(w_ref, params)[5]
    noise = mpk * 2.0**-52 * max(1.0, 1.0 / abs(params.psi1))
    return abs(math.log(w / w_ref)) <= 2.0 * noise / abs(slope)


def test_newton_cycling_in_rounding_noise_settles():
    """Newton's iterates alternated about the root in the gap's rounding
    noise, each step a little above NEWTON_RTOL and inside the bracket, until
    MAX_NEWTON_STEPS ran out. A step that reverses the last without halving
    it now bisects, and the root is as close to the 40-digit one as that
    noise allows, alone and in a family."""
    p = ModelParams(**NEWTON_CYCLE)
    w = solve_w(p)
    assert _within_rounding_of_the_root(w, p)
    assert steady_state(p).w_star == w
    with np.errstate(all="ignore"):
        assert solve_w(_as_family([p]))[0] == pytest.approx(w, rel=1e-11)


def test_a_slope_that_rounds_to_zero_is_bisected():
    """At sigma1 = sigma2 = 5e15, psi rounds to 1 - 2^-52: both technologies
    are linear to rounding. gap_slope's closed form keeps the slope, -7.6e-17
    per unit of ln w (a complex step of gap_P rounded it to exactly zero),
    but the gap is rounding noise of 6e-17, so Newton's steps leave the
    bracket or reverse and the bracket's midpoint is taken. The bisection
    ends once the bracket is NEWTON_RTOL wide. The root is known only to
    within a factor of a few, and that is where one economy and a family
    member each land."""
    p = CASES[0]
    flat = normalized_params(5e15, 5e15, baseline_from_steady_state(p), p)
    assert flat.psi1 == flat.psi2 == 1.0 - 2.0**-52
    assert _within_rounding_of_the_root(solve_w(flat), flat)
    with np.errstate(all="ignore"):
        roots = solve_w(_as_family([p, flat]))
    assert roots[0] == pytest.approx(solve_w(p), rel=1e-14)
    assert _within_rounding_of_the_root(roots[1], flat)


def test_closed_forms_on_an_array_equal_those_on_a_float():
    roots = solve_w(_as_family(CASES))
    batch = closed_forms(roots, _as_family(CASES))
    for i, p in enumerate(CASES):
        single = closed_forms(float(roots[i]), p)
        for name in SteadyState._fields:
            assert getattr(batch, name)[i] == pytest.approx(
                getattr(single, name), rel=1e-14
            )


ROUNDING_LEVEL = [bench_params(*CASE_PSI[c]) for c in sorted(CASE_PSI)] + [
    ModelParams(**STIFF_POOL[i]) for i in sorted(STIFF_POOL)
]


@pytest.mark.parametrize("params", ROUNDING_LEVEL)
def test_root_sits_at_the_gaps_rounding_level(params):
    """Newton's last step leaves w* where the gap is rounding noise, and x*
    a fixed point of the reduced system to the rounding of its coordinates.

    One ulp in x*_j moves rhs_reduced_values by about |J_ij| ulp(x*_j). On the five
    cases that sum is below 5e-14; on the stiff economies, where u* and v*
    lie about 1e-4 apart, it is 8e-11 to 6e-10, so no absolute bound fits
    both.
    """
    ss = steady_state(params)
    assert abs(gap_P(ss.w_star, params)) <= 1e-14
    x = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    ulps = np.array([math.ulp(t) for t in x])
    rounding = np.max(np.abs(jacobian_fd(*x, params)) @ ulps)
    assert np.max(np.abs(rhs_reduced_values(*x, params))) <= 4.0 * rounding


def test_newton_that_does_not_settle_is_a_typed_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(steady, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(NoConvergenceError, match="did not settle within 1 steps"):
        solve_w(CASES[0])
    path = tmp_path / "case1.json"
    path.write_text(json.dumps({"params": dict(BENCH, psi1=0.25, psi2=-0.10)}))
    assert cli.main(["steady", "--scenario", str(path)]) == 3
    assert "did not settle" in capsys.readouterr().err
    assert np.all(np.isnan(solve_w(_as_family(CASES))))
