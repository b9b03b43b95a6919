"""Stable-manifold construction and level reconstruction."""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45, cumulative_trapezoid, solve_ivp
from scipy.linalg import expm

from cesgrowth import (
    CesGrowthError,
    ModelParams,
    NoRealStableEigenvectorError,
    ParameterError,
    ReducedState,
    StepSizeUnderflowError,
    TargetNotReachedError,
    jacobian_fd,
    reconstruct_levels,
    saddle_path,
    stability_report,
    steady_state,
)
from cesgrowth import dynamics
from cesgrowth.core import sector_rates
from cesgrowth.stability import TOL_ZERO, rhs_reduced_values

from conftest import CASE_PSI, STIFF_POOL, bench_params
from test_acceptance import random_baseline

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.model import PARAM_NAMES  # noqa: E402
from perfbench.workloads import POOL_SEED, POOL_SIZE, draw_economies  # noqa: E402


def steady_point(params):
    ss = steady_state(params)
    return ss, ReducedState(z=ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)


def forward(x0, params, t_end, rtol=1e-9):
    """(times, states) of RK45 on the reduced system from x0 over [0, t_end],
    stopped where u or v leaves (0, 1)."""

    def leaves_box(_t, x):
        return min(x[2], x[3], 1.0 - x[2], 1.0 - x[3])

    leaves_box.terminal = True
    sol = solve_ivp(lambda _t, x: rhs_reduced_values(*x, params), (0.0, t_end),
                    x0, rtol=rtol, atol=1e-12, events=leaves_box)
    return sol.t, sol.y.T


def linear_departure_horizon(jac, residual, bound, t_end):
    """First t in [0, t_end] at which |int_0^t exp(J s) r ds|_inf reaches bound.

    The integral is the last column of expm of the augmented matrix
    [[J, r], [0, 0]]. The crossing is located on a uniform grid and refined
    by bisection; returns None if the bound is not reached by t_end.
    """
    aug = np.zeros((5, 5))
    aug[:4, :4] = jac
    aug[:4, 4] = residual

    def response(t):
        return np.max(np.abs(expm(aug * t)[:4, 4]))

    grid = np.linspace(0.0, t_end, 1001)
    above = [response(t) >= bound for t in grid]
    if not any(above):
        return None
    i = above.index(True)
    lo, hi = grid[i - 1], grid[i]
    while hi - lo > 1e-9 * t_end:
        mid = 0.5 * (lo + hi)
        if response(mid) < bound:
            lo = mid
        else:
            hi = mid
    return lo


def test_fixed_point_trajectory_is_constant(params_case1):
    """Starting on the balanced path, the trajectory stays there as long as
    double precision allows, and then leaves only along the unstable mode.

    The balanced path is a saddle whose strongest unstable rate is about
    12.96. The solved point is exact only to rounding: Newton leaves w
    within a few ulps of the gap's sign change, and rhs_reduced_values(x*) is
    about 7e-14. The linear response to that residual, int_0^t exp(J s) r ds,
    grows like exp(12.96 t), so no integrator can hold the path within 1e-6
    for ten time units. The horizon T is where that response reaches 1e-6
    (about 1.49 for case 1); up to T the path must stay within the bound,
    and its first departure beyond the bound must point along J's unstable
    eigenvector.
    """
    bound = 1e-6
    _, s = steady_point(params_case1)
    x_star = np.array(s)
    jac = jacobian_fd(s, params_case1)
    horizon = linear_departure_horizon(
        jac, rhs_reduced_values(*s, params_case1), bound, t_end=10.0
    )
    # Any double-precision residual (even 1e-16) is amplified past the bound
    # well before t = 10, so the horizon exists.
    assert horizon is not None

    times, states = forward(x_star, params_case1, t_end=10.0)
    dev = np.max(np.abs(states - x_star), axis=1)
    assert np.all(dev[times <= horizon] < bound)
    assert times[-1] >= horizon

    departed = np.flatnonzero(dev > bound)
    assert departed.size > 0
    drift = states[departed[0]] - x_star
    eigvals, eigvecs = np.linalg.eig(jac)
    unstable = np.real(eigvecs[:, np.argmax(eigvals.real)])
    cos = abs(drift @ unstable) / (np.linalg.norm(drift) * np.linalg.norm(unstable))
    assert cos > 0.999


def test_fixed_point_constant_over_attainable_horizon(params_case1):
    """Within the horizon double precision permits, the path is constant."""
    _, s = steady_point(params_case1)
    times, states = forward(np.array(s), params_case1, t_end=1.0)
    dev = np.max(np.abs(states[times <= 1.0] - np.array(s)))
    assert dev < 1e-6


def test_small_perturbation_matches_linear_propagator(params_case1):
    """One percent in z, horizon 0.01: exp(Jt) delta agrees to second order."""
    ss, s = steady_point(params_case1)
    x0 = np.array(s)
    delta = np.array([0.01 * ss.z_star, 0.0, 0.0, 0.0])
    t_end = 0.01
    times, states = forward(x0 + delta, params_case1, t_end=t_end, rtol=1e-11)
    jac = jacobian_fd(s, params_case1)
    predicted = x0 + expm(np.asarray(jac) * t_end) @ delta
    err = np.max(np.abs(states[-1] - predicted))
    assert times[-1] == pytest.approx(t_end)
    assert err < 10.0 * np.linalg.norm(delta) ** 2


def test_saddle_path_converges(params_case1):
    ss, s = steady_point(params_case1)
    x_star = np.array(s)
    t0 = time.monotonic()
    traj = saddle_path(params_case1, z0=0.9 * ss.z_star)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    assert traj.meta["stop_reason"] == "target_reached"
    assert traj.states[0, 0] == pytest.approx(0.9 * ss.z_star, rel=1e-6)
    dist = np.linalg.norm(traj.states - x_star, axis=1)
    assert dist[-1] < 1e-4
    tail = dist[len(dist) // 2:]
    assert np.all(np.diff(tail) <= 1e-12)


def test_saddle_path_from_above(params_case1):
    ss, s = steady_point(params_case1)
    traj = saddle_path(params_case1, z0=1.1 * ss.z_star)
    assert traj.states[0, 0] == pytest.approx(1.1 * ss.z_star, rel=1e-6)
    dist = np.linalg.norm(traj.states - np.array(s), axis=1)
    assert dist[-1] < 1e-4


def test_saddle_path_at_steady_state_is_single_point(params_case1):
    ss, _ = steady_point(params_case1)
    traj = saddle_path(params_case1, z0=ss.z_star)
    assert len(traj) == 1
    assert traj.meta["stop_reason"] == "at_steady_state"


def test_saddle_path_validates_z0(params_case1):
    with pytest.raises(ParameterError):
        saddle_path(params_case1, z0=-1.0)


@pytest.mark.parametrize("z0", [math.inf, math.nan])
def test_saddle_path_rejects_non_finite_z0(params_case1, z0):
    with pytest.raises(ParameterError, match="finite"):
        saddle_path(params_case1, z0=z0)


@pytest.mark.parametrize("k0", [math.inf, math.nan])
def test_reconstruct_levels_rejects_non_finite_k0(params_case1, k0):
    traj = saddle_path(params_case1, 1.05 * steady_state(params_case1).z_star)
    with pytest.raises(ParameterError, match="finite"):
        reconstruct_levels(traj, k0=k0, params=params_case1)


def test_saddle_path_hands_the_kernel_python_floats(params_any_case, monkeypatch):
    """The stepper passes Python floats, so the kernel runs in float arithmetic
    rather than numpy-scalar arithmetic, and calls the kernel once per rhs call.
    Its step control stays in floats too: a numpy scalar there (a max_step
    from a numpy eigenvalue, say) would turn every time and stage value into
    one."""
    calls = []
    kernel = dynamics.rhs_reduced_values

    def spy(*args):
        calls.append(args[:4])
        return kernel(*args)

    monkeypatch.setattr(dynamics, "rhs_reduced_values", spy)
    traj = saddle_path(params_any_case, 1.1 * steady_state(params_any_case).z_star)
    assert len(calls) == traj.meta["nfev"] > 0
    assert all(type(a) is float for args in calls for a in args)
    assert type(traj.meta["t_stop"]) is float
    assert all(type(t) is float for t in traj.time_rows)
    assert all(type(x) is float for row in traj.state_rows for x in row)


def lapack_stable_pair(jac):
    """(lambda, unit v) of the stable eigenpair by LAPACK, or None where the
    LAPACK route finds no real stable eigenvector."""
    ev, vecs = np.linalg.eig(np.array(jac))
    i = int(np.argmin(ev.real))
    v = vecs[:, i]
    if ev[i].real >= -TOL_ZERO or np.max(np.abs(v.imag)) > 1e-12 * np.max(np.abs(v.real)):
        return None
    return ev[i].real, np.real(v) / np.linalg.norm(np.real(v))


def check_stable_pair(jac) -> bool:
    """stable_eigenpair against LAPACK: the same unit eigenvector to 1e-10
    once signs are aligned, or NoRealStableEigenvectorError where LAPACK
    finds none. Returns whether there was a pair."""
    ref = lapack_stable_pair(jac)
    if ref is None:
        with pytest.raises(NoRealStableEigenvectorError):
            dynamics.stable_eigenpair(jac)
        return False
    lam, v = dynamics.stable_eigenpair(jac)
    assert type(lam) is complex and all(type(x) is float for x in v)
    assert math.hypot(*v) == pytest.approx(1.0, abs=1e-15)
    ref_v = ref[1] if ref[1] @ v >= 0.0 else -ref[1]
    assert np.max(np.abs(np.array(v) - ref_v)) <= 1e-10
    return True


@pytest.mark.parametrize("economy", [f"case{c}" for c in CASE_PSI]
                         + [f"stiff{i}" for i in STIFF_POOL])
def test_stable_eigenvector_matches_lapack(economy):
    params = (ModelParams(**STIFF_POOL[int(economy[5:])]) if economy.startswith("stiff")
              else bench_params(*CASE_PSI[int(economy[4:])]))
    assert check_stable_pair(stability_report(params).jacobian)


def test_stable_eigenvector_matches_lapack_on_economy_scan_pool():
    """Every solvable economy of the benchmark's economy_scan pool: the same
    eigenvector as LAPACK's on those labelled saddle_path, and the same
    NoRealStableEigenvectorError outcome on all of them."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    paired = labelled = 0
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            rep = stability_report(params)
        except CesGrowthError:
            continue
        paired += check_stable_pair(rep.jacobian)
        labelled += rep.classification == "saddle_path"
    assert paired >= labelled > 0


def rk45_replay(params, z0, monkeypatch):
    """saddle_path's result (or its TargetNotReachedError), the stepper's own
    run (reversed-time times and states, with its rhs and max_step), and
    scipy's RK45 runs from the same seed, with the same max_step, tolerances
    and events: the first from the seed itself, then one from the seed with
    each coordinate moved by one ulp."""
    calls = []
    stepper = dynamics._dormand_prince

    def spy(fun, y0, max_step, events):
        out = stepper(fun, y0, max_step, events)
        calls.append((fun, list(y0), max_step, events, out))
        return out

    monkeypatch.setattr(dynamics, "_dormand_prince", spy)
    try:
        result = saddle_path(params, z0)
    except TargetNotReachedError as exc:
        result = exc
    (fun, y0, max_step, events, (ts, ys, _, _)), = calls
    terminal = []
    for i in range(3):
        def event(_t, x, i=i):
            return events(x.tolist())[i]
        event.terminal = True
        terminal.append(event)
    seeds = [np.array(y0)]
    for i in range(4):
        seeds.append(seeds[0].copy())
        seeds[-1][i] = np.nextafter(seeds[0][i], np.inf)
    sols = [solve_ivp(lambda _t, x: fun(x.tolist()), (0.0, dynamics.T_BUDGET), seed,
                      method="RK45", rtol=dynamics.SADDLE_RTOL,
                      atol=dynamics.SADDLE_ATOL, max_step=max_step, events=terminal)
            for seed in seeds]
    return result, sols, (fun, max_step, ts, ys)


# (economy, z0 / z*, outcome): the five cases from both sides, case 1 nearer
# and farther, case 1 into a coordinate floor, a stiff economy into u = v.
PARITY_STARTS = (
    [(f"case{c}", f, "target_reached") for c in CASE_PSI for f in (0.9, 1.1)]
    + [("case1", f, "target_reached") for f in (0.5, 1.05)]
    + [("case1", 1.5, "hit a coordinate floor"), ("stiff35", 1.1, "approached u = v")]
)


@pytest.mark.parametrize("economy, factor, outcome", PARITY_STARTS)
def test_saddle_path_takes_scipy_rk45_steps(economy, factor, outcome, monkeypatch):
    """The in-house Dormand-Prince stepper against scipy's RK45 as the oracle.

    Over the whole path: the same accepted steps and rhs calls and the same
    stop. scipy sums the stages with numpy's dot products, the stepper with
    plain float sums; the last-ulp difference in the error norm, a
    difference formed by cancellation, moves every later step size by about
    1e-7, so stored times are not compared. The stopping time must agree
    to within four times the spread that moving one seed coordinate by one
    ulp causes in scipy's own (about 1e-11 on most starts, 1e-8 on those
    that pass u = v = 1), and to 1e-7 in any case.

    Step by step: scipy's RK45 started at each stored state, with the
    stored step as its first step, reproduces the next stored state to
    1e-14 in the max norm, relative to that state's own: a coordinate that
    runs into the floor, or u - v as it closes to the event gap, is far
    smaller than the state, and the rhs's 1/(u - v) magnifies rounding. The
    last state, interpolated at the event, has no stored step.
    """
    params = (ModelParams(**STIFF_POOL[35]) if economy == "stiff35"
              else bench_params(*CASE_PSI[int(economy[-1])]))
    z0 = factor * steady_state(params).z_star
    result, (sol, *nudged), (fun, max_step, ts, ys) = rk45_replay(params, z0, monkeypatch)
    hit = [len(te) > 0 for te in sol.t_events]
    spread = max(abs(s.t[-1] - sol.t[-1]) for s in nudged)
    assert len(ts) == len(sol.t)
    assert abs(ts[-1] - sol.t[-1]) <= min(4.0 * spread, 1e-7 * sol.t[-1])
    if outcome == "target_reached":
        assert hit[0] and sol.status == 1
        assert len(result) == len(sol.t)
        assert result.meta["nfev"] == sol.nfev
        assert result.meta["t_stop"] == ts[-1]
    else:
        assert hit == [False, outcome == "hit a coordinate floor",
                       outcome == "approached u = v"]
        assert isinstance(result, TargetNotReachedError)
        assert str(result) == (f"z never crossed {z0} ({outcome}; "
                               f"final z = {sol.y[0, -1]:g})")
    for i in range(len(ts) - 2):
        rk = RK45(lambda _t, x: fun(x.tolist()), ts[i], np.array(ys[i]),
                  dynamics.T_BUDGET, first_step=ts[i + 1] - ts[i], max_step=max_step,
                  rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL)
        rk.step()
        assert rk.t == ts[i + 1]
        assert np.max(np.abs(rk.y - ys[i + 1])) <= 1e-14 * np.max(np.abs(ys[i + 1]))


def test_stepper_gives_up_where_rk45_does():
    """y' = y^2 from y = 1 blows up at t = 1: the stepper's steps fall below
    ten ulps of t at the same time and state as scipy's RK45.

    There y is about 2e13, so the state holds the runs' rounding, summed in
    a different order on each side, magnified by y: it is compared through
    t + 1/y, which the exact flow keeps constant, to one ulp of 1.
    """
    with pytest.raises(StepSizeUnderflowError) as exc:
        dynamics._dormand_prince(lambda y: [y[0] ** 2], [1.0], 1.0, lambda y: [1.0])
    sol = solve_ivp(lambda _t, y: y**2, (0.0, dynamics.T_BUDGET), [1.0], method="RK45",
                    rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL, max_step=1.0)
    assert sol.status == -1
    assert exc.value.last_time == sol.t[-1] < 1.0
    assert 1.0 / exc.value.last_state[0] == pytest.approx(1.0 / sol.y[0, -1],
                                                          rel=0, abs=math.ulp(1.0))


def test_random_economies_end_in_a_path_or_a_typed_error():
    """Random economies (numpy-scalar fields, as random_baseline draws them)
    from 1e-8 to 1e8 z*: each start ends in a path with levels or in a
    CesGrowthError, and no RuntimeWarning (an error in the test run)."""
    rng = np.random.default_rng(2026)
    outcomes = set()
    for _ in range(40):
        params = random_baseline(rng)[1]
        z0 = 10.0 ** rng.uniform(-8.0, 8.0) * steady_state(params).z_star
        try:
            traj = reconstruct_levels(saddle_path(params, z0), z0, params)
        except CesGrowthError as exc:
            outcomes.add(type(exc).__name__)
        else:
            assert traj.level_rows[0][0] == z0
            outcomes.add(traj.meta["stop_reason"])
    assert "target_reached" in outcomes and len(outcomes) > 1


def test_saddle_path_budget_exhaustion(params_case1, monkeypatch):
    """An overly small travel budget is reported, not silently truncated."""
    ss, _ = steady_point(params_case1)
    monkeypatch.setattr(dynamics, "T_BUDGET", 0.05)
    with pytest.raises(TargetNotReachedError, match="travel budget exhausted"):
        saddle_path(params_case1, z0=0.9 * ss.z_star)


def test_reconstruct_levels_constant_growth(params_case1):
    """On the balanced path k grows exactly at rate r*."""
    ss, s = steady_point(params_case1)
    horizon = 7.0
    times = np.linspace(0.0, horizon, 201)
    states = np.tile(np.array(s), (len(times), 1))
    from cesgrowth.dynamics import Trajectory

    traj = Trajectory(times=times, states=states)
    lv = reconstruct_levels(traj, k0=1.0, params=params_case1)
    k_end = lv.levels[-1, 0]
    assert k_end == pytest.approx(np.exp(ss.r_star * horizon), rel=1e-8)
    assert np.allclose(lv.levels[:, 1], lv.levels[:, 0] / ss.z_star)
    assert np.allclose(lv.levels[:, 2], ss.q_star * lv.levels[:, 0])


def test_reconstruct_levels_matches_per_sample_kernel(params_case1):
    """The array evaluation equals the scalar kernel applied sample by sample."""
    ss = steady_state(params_case1)
    traj = saddle_path(params_case1, z0=0.9 * ss.z_star)
    lv = reconstruct_levels(traj, k0=2.0, params=params_case1)
    growth = []
    for z, q, u, v in traj.states:
        w = v / u * z
        growth.append(v / w * sector_rates(w, params_case1)[4] - q - params_case1.delta_k)
    k = 2.0 * np.exp(cumulative_trapezoid(growth, traj.times, initial=0.0))
    expected = np.column_stack([k, k / traj.states[:, 0], traj.states[:, 1] * k])
    np.testing.assert_allclose(lv.levels, expected, rtol=1e-14)


def test_reconstruct_levels_validation(params_case1):
    from cesgrowth.dynamics import Trajectory

    traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0, 0.2, 0.6, 0.5]]))
    with pytest.raises(ParameterError):
        reconstruct_levels(traj, k0=0.0, params=params_case1)
    empty = Trajectory(times=np.array([]), states=np.empty((0, 4)))
    with pytest.raises(ParameterError):
        reconstruct_levels(empty, k0=1.0, params=params_case1)
    negative_w = Trajectory(times=np.array([0.0, 1.0]),
                            states=np.array([[1.0, 0.2, 0.6, 0.5], [-1.0, 0.2, 0.6, 0.5]]))
    with pytest.raises(ParameterError):
        reconstruct_levels(negative_w, k0=1.0, params=params_case1)
    zero_u = Trajectory(times=[0.0, 1.0], states=[[1.0, 0.2, 0.6, 0.5], [1.0, 0.2, 0.0, 0.5]])
    with pytest.raises(ParameterError, match="u must be nonzero"):
        reconstruct_levels(zero_u, k0=1.0, params=params_case1)
