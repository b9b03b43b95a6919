"""Time integration and stable-manifold construction."""

import time

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

from cesgrowth import (
    ParameterError,
    ReducedState,
    TargetNotReachedError,
    integrate,
    jacobian_fd,
    reconstruct_levels,
    rhs_reduced,
    saddle_path,
    steady_state,
)
from cesgrowth.core import sector_rates

from conftest import bench_params


def steady_point(params):
    ss = steady_state(params)
    return ss, ReducedState(z=ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)


def test_integrate_validates_tol(params_case1):
    _, s = steady_point(params_case1)
    with pytest.raises(ParameterError):
        integrate(s, params_case1, t_end=1.0, tol=-1.0)


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
    12.96. The solved root is not exact: steady_state's default tol=1e-12
    is passed to brentq as its relative tolerance, so w is about 1 400 ulps
    (2.4e-13 relative) from the best double root, and rhs_reduced(x*) is
    about 2e-11. The linear response to that residual, int_0^t exp(J s) r ds,
    grows like exp(12.96 t), so no integrator can hold the path within 1e-6
    for ten time units. The horizon T is where that response reaches 1e-6
    (about 1.05 for case 1); up to T the path must stay within the bound,
    and its first departure beyond the bound must point along J's unstable
    eigenvector.
    """
    bound = 1e-6
    _, s = steady_point(params_case1)
    x_star = s.as_array()
    jac = jacobian_fd(s, params_case1)
    horizon = linear_departure_horizon(
        jac, rhs_reduced(s, params_case1), bound, t_end=10.0
    )
    # Any double-precision residual (even 1e-16) is amplified past the bound
    # well before t = 10, so the horizon exists.
    assert horizon is not None

    traj = integrate(s, params_case1, t_end=10.0)
    dev = np.max(np.abs(traj.states - x_star), axis=1)
    assert np.all(dev[traj.times <= horizon] < bound)
    assert traj.meta["t_stop"] >= horizon

    departed = np.flatnonzero(dev > bound)
    assert departed.size > 0
    drift = traj.states[departed[0]] - x_star
    eigvals, eigvecs = np.linalg.eig(jac)
    unstable = np.real(eigvecs[:, np.argmax(eigvals.real)])
    cos = abs(drift @ unstable) / (np.linalg.norm(drift) * np.linalg.norm(unstable))
    assert cos > 0.999


def test_fixed_point_constant_over_attainable_horizon(params_case1):
    """Within the horizon double precision permits, the path is constant."""
    _, s = steady_point(params_case1)
    traj = integrate(s, params_case1, t_end=1.0)
    mask = traj.times <= 1.0
    dev = np.max(np.abs(traj.states[mask] - s.as_array()))
    assert dev < 1e-6


def test_small_perturbation_matches_linear_propagator(params_case1):
    """One percent in z, horizon 0.01: exp(Jt) delta agrees to second order."""
    ss, s = steady_point(params_case1)
    x0 = s.as_array()
    delta = np.array([0.01 * ss.z_star, 0.0, 0.0, 0.0])
    start = ReducedState.from_array(x0 + delta)
    t_end = 0.01
    traj = integrate(start, params_case1, t_end=t_end, tol=1e-11)
    jac = jacobian_fd(s, params_case1)
    predicted = x0 + expm(jac * t_end) @ delta
    err = np.max(np.abs(traj.states[-1] - predicted))
    assert traj.times[-1] == pytest.approx(t_end)
    assert err < 10.0 * np.linalg.norm(delta) ** 2


def test_integrate_requested_sample_times(params_case1):
    ss, s = steady_point(params_case1)
    start = ReducedState(z=1.01 * ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)
    t_eval = np.linspace(0.0, 0.05, 6)
    traj = integrate(start, params_case1, t_end=0.05, t_eval=t_eval)
    assert np.allclose(traj.times, t_eval)
    assert traj.states.shape == (6, 4)


def test_integrate_reports_early_stop(params_case2):
    """Far off the manifold the state exits the admissible region."""
    ss, _ = steady_point(params_case2)
    start = ReducedState(z=0.3 * ss.z_star, q=2.5 * ss.q_star,
                         u=ss.u_star, v=ss.v_star)
    traj = integrate(start, params_case2, t_end=200.0)
    assert traj.meta["stop_reason"] in ("singularity", "left_box")
    assert traj.meta["t_stop"] < 200.0


def test_saddle_path_converges(params_case1):
    ss, s = steady_point(params_case1)
    x_star = s.as_array()
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
    dist = np.linalg.norm(traj.states - s.as_array(), axis=1)
    assert dist[-1] < 1e-4


def test_saddle_path_at_steady_state_is_single_point(params_case1):
    ss, _ = steady_point(params_case1)
    traj = saddle_path(params_case1, z0=ss.z_star)
    assert len(traj) == 1
    assert traj.meta["stop_reason"] == "at_steady_state"


def test_saddle_path_validates_z0(params_case1):
    with pytest.raises(ParameterError):
        saddle_path(params_case1, z0=-1.0)


def test_saddle_path_budget_exhaustion(params_case1):
    """An overly small travel budget is reported, not silently truncated."""
    ss, _ = steady_point(params_case1)
    with pytest.raises(TargetNotReachedError):
        saddle_path(params_case1, z0=0.9 * ss.z_star, t_budget=0.05)


def test_reconstruct_levels_constant_growth(params_case1):
    """On the balanced path k grows exactly at rate r*."""
    ss, s = steady_point(params_case1)
    horizon = 7.0
    times = np.linspace(0.0, horizon, 201)
    states = np.tile(s.as_array(), (len(times), 1))
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
