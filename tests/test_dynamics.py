"""Stable-manifold construction and level reconstruction."""

import cmath
import math
import random
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import RK45, cumulative_trapezoid, solve_ivp
from scipy.linalg import expm

from cesgrowth import (
    CesGrowthError,
    ModelParams,
    ParameterError,
    StepSizeUnderflowError,
    TargetNotReachedError,
    eigen4,
    jacobian_fd,
    reconstruct_levels,
    saddle_path,
    stability_report,
    steady_state,
)
from cesgrowth import dynamics
from cesgrowth.core import consumption_growth, sector_rates
from cesgrowth.stability import g_curvature, plane_terms, rhs_reduced_values
from cesgrowth.steady import closed_forms, gap_P

import oracles
import reference_paths
from conftest import CASE_PSI, SLOW_SADDLE, STIFF_POOL, bench_params
from test_acceptance import random_baseline

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.model import PARAM_NAMES  # noqa: E402
from perfbench.workloads import POOL_SEED, POOL_SIZE, draw_economies  # noqa: E402


def steady_point(params):
    ss = steady_state(params)
    return ss, (ss.z_star, ss.q_star, ss.u_star, ss.v_star)


# The paper cases and the stiff economies, by params_of's names.
ECONOMIES = [f"case{c}" for c in CASE_PSI] + [f"stiff{i}" for i in STIFF_POOL]


def params_of(name):
    """A paper case ("case1".."case5"), or an economy reference_paths.economy
    names: a STIFF_POOL economy ("stiff35"), one of the economy_scan pool
    ("pool60") or "u_star_near_one"."""
    if name.startswith("case"):
        return bench_params(*CASE_PSI[int(name[4:])])
    return reference_paths.economy(name)


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
    jac = jacobian_fd(*s, params_case1)
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
    jac = jacobian_fd(*s, params_case1)
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


def test_saddle_path_at_steady_state_records_no_steps(params_case1):
    """Nothing is integrated from z*, so the stepper's count is 0, as on
    any start that W already reaches, and nothing is searched for."""
    traj = saddle_path(params_case1, z0=steady_state(params_case1).z_star)
    assert traj.meta["steps"] == traj.meta["nfev"] == traj.meta["event_evals"] == 0


@pytest.mark.parametrize("name", ["case1", "pool10"])
def test_saddle_path_at_steady_state_records_its_half(name):
    """The path from z* is x* alone, and its meta holds what saddle_path's
    docstring lists for it, "plane" (tau0* < 1) included, on either half:
    case 1 lies on the plane, pool economy 10 off it. Its levels are k0,
    k0/z* and q* k0."""
    params = params_of(name)
    ss = steady_state(params)
    traj = saddle_path(params, ss.z_star)
    assert traj.meta == {"steps": 0, "nfev": 0, "event_evals": 0, "plane": name == "case1",
                         "stop_reason": "at_steady_state", "t_stop": 0.0}
    assert reconstruct_levels(traj, 2.0, params).level_rows == [
        (2.0, 2.0 / ss.z_star, ss.q_star * 2.0)]


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


def path_parts(params):
    """(ss, terms, lambda, v, coeffs): the balanced path, plane_terms at w*,
    the stable eigenvalue's real part and saddle_path's eigenvector, and,
    where tau0* < 1, the Taylor coefficients in s of the closed form the
    plane path takes (closed_form_coefficients; else None)."""
    ss = steady_state(params)
    lam, v, terms = dynamics.stable_eigenpair(ss, params, eigen4(ss, params))
    coeffs = closed_form_coefficients(params) if terms[5] < 1.0 else None
    return ss, terms, lam.real, v, coeffs


def plane_pieces(params):
    """(p, theta, kappa, decay) of the plane path in floats, as _plane_path
    takes them: p = (Y1 - w* MPK)/MPH, theta = tvc_margin, kappa = (z* +
    p)/dz, so that s = kappa y, and the decay rate b (z* + p) = -lambda."""
    ss = steady_state(params)
    rates = sector_rates(ss.w_star, params)
    terms = plane_terms(ss.w_star, params, rates)
    _, (_, dz, *_), _ = dynamics.stable_eigenpair(ss, params, eigen4(ss, params), terms)
    p = (rates[4] - ss.w_star * rates[5]) / rates[7]
    return p, ss.tvc_margin, (ss.z_star + p) / dz, terms[1] * (ss.z_star + p)


def closed_form_coefficients(params, order=10):
    """[(0, z*, q*), (0, Z_1, Q_1), ..., (0, Z_K, Q_K)], K = order: the plane
    path's closed form as a series in s = kappa y, in floats. z - z* = (z*
    + p) sum_{k>=1} y^k and q = q*/(1 - r y), r = -p/z*, so Z_k = (z* + p)
    kappa^-k and Q_k = q* (r/kappa)^k."""
    ss = steady_state(params)
    p, _, kappa, _ = plane_pieces(params)
    r = -p / ss.z_star
    return [(0.0, ss.z_star, ss.q_star)] + [
        (0.0, (ss.z_star + p) / kappa ** k, ss.q_star * (r / kappa) ** k)
        for k in range(1, order + 1)]


def closed_form_at(params, s):
    """(z, q) on the plane path at s = kappa y, and (dz/ds, dq/ds) there,
    from the float pieces (plane_pieces)."""
    ss = steady_state(params)
    p, _, kappa, _ = plane_pieces(params)
    y, r = s / kappa, -p / ss.z_star
    return ((ss.z_star + p * y) / (1.0 - y), ss.q_star / (1.0 - r * y)), (
        (ss.z_star + p) / (1.0 - y) ** 2 / kappa, ss.q_star * r / (1.0 - r * y) ** 2 / kappa)


def unit_of(ss):
    """The stepper's unit of distance from x*, SEED_SCALE |x*|."""
    return dynamics.SEED_SCALE * math.hypot(ss.z_star, ss.q_star, ss.u_star, ss.v_star)


def located(ss, y):
    """(w - w*, z, q) at the stepper's coordinates y, as saddle_path maps them."""
    unit = unit_of(ss)
    return unit * y[0], ss.z_star + unit * y[1], ss.q_star + unit * y[2]


def law_of(params):
    """saddle_path's law for tau0(w): (w*, tau0*, p), tau0(w) = tau0* (w/w*)^p."""
    w_star = steady_state(params).w_star
    return w_star, plane_terms(w_star, params)[5], params.rate_terms[3] - params.rate_terms[8]


def test_saddle_path_hands_the_kernel_python_floats(params_any_case, monkeypatch):
    """On the plane the path's own kernel call is one: dynamics calls
    plane_terms at the float w*, on the sector_rates it takes there, and
    nowhere else (eigen4 takes J2's b from those terms). From 0.8 z*, as
    from any start there, the path is written in closed form, so the
    stepper never runs, and every time and state is a Python float."""
    terms_calls = []
    plane_terms = dynamics.plane_terms

    def terms_spy(w, params, *rates):
        terms_calls.append(w)
        return plane_terms(w, params, *rates)

    monkeypatch.setattr(dynamics, "plane_terms", terms_spy)
    monkeypatch.setattr(dynamics, "_dormand_prince", None)
    ss = steady_state(params_any_case)
    traj = saddle_path(params_any_case, 0.8 * ss.z_star)
    assert terms_calls == [ss.w_star] and type(terms_calls[0]) is float
    assert traj.meta["nfev"] == 0
    assert type(traj.meta["t_stop"]) is float
    assert all(type(t) is float for t in traj.time_rows)
    assert all(type(x) is float for row in traj.state_rows for x in row)


@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_transverse_path_hands_the_stepper_python_floats(factor, monkeypatch):
    """Where tau0* > 1 (pool economy 60) the path is stepped. The stepper
    passes Python floats to its rhs, so it runs in float arithmetic rather
    than numpy-scalar arithmetic, and its step control stays in floats too:
    a numpy scalar there (a max_step from a numpy eigenvalue, say) would
    turn every time and stage value into one."""
    fun_calls = []
    stepper = dynamics._dormand_prince

    def stepper_spy(fun, y, max_step, events):
        def logged(*x):
            fun_calls.append(x)
            return fun(*x)

        return stepper(logged, y, max_step, events)

    monkeypatch.setattr(dynamics, "_dormand_prince", stepper_spy)
    params = params_of("pool60")
    traj = saddle_path(params, factor * steady_state(params).z_star)
    assert len(fun_calls) == traj.meta["nfev"] > 0
    assert all(type(a) is float for x in fun_calls for a in x)
    assert type(traj.meta["t_stop"]) is float
    assert all(type(t) is float for t in traj.time_rows)
    assert all(type(x) is float for row in traj.state_rows for x in row)


@pytest.mark.parametrize("case", sorted(CASE_PSI))
def test_plane_terms_give_the_reduced_systems_equations_on_f_zero(case):
    """At 200 random states (w, z, q) within e^(+-0.2) of each case's x*, w
    off w* too: with u and v from allocations, plane_terms' z' and q'
    equal rhs_reduced_values' to 1e-13 of the largest of their terms (b z^2,
    (a + q) z, c and q^2, e q, c q/z; measured 8.7e-15), and g(w) equals
    w (v'/v + z'/z - u'/u) from rhs_reduced_values to 1e-12 of w (|v'/v| +
    |z'/z| + |u'/u|), the size of the terms that sum cancels (measured
    2.0e-14)."""
    params = bench_params(*CASE_PSI[case])
    ss = steady_state(params)
    rng = random.Random(case)
    for _ in range(200):
        w, z, q = (x * math.exp(rng.uniform(-0.2, 0.2))
                   for x in (ss.w_star, ss.z_star, ss.q_star))
        a, b, c, e, g, tau0 = dynamics.plane_terms(w, params)
        u, v = dynamics.allocations(tau0, w, z)
        zdot, qdot, udot, vdot = rhs_reduced_values(z, q, u, v, params)
        assert abs(-(b * z * z + (a + q) * z + c) - zdot) <= 1e-13 * max(
            abs(b * z * z), abs((a + q) * z), abs(c))
        assert abs(q * (q - e + c / z) - qdot) <= 1e-13 * max(q * q, abs(e * q), abs(c * q / z))
        rates = (vdot / v, zdot / z, -udot / u)
        assert abs(g - w * sum(rates)) <= 1e-12 * w * sum(map(abs, rates))


@pytest.mark.parametrize("name, factor", [("case1", 0.9), ("case1", 1.1), ("case3", 0.95),
                                          ("stiff35", 1.0003), ("pool60", 0.9), ("pool70", 1.1)])
def test_paths_keep_f_zero_and_on_the_plane_w_star(name, factor):
    """Every row lies on F = 0, tau = v(1 - u)/(u(1 - v)) = tau0(w) with
    w = (v/u) z: tau0 u (1 - v) - v (1 - u) is within 1e-12 of tau0 |u| +
    |v|. Where tau0* < 1 every row also has (v/u) z = w* to 1e-12
    relative; where tau0* > 1 w moves by more than 1 %. The rows are built
    from allocations, so both hold to the rounding of u and v, which divide
    by tau0 - 1: measured 1.3e-13 and 2.2e-13 on stiff economy 35, where
    tau0* - 1 = -8.4e-4, and at most 3e-15 elsewhere."""
    params = params_of(name)
    ss = steady_state(params)
    traj = saddle_path(params, factor * ss.z_star)
    moved = 0.0
    for z, q, u, v in traj.state_rows:
        w = v / u * z
        tau0 = dynamics.plane_terms(w, params)[5]
        assert abs(tau0 * u * (1.0 - v) - v * (1.0 - u)) <= 1e-12 * (tau0 * abs(u) + abs(v))
        moved = max(moved, abs(w / ss.w_star - 1.0))
    assert moved <= 1e-12 if ss.tau0 < 1.0 else moved > 1e-2


def lapack_stable_pair(jac):
    """(lambda, unit v) of the stable eigenpair by LAPACK, or None where the
    LAPACK route finds no real stable eigenvector. As in classify, the
    eigenvalue of least |Re| is the structural zero, and one of the other
    three must have Re < 0."""
    ev, vecs = np.linalg.eig(np.array(jac))
    others = np.delete(ev.real, np.argmin(np.abs(ev.real)))
    i = int(np.argmin(ev.real))
    v = vecs[:, i]
    if not (others < 0.0).any() or np.max(np.abs(v.imag)) > 1e-12 * np.max(np.abs(v.real)):
        return None
    return ev[i].real, np.real(v) / np.linalg.norm(np.real(v))


def check_stable_pair(params) -> bool:
    """stable_eigenpair against LAPACK on the 4-D Jacobian: the same unit
    eigenvector (dz, dq, du, dv) to 1e-10 once signs are aligned, and dw its
    w = (v/u) z component. LAPACK finds a real stable pair on every
    economy checked, as eigen4's theorem says. Returns True once the pair
    is checked."""
    rep = stability_report(params)
    ss = rep.steady
    ref = lapack_stable_pair(rep.jacobian)
    assert ref is not None
    lam, (dw, *v), terms = dynamics.stable_eigenpair(ss, params, rep.eigenvalues)
    assert terms == dynamics.plane_terms(ss.w_star, params)
    assert type(lam) is complex and all(type(x) is float for x in (dw, *v))
    assert math.hypot(*v) == pytest.approx(1.0, abs=1e-15)
    ref_v = ref[1] if ref[1] @ v >= 0.0 else -ref[1]
    assert np.max(np.abs(np.array(v) - ref_v)) <= 1e-10
    dz, _, du, dv = v
    slope = ss.w_star * (dv / ss.v_star + dz / ss.z_star - du / ss.u_star)
    assert abs(dw - slope) <= 1e-10 * max(1.0, abs(dw))
    assert (dw == 0.0) == (ss.tau0 < 1.0)
    return True


@pytest.mark.parametrize("economy", ECONOMIES)
def test_stable_eigenvector_matches_lapack(economy):
    assert check_stable_pair(params_of(economy))


def test_slow_stable_root_gives_lapacks_pair():
    """SLOW_SADDLE's stable root, -1.164e-4, lies within 1e-3 of zero: its
    eigenvector is LAPACK's to 1e-10, and the root LAPACK's to 1e-12 of the
    spectrum's scale (measured 1.3e-16; the root is the split's isolated
    lambda_w, though the spectrum has two pairs 1.2e-4 apart). Its paths
    decay over 1/|lambda| = 8 600, so they run out of the travel budget,
    with a typed error."""
    params = ModelParams(**SLOW_SADDLE)
    rep = stability_report(params)
    assert check_stable_pair(params)
    lam, _, _ = dynamics.stable_eigenpair(rep.steady, params, rep.eigenvalues)
    scale = max(map(abs, rep.eigenvalues))
    assert abs(lam.real - lapack_stable_pair(rep.jacobian)[0]) <= 1e-12 * scale
    with pytest.raises(TargetNotReachedError, match="travel budget exhausted"):
        saddle_path(params, 0.9 * steady_state(params).z_star)


def test_stable_eigenvector_matches_lapack_on_economy_scan_pool():
    """Every solvable economy of the benchmark's economy_scan pool, on both
    sides of tau0* = 1: each is labelled saddle_path, LAPACK finds a real
    stable pair on each, and the eigenvector is LAPACK's."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    paired = labelled = 0
    halves = set()
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            rep = stability_report(params)
        except CesGrowthError:
            continue
        pair = check_stable_pair(params)
        paired += pair
        labelled += rep.classification == "saddle_path"
        if pair:
            halves.add(rep.steady.tau0 < 1.0)
    assert paired == labelled == 2995
    assert halves == {True, False}


def test_transverse_eigenvector_matches_complex_steps_on_economy_scan_pool():
    """Every economy of the economy_scan pool with tau0* > 1 and a real
    stable pair (1 233): stable_eigenpair's vector, from jacobian_fd and
    the allocations' slopes in closed form, is
    oracles.complex_step_eigenvector's to 1e-13 in every component
    (measured 4.0e-15)."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    compared = 0
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            rep = stability_report(params)
            lam, v, _ = dynamics.stable_eigenpair(rep.steady, params, rep.eigenvalues)
        except CesGrowthError:
            continue
        if rep.steady.tau0 > 1.0:
            expected = oracles.complex_step_eigenvector(rep.steady, params, lam.real)
            assert max(abs(x - y) for x, y in zip(v, expected)) <= 1e-13, i
            compared += 1
    assert compared == 1233


def stepped_calls(params, z0, monkeypatch):
    """(saddle_path's result or its TargetNotReachedError, the list of
    (fun, y0, max_step, events, output) of each stepper call it made): one
    where tau0* > 1, none on the plane."""
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
    monkeypatch.setattr(dynamics, "_dormand_prince", stepper)
    return result, calls


def plane_leg(params, z0):
    """(fun, y0, max_step, events) of the reversed-time problem on the plane
    w = w*, where tau0* < 1, in saddle_path's stepper coordinates: from the
    linear seed x* + v s_end, |s_end| = SEED_SCALE |x*|, on the side where z
    moves toward z0, with plane_terms' rhs at w* and the stop events of a
    stepped path. saddle_path stepped this leg before the plane half took
    its closed form; the stepper's tests keep it as a problem with long
    legs, the corner u = v = 1 and the coordinate floor."""
    ss = steady_state(params)
    lam, (_, dz, dq, *_), terms = dynamics.stable_eigenpair(ss, params, eigen4(ss, params))
    a, b, c, e, _, tau0 = terms
    unit = unit_of(ss)
    s_end = math.copysign(unit, dz * (z0 - ss.z_star))
    law = (ss.w_star, tau0, params.rate_terms[3] - params.rate_terms[8])
    origin = (0.0, ss.z_star, ss.q_star)
    seed = dynamics._horner([origin, (0.0, dz, dq)], s_end)

    def fun(y0, y1, y2):
        z, q = ss.z_star + unit * y1, ss.q_star + unit * y2
        return -0.0, ((b * z + a + q) * z + c) / unit, q * (e - q - c / z) / unit

    def events(y):
        x = located(ss, y)
        z, q, u, v = dynamics._reduced(law, *x)
        return z - z0, min(ss.w_star + x[0], z, q, u, v) - dynamics.BOX_MARGIN

    return (fun, [(x - o) / unit for x, o in zip(seed, origin)],
            min(1.0, 0.5 / abs(lam.real)), events)


def rk45_replay(params, z0, monkeypatch):
    """saddle_path's result (or its TargetNotReachedError), the stepper's own
    run (reversed-time times and states, with its rhs and max_step), and
    scipy's RK45 runs from the same seed, with the same max_step, tolerances
    and events: the first from the seed itself, then one from the seed with
    each coordinate moved so that the (w - w*, z, q) it stands for moves by
    one ulp. Where tau0* > 1 the stepper's run is saddle_path's own
    (stepped_calls); on the plane it is plane_leg's."""
    if steady_state(params).tau0 < 1.0:
        result, _ = stepped_calls(params, z0, monkeypatch)
        fun, y0, max_step, events = plane_leg(params, z0)
        ts, ys, *_ = dynamics._dormand_prince(fun, y0, max_step, events)
    else:
        result, calls = stepped_calls(params, z0, monkeypatch)
        (fun, y0, max_step, events, (ts, ys, *_)), = calls
    terminal = []
    for i in range(2):
        def event(_t, x, i=i):
            return events(x.tolist())[i]
        event.terminal = True
        terminal.append(event)
    ss, x0 = steady_state(params), located(steady_state(params), y0)
    seeds = [np.array(y0)]
    for i in range(3):
        seeds.append(seeds[0].copy())
        seeds[-1][i] += (math.nextafter(x0[i], math.inf) - x0[i]) / unit_of(ss)
    sols = [solve_ivp(lambda _t, x: fun(*x.tolist()), (0.0, dynamics.T_BUDGET), seed,
                      method="RK45", rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL,
                      first_step=max_step, max_step=max_step, events=terminal)
            for seed in seeds]
    return result, sols, (fun, max_step, ts, ys)


# (economy, z0 / z*, outcome): on the plane (plane_leg), the five cases from
# both sides, case 1 nearer and farther, case 1 and a stiff economy into a
# coordinate floor, cases 2-5 from farther on both sides, case 1 and a stiff
# economy from below, and cases 2 and 3 into the floor; then, where tau0* >
# 1 and saddle_path steps, pool economies 60 from both sides and 70 from
# above, and 50 into the floor.
PARITY_STARTS = (
    [(f"case{c}", f, "target_reached") for c in CASE_PSI for f in (0.9, 1.1)]
    + [("case1", f, "target_reached") for f in (0.5, 1.05)]
    + [("case1", 1.5, "hit a coordinate floor"), ("stiff35", 1.1, "hit a coordinate floor")]
    + [(f"case{c}", f, "target_reached") for c in (2, 3, 4, 5) for f in (0.8, 1.3)]
    + [("case1", 0.8, "target_reached"), ("stiff35", 0.8, "target_reached")]
    + [("case2", 2.0, "hit a coordinate floor"), ("case3", 3.0, "hit a coordinate floor")]
    + [("pool60", 0.9, "target_reached"), ("pool60", 1.1, "target_reached"),
       ("pool70", 1.1, "target_reached"), ("pool50", 2.0, "hit a coordinate floor")]
)


@pytest.mark.parametrize("economy, factor, outcome", PARITY_STARTS)
def test_saddle_path_takes_scipy_rk45_steps(economy, factor, outcome, monkeypatch):
    """The in-house Dormand-Prince stepper against scipy's RK45 as the oracle,
    and the path against the stepped leg.

    Over the integrated segment, from the seed to z0: the same accepted
    steps and rhs calls and the same stop. Where tau0* > 1 the path holds
    those steps, reversed. On the plane, where the path is written in
    closed form, the leg is plane_leg's from the linear seed: there the
    path's (q, u, v) at z0 lie within SADDLE_RTOL of the leg's end
    (measured at most 2.3e-11), and its clock within twice the linear
    seed's phase offset plus 10 SADDLE_RTOL: the seed's z is the manifold's
    at s_end (1 - s_end/kappa), so the leg's clock is off by about
    SEED_SCALE |x*| / (|kappa| |lambda|) (measured 1.01 to 1.11 times that on
    the cases, and 1.0e-10 on stiff economy 35, where it is 8.4e-13). Both
    stop at the coordinate floor where one does.
    scipy sums the stages with numpy's dot products, the stepper with plain
    float sums; the last-ulp difference in the error norm, a difference
    formed by cancellation, moves every later step size by about 1e-7, so
    stored times are not compared. The stopping time must agree to within
    four times the spread that moving one coordinate of the seed's
    (w - w*, z, q) by one ulp causes in scipy's own, and to 1e-7 relative
    in any case. The stepper works on the distance from x* in units of
    SEED_SCALE |x*|, so an ulp of its own coordinates is below the rounding
    of the z that the stop event reads.

    Step by step: scipy's RK45 started at each stored state, with the
    stored step as its first step, reproduces the next stored state to
    1e-14 in the max norm, relative to that state's own. The last state,
    interpolated at the event, has no stored step.
    """
    params = params_of(economy)
    ss = steady_state(params)
    z0 = factor * ss.z_star
    result, (sol, *nudged), (fun, max_step, ts, ys) = rk45_replay(params, z0, monkeypatch)
    hit = [len(te) > 0 for te in sol.t_events]
    spread = max(abs(s.t[-1] - sol.t[-1]) for s in nudged)
    assert len(ts) == len(sol.t)
    assert abs(ts[-1] - sol.t[-1]) <= min(4.0 * spread, 1e-7 * sol.t[-1])
    law = law_of(params)
    if outcome == "target_reached":
        assert hit[0] and sol.status == 1
        stepped = [dynamics._reduced(law, *located(ss, y)) for y in ys[::-1]]
        if ss.tau0 < 1.0:
            assert result.meta["steps"] == result.meta["nfev"] == 0
            for a, b in zip(result.state_rows[0][1:], stepped[0][1:]):
                assert abs(a - b) <= dynamics.SADDLE_RTOL * abs(b)
            _, _, kappa, decay = plane_pieces(params)
            offset = unit_of(ss) / abs(kappa) / decay
            assert abs(result.meta["t_stop"] - ts[-1]) <= 2.0 * offset + 10 * dynamics.SADDLE_RTOL
        else:
            assert result.state_rows == stepped
            assert result.meta["steps"] == len(ts)
            assert result.meta["nfev"] == sol.nfev
            assert result.time_rows == [ts[-1] - t for t in reversed(ts)]
            assert result.meta["t_stop"] == result.time_rows[-1] == ts[-1]
    else:
        assert hit == [False, True]
        assert isinstance(result, TargetNotReachedError)
        if ss.tau0 < 1.0:
            assert str(result).startswith(f"z never crossed {z0} ({outcome}; ")
        else:
            assert str(result) == (f"z never crossed {z0} ({outcome}; "
                                   f"final z = {located(ss, sol.y[:, -1])[1]:g})")
    for i in range(len(ts) - 2):
        rk = RK45(lambda _t, x: fun(*x.tolist()), ts[i], np.array(ys[i]),
                  dynamics.T_BUDGET, first_step=ts[i + 1] - ts[i], max_step=max_step,
                  rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL)
        rk.step()
        assert rk.t == ts[i + 1]
        assert np.max(np.abs(rk.y - ys[i + 1])) <= 1e-14 * np.max(np.abs(ys[i + 1]))


def defect_at(terms, x, dx, rate, s):
    """rms over the three components of (w, z, q) (w's is 0) of |E_i| /
    (|lambda| (atol + rtol |W_i|)), times rtol, with E = (z', q')(W(s)) -
    lambda s W'(s), at (z, q) = x and W'(s) = dx: the invariance gate the
    plane's series seed once had to pass."""
    a, b, c, e, *_ = terms
    (z, q), (dz, dq) = x, dx
    tol = [dynamics.SADDLE_ATOL + dynamics.SADDLE_RTOL * abs(x) for x in (z, q)]
    ez = (-(b * z * z + (a + q) * z + c) - rate * s * dz) / abs(rate) / tol[0]
    eq = (q * (q - e + c / z) - rate * s * dq) / abs(rate) / tol[1]
    return dynamics.SADDLE_RTOL * ((ez * ez + eq * eq) / 3) ** 0.5


# The paper cases and the stiff economies from above z*. The stiff
# economies' paths stop at the coordinate floor.
GATED_STARTS = [(name, 1.1) for name in ECONOMIES]


@pytest.mark.parametrize("name, factor", GATED_STARTS)
def test_seed_passes_the_invariance_gate(name, factor):
    """The closed form in floats, W(s) = (z, q)(s/kappa) and its slope, at
    the start's s0 = kappa y0 and at -s0, has an invariance defect within
    1e-4 SADDLE_RTOL, the gate the order-10 series' seed had to pass at
    SADDLE_RTOL: the hyperbola is the manifold to rounding (measured at
    most 2.3e-16)."""
    params = params_of(name)
    ss, terms, rate, _, _ = path_parts(params)
    p, _, kappa, _ = plane_pieces(params)
    z0 = factor * ss.z_star
    s0 = kappa * (z0 - ss.z_star) / (z0 + p)
    assert abs(s0) > dynamics.SEED_SCALE * math.hypot(*ss[1:5])
    for s in (s0, -s0):
        assert defect_at(terms, *closed_form_at(params, s), rate, s) <= 1e-4 * dynamics.SADDLE_RTOL


def taylor_oracle(params, order=10):
    """The stable manifold's Taylor coefficients on the plane, [(z*, q*),
    (dz, dq), (Z_2, Q_2), ...] to order, at 40 digits and without the
    closed form: x* from a 40-digit root of gap_P, the
    rhs rhs_reduced_values' (z', q') at (z, q, u(z), v(z)) with the closed
    forms at w*, J2 by mpmath.diff, its stable eigenpair normalised with
    du/dz and dv/dz, and order k from (J2 - k lambda I) a_k =
    -[rhs(W_{<k})]_k, the Taylor coefficient by mpmath.diff along the
    oracle's own W_{<k}, solved by mpmath.lu_solve."""
    ss = steady_state(params)
    with mpmath.workdps(40):
        w = mpmath.findroot(lambda w: gap_P(w, params), mpmath.mpf(ss.w_star))
        star = closed_forms(w, params)
        tau0 = star.tau0

        def allocations(z):
            return (tau0 * z / w - 1) / (tau0 - 1), (tau0 - w / z) / (tau0 - 1)

        def rhs(z, q):
            return rhs_reduced_values(z, q, *allocations(z), params)[:2]

        x = (star.z_star, star.q_star)
        jac = mpmath.matrix(2, 2)
        for j in range(2):
            for i in range(2):
                jac[i, j] = mpmath.diff(
                    lambda h: rhs(*[c + h if k == j else c for k, c in enumerate(x)])[i], 0)
        tr, det = jac[0, 0] + jac[1, 1], jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        lam = (tr - mpmath.sqrt(tr * tr - 4 * det)) / 2
        m = (lam - jac[0, 0]) / jac[0, 1]
        du, dv = (mpmath.diff(lambda z: allocations(z)[i], x[0]) for i in (0, 1))
        norm = mpmath.sqrt(1 + m * m + du * du + dv * dv)
        coeffs = [x, (1 / norm, m / norm)]
        for k in range(2, order + 1):
            def along(s, i):
                return rhs(*[sum(c[j] * s**p for p, c in enumerate(coeffs))
                             for j in range(2)])[i]

            rhs_k = [mpmath.diff(lambda s: along(s, i), 0, k) / mpmath.factorial(k)
                     for i in range(2)]
            a_k = mpmath.lu_solve(jac - k * lam * mpmath.eye(2),
                                  mpmath.matrix([-c for c in rhs_k]))
            coeffs.append((a_k[0], a_k[1]))
        return coeffs


@pytest.mark.parametrize("name, factor", GATED_STARTS)
def test_manifold_coefficients_match_40_digit_taylor_coefficients(name, factor):
    """The closed form's series in s (closed_form_coefficients: Z_k = (z* +
    p) kappa^-k, Q_k = q* (r/kappa)^k, from the float p, kappa and q* the
    path takes) against taylor_oracle, the stable manifold's own Taylor
    coefficients from a 40-digit recursion on rhs_reduced_values: each
    order to 1e-13 of its own size on the paper cases and 1e-10 on the
    stiff economies, where the float kappa carries the rounding of dz ~
    (1 - tau0*) (measured 7.4e-15 and 2.2e-12; the order-10 recursion this
    closed form replaced gave 8.7e-15 and 2.3e-11). The path's term at its
    start, |da_k| |s0|^k, stays below 1e-3 of SADDLE_RTOL |x*|."""
    params = params_of(name)
    ss, _, _, _, coeffs = path_parts(params)
    p, _, kappa, _ = plane_pieces(params)
    z0 = factor * ss.z_star
    s0 = kappa * (z0 - ss.z_star) / (z0 + p)
    oracle = taylor_oracle(params)
    bound = 1e-13 if name.startswith("case") else 1e-10
    for k, (c, ref) in enumerate(zip(coeffs, oracle)):
        err = max(abs(c[i + 1] - float(ref[i])) for i in range(2))
        assert err <= bound * float(max(abs(r) for r in ref))
        assert err * abs(s0) ** k <= 1e-3 * dynamics.SADDLE_RTOL * math.hypot(*ss[1:5])


@pytest.mark.parametrize("case, factor", reference_paths.STARTS[:9] + [(1, 0.9), (1, 0.8)]
                         + [(c, f) for c in (2, 3, 4, 5) for f in (0.8, 1.3)])
def test_path_does_not_depend_on_the_circle_radius(case, factor, monkeypatch):
    """The path ends on the circle |s| = SEED_SCALE |x*| about x*, where its
    clock stops. With that radius halved (SEED_SCALE), the path from z0 is
    the same: every row of the wide circle's but its last, times and states
    bit for bit, opens the narrow circle's path, and the clock grows by exactly ln
    2 / |lambda|, to 1e-12 relative. The starts are the reference table's
    paper-case starts, case 1 from 0.9 z*, past the corner u = v = 1, and
    from 0.8 z*, and cases 2-5 from 0.8 and 1.3 z*."""
    params = bench_params(*CASE_PSI[case])
    z0 = factor * steady_state(params).z_star
    wide = saddle_path(params, z0)
    monkeypatch.setattr(dynamics, "SEED_SCALE", dynamics.SEED_SCALE / 2)
    narrow = saddle_path(params, z0)
    _, _, _, decay = plane_pieces(params)
    n = len(wide) - 1
    assert narrow.time_rows[:n] == wide.time_rows[:n]
    assert narrow.state_rows[:n] == wide.state_rows[:n]
    assert narrow.meta["t_stop"] - wide.meta["t_stop"] == pytest.approx(
        math.log(2.0) / decay, rel=1e-12)


@pytest.mark.parametrize("event, outcome", [("BOX_MARGIN", "hit a coordinate floor")])
def test_manifold_rows_respect_the_events_of_stepped_rows(event, outcome, monkeypatch):
    """With the coordinate floor moved to where the path W crosses it at
    |s| = 1e-3 |x*|, the path stops there as a stepped path would, and the
    stepper never runs: the final z reported is that of the first of W's
    rows, counted from x*, on or below the floor, so it lies past W's
    crossing by less than one row (there the step in ln |s| is about 0.3 <
    ln 2). Case 1 from 1.1 and 1.3 z* lowers q; from 1.3 z* the rows
    beyond u = v = 0 are below the floor too."""
    params = params_of("case1")
    ss = steady_state(params)
    s = 1e-3 * math.hypot(*ss[1:5])
    (z_floor, q), _ = closed_form_at(params, s)
    monkeypatch.setattr(dynamics, event, q)
    monkeypatch.setattr(dynamics, "_dormand_prince", None)
    for factor in (1.1, 1.3):
        with pytest.raises(TargetNotReachedError, match=outcome) as exc:
            saddle_path(params, factor * ss.z_star)
        final = float(str(exc.value).split("final z = ")[1].rstrip(")"))
        assert z_floor <= final < closed_form_at(params, 2 * s)[0][0]


def rk4_rows(params, times, states, substeps=4):
    """Each row after the first from the one before it, by `substeps`
    classical Runge-Kutta steps of rhs_reduced_values over the interval."""
    out = []
    for t0, t1, x in zip(times, times[1:], states):
        h = (t1 - t0) / substeps
        for _ in range(substeps):
            k1 = rhs_reduced_values(*x, params)
            k2 = rhs_reduced_values(*(a + 0.5 * h * k for a, k in zip(x, k1)), params)
            k3 = rhs_reduced_values(*(a + 0.5 * h * k for a, k in zip(x, k2)), params)
            k4 = rhs_reduced_values(*(a + h * k for a, k in zip(x, k3)), params)
            x = [a + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                 for a, p, q, r, s in zip(x, k1, k2, k3, k4)]
        out.append(x)
    return out


# transition_paths' ranges of z0 / z*: case 1 within 1.05-1.10, near the
# top of its interior interval (0.982-1.133), the other cases within
# 0.90-0.99 and 1.01-1.50.
ROW_DENSITY_STARTS = ([(1, f) for f in (1.05, 1.06, 1.07, 1.08, 1.09, 1.1)]
                      + [(c, f) for c in (2, 3, 4, 5)
                         for f in (0.9, 0.95, 0.99, 1.01, 1.1, 1.2, 1.5)])


@pytest.mark.parametrize("case, factor", ROW_DENSITY_STARTS)
def test_rows_are_dense_enough_for_the_dynamics(case, factor):
    """Every row interval of a plane path, the expansion's rows and the
    stepper's alike, is short enough that four classical RK4 steps of
    rhs_reduced_values over it reproduce the next row to 1e-8 relative to
    max(1, |x|), as the benchmark's step check asks (measured at most
    3.2e-10, on case 1 from 1.07 z*). With the rows spaced by the law for
    W's linear part alone, MANIFOLD_ROW_STEP (|x*|/|s|)^(1/5), the order-10
    expansion's rows missed on case 1 from 1.06-1.10 z*, by 1.1e-8 to
    1.3e-7, each at its first row."""
    params = bench_params(*CASE_PSI[case])
    traj = saddle_path(params, factor * steady_state(params).z_star)
    for x, y in zip(rk4_rows(params, traj.time_rows, traj.state_rows), traj.state_rows[1:]):
        assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(x, y)) <= 1e-8


# The row-density starts, and the stiff economies and the economy with u*
# near 1 from both sides, near z* and past either end of their interior
# intervals.
ROW_ORDER_STARTS = ([(f"case{c}", f) for c, f in ROW_DENSITY_STARTS]
                    + [(name, f) for name in ECONOMIES[len(CASE_PSI):] + ["u_star_near_one"]
                       for f in (0.9, 0.999, 1.001, 1.1)])


@pytest.mark.parametrize("name, factor", ROW_ORDER_STARTS)
def test_rows_of_w_agree_with_w_to_full_order(name, factor, monkeypatch):
    """Every row of a plane path lies on W, the stable manifold, in full:
    each (z, q, u, v) agrees with the 40-digit closed form
    (oracles.plane_path) at the row's own time, each coordinate to 1e-13 of
    the larger of its size and its size at x*, and the clock, times
    |lambda|, to 1e-13; on the stiff economies u, v and the clock to 1e-11,
    as 1/|1 - tau0*| of 700 to 1 200 magnifies the float tau0*'s rounding
    in them (measured 5.5e-15 and 6.2e-14 elsewhere, 1.4e-12 and 3.7e-12
    there; z and q at most 8.5e-15). The floor is lowered to -inf so that
    paths past u = v = 0 report their rows."""
    params = params_of(name)
    z0 = factor * steady_state(params).z_star
    monkeypatch.setattr(dynamics, "BOX_MARGIN", -math.inf)
    traj = saddle_path(params, z0)
    oracle = oracles.plane_path(params, z0)
    bounds = (1e-13, 1e-13) + ((1e-11,) * 2 if name.startswith("stiff") else (1e-13,) * 2)
    assert len(traj) > 1
    with mpmath.workdps(40):
        sizes = [abs(x) for x in oracle.x_star]
        for t, row in zip(traj.time_rows, traj.state_rows):
            for x, ref, size, bound in zip(row, oracle.at(t), sizes, bounds):
                assert abs(x - ref) <= bound * max(abs(ref), size)
        assert abs(traj.meta["t_stop"] - oracle.clock) * abs(oracle.lam) <= bounds[-1]


def test_start_within_reach_of_the_manifold_integrates_nothing(monkeypatch):
    """Case 2 from 1.001 z*: as from every plane start, the path is written
    in closed form, its first row at z0, the stepper never runs and nothing
    is searched for. Every row follows from the one before by scipy's RK45
    at rtol 1e-12 to 1e-11 relative, and the clock is ln(|s0| / (SEED_SCALE
    |x*|)) / |lambda| with s0 = kappa (z0 - z*)/(z0 + p) (plane_pieces)."""
    params = params_of("case2")
    ss = steady_state(params)
    x_star = ss[1:5]
    z0 = 1.001 * x_star[0]
    p, _, kappa, decay = plane_pieces(params)
    monkeypatch.setattr(dynamics, "_dormand_prince", None)
    searches = counted_searches(monkeypatch)
    traj = saddle_path(params, z0)
    assert traj.meta["steps"] == traj.meta["nfev"] == traj.meta["event_evals"] == 0
    assert searches == []
    assert traj.state_rows[0][0] == z0
    s0 = kappa * (z0 - x_star[0]) / (z0 + p)
    assert traj.meta["t_stop"] == traj.time_rows[-1] == pytest.approx(
        math.log(abs(s0) / (dynamics.SEED_SCALE * math.hypot(*x_star))) / decay, rel=1e-14)
    assert len(traj) > 1
    for (t0, x0), (t1, x1) in zip(zip(traj.time_rows, traj.state_rows),
                                  zip(traj.time_rows[1:], traj.state_rows[1:])):
        sol = solve_ivp(lambda _t, x: rhs_reduced_values(*x, params), (t0, t1), x0,
                        rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(sol.y[:, -1] - x1)) <= 1e-11 * np.max(np.abs(x1))


@pytest.mark.parametrize("name", ECONOMIES)
def test_paths_through_the_corner_take_the_series_seed(name):
    """From 0.5 z*, the path passes the corner u = v = 1 at z = w*, where
    allocations is not singular: the closed form, the plane series W(s)
    summed, runs through it with nothing stepped; its rows have u > 1
    exactly where z < w* and u < 1 where z > w*, and v > 1 with u, and its
    first row is z0."""
    params = params_of(name)
    ss = steady_state(params)
    assert ss.w_star < ss.z_star
    traj = saddle_path(params, 0.5 * ss.z_star)
    assert traj.meta["steps"] == 0 and len(traj) > 1
    for z, _, u, v in traj.state_rows:
        assert (u > 1.0) == (v > 1.0) == (z < ss.w_star)
    assert traj.state_rows[0][0] == 0.5 * ss.z_star
    assert traj.state_rows[-1][0] > ss.w_star


# The README start (case 1 from z0 = k0/h0 = 5.5), and 0.5 z* on stiff
# economies 35 and 1912 and on U_STAR_NEAR_ONE: long legs past the corner.
LONG_LEGS = [("case1", "readme"), ("stiff35", 0.5), ("stiff1912", 0.5), ("u_star_near_one", 0.5)]


@pytest.mark.parametrize("name, factor", LONG_LEGS)
def test_long_legs_meet_the_closed_form_oracle(name, factor):
    """A start far from z* meets the 40-digit closed form (oracles.
    plane_path) at z0: q to 1e-13 relative, u and v to 1e-13 + 4 eps /
    |1 - tau0*| (eps = 2^-52), and the clock, times |lambda|, to 1e-11.
    Float tau0* is off its exact value by about an ulp, which allocations
    magnify by 1/|1 - tau0*|, 1 185 on stiff economy 35: there u and v are
    off by 2.2e-13, and by 4.4e-14 with the exact tau0* rounded to a float.
    Measured: u and v 7.0e-14 on stiff economy 1912 and at most 8.1e-16
    elsewhere, q at most 1.2e-15; the clock 4.1e-12 and 1.3e-12 on the
    stiff economies, at most 2.2e-14 elsewhere. Stepped over the long leg from the
    series' reach, these starts' (q, u, v) moved by 1.9e-10 to 3.4e-10
    with the seed's radius."""
    params = params_of(name)
    ss = steady_state(params)
    z0 = 5.5 if factor == "readme" else factor * ss.z_star
    traj = saddle_path(params, z0)
    oracle = oracles.plane_path(params, z0, 60 if name == "u_star_near_one" else 40)
    bounds = (1e-13,) + (1e-13 + 4 * 2.0 ** -52 / abs(1.0 - ss.tau0),) * 2
    with mpmath.workdps(40):
        for x, ref, bound in zip(traj.state_rows[0][1:], (oracle.q, oracle.u, oracle.v), bounds):
            assert abs(x - ref) <= bound * abs(ref)
        assert abs(traj.meta["t_stop"] - oracle.clock) * abs(oracle.lam) <= 1e-11


def counted_searches(monkeypatch):
    """A list that gets, for each _illinois search saddle_path runs, the
    evaluations of g counted from outside, after checking that the
    search reports the same count."""
    counts = []
    search = dynamics._illinois

    def spy(g, lo, hi):
        points = []

        def counted(s):
            points.append(s)
            return g(s)

        out = search(counted, lo, hi)
        assert out[1] == len(points)
        counts.append(len(points))
        return out

    monkeypatch.setattr(dynamics, "_illinois", spy)
    return counts


@pytest.mark.parametrize("name, factor", [("case1", 1.1), ("case2", 1.1), ("case2", 0.95),
                                          ("stiff35", 0.9999), ("case1", 0.8), ("case2", 1.3),
                                          ("case2", 0.8), ("stiff35", 0.8)])
def test_trajectory_meta_records_the_seed(name, factor, monkeypatch):
    """A plane path, on either side of z*, records what saddle_path's
    docstring lists and nothing of a seed: no "order", "seed_defect",
    "setup_nfev" or "s0", and "steps", "nfev" and "event_evals" 0, as
    nothing is stepped or searched for. "stable_eigenvalue" is eigen4's
    stable root, and "t_stop" the last row's time, the closed form's
    clock ln(|s0| / (SEED_SCALE |x*|)) / |lambda|, s0 = kappa (z0 - z*)/(z0
    + p) (plane_pieces), to 1e-14 relative."""
    params = params_of(name)
    ss, *_ = path_parts(params)
    p, _, kappa, decay = plane_pieces(params)
    searches = counted_searches(monkeypatch)
    z0 = factor * ss.z_star
    traj = saddle_path(params, z0)
    meta = traj.meta
    assert meta.keys() == {"steps", "nfev", "event_evals", "plane", "stable_eigenvalue",
                           "stop_reason", "t_stop"}
    assert meta["steps"] == meta["nfev"] == meta["event_evals"] == 0 and searches == []
    assert meta["plane"] and meta["stop_reason"] == "target_reached"
    assert meta["stable_eigenvalue"] == eigen4(ss, params)[0]
    s0 = kappa * (z0 - ss.z_star) / (z0 + p)
    assert meta["t_stop"] == traj.time_rows[-1] == pytest.approx(
        math.log(abs(s0) / (dynamics.SEED_SCALE * math.hypot(*ss[1:5]))) / decay, rel=1e-14)


@pytest.mark.parametrize("args", [["--chek"], ["check"], ["--check", "pool11"],
                                  ["--check", "--check"]],
                         ids=["typo", "no-dashes", "unknown-case", "check-twice"])
def test_reference_generator_rejects_unknown_arguments(args, capsys):
    """tests/reference_paths.py exits 2 with a usage line on any argument
    but --check and the table's case names, and neither writes nor
    regenerates a row."""
    before = reference_paths.TABLE.read_text()
    assert reference_paths.main(args) == 2
    assert capsys.readouterr().err == reference_paths.USAGE + "\n"
    assert reference_paths.TABLE.read_text() == before


def reference_id(ref):
    name = ref["case"]
    return (f"case{name}" if isinstance(name, int) else name) + f"-{ref['factor']}"


@pytest.mark.parametrize("ref", [ref for ref in reference_paths.load()
                                 if ref["case"] not in reference_paths.HIGH_PRECISION],
                         ids=reference_id)
def test_saddle_path_matches_the_25_digit_reference(ref):
    """Against tests/reference_paths.json (mpmath.odefun at 25 digits from
    an mpmath eigenvector seed): the path's first row lies at z0, and its
    (q, u, v) there agree to SADDLE_RTOL relative, and its clock, the time
    from z0 to |s| = SEED_SCALE |x*|, to 1e-8. Measured: at most 5.4e-15
    and 8.5e-11 on the paper cases, in closed form, where the order-10
    series gave 1.0e-12 and 1.2e-10, the circle expansion 4.1e-11 and
    4.1e-10 and the linear seed 2.7e-10 and 6.3e-6 (the clocks' 8.5e-11 is
    the table's own, test_plane_references_meet_the_closed_form_oracle);
    5.4e-13 and 2.7e-13 on the stiff economies, from within 3e-4 z* of z*;
    2.5e-12 and 2.7e-9 on the pool economies, whose tau0* > 1, so that w
    moves. Case 1 from 0.9 z* passes the corner u = v = 1: 5.7e-16 and
    4.2e-12."""
    params = reference_paths.economy(ref["case"])
    traj = saddle_path(params, ref["z0"])
    z, *quv = traj.state_rows[0]
    assert z == pytest.approx(ref["z0"], rel=4e-16)
    for x, name in zip(quv, "quv"):
        assert abs(x - float(ref[name])) <= dynamics.SADDLE_RTOL * abs(float(ref[name]))
    assert abs(traj.meta["t_stop"] - float(ref["clock"])) <= 1e-8


@pytest.mark.parametrize("ref", [ref for ref in reference_paths.load()
                                 if ref["case"] == "u_star_near_one"], ids=reference_id)
def test_u_star_near_one_paths_match_their_50_digit_references(ref):
    """U_STAR_NEAR_ONE has u* = 1 - 3.2e-15 and tau0* = 2.4e-15, where the
    4-D rhs at the float x* is rounding noise but the plane's coefficients
    are all of order one. From 0.9 z* the path's (q, u, v) at z0 agree with
    the 50-digit reference to SADDLE_RTOL (measured 2.0e-16, 5.1e-12 when
    stepped; the 4-D route gave q = 0.58412 against 0.55879), and its clock
    to 1e-8 (measured 1.2e-9, the table's own). From 1.1 z*, where the 4-D
    route hit the coordinate floor, the path reaches z0 (measured 2.2e-16
    and 1.2e-9). Every row keeps
    1 - u within 1e-14, as u = (1 - tau0 z/w)/(1 - tau0) requires for z
    near w."""
    params = reference_paths.economy(ref["case"])
    traj = saddle_path(params, ref["z0"])
    z, *quv = traj.state_rows[0]
    assert z == pytest.approx(ref["z0"], rel=4e-16)
    for x, name in zip(quv, "quv"):
        assert abs(x - float(ref[name])) <= dynamics.SADDLE_RTOL * abs(float(ref[name]))
    assert abs(traj.meta["t_stop"] - float(ref["clock"])) <= 1e-8
    assert all(0.0 < 1.0 - u <= 1e-14 for _, _, u, _ in traj.state_rows)


PLANE_REFERENCES = [ref for ref in reference_paths.load()
                    if steady_state(reference_paths.economy(ref["case"])).tau0 < 1.0]
# Rows where the two oracles part by more than the table's 20 printed
# digits: on stiff economies 35 and 1912 closed_forms' x* and
# rhs_reduced_values part at 3.6e-17 (test_plane_oracle_is_the_reduced_
# systems_invariant_curve), and U_STAR_NEAR_ONE's q, from a 50-digit 4-D
# integration, is 4.3e-17 off the closed form, which is stable from 30 to
# 90 digits.
LOOSE_REFERENCES = {"stiff35", "stiff1912", "u_star_near_one"}


@pytest.mark.parametrize("ref", PLANE_REFERENCES, ids=reference_id)
def test_plane_references_meet_the_closed_form_oracle(ref):
    """The 18 plane rows of tests/reference_paths.json against the closed
    form at 40 digits (60 for U_STAR_NEAR_ONE; oracles.plane_path): two
    independent oracles, the table from mpmath.odefun on the 4-D rhs.

    q, u, v and lambda agree to 1e-17 relative (measured at most 2.1e-18
    on 15 rows), and to 5e-17 on stiff economies 35 and 1912 and
    U_STAR_NEAR_ONE (measured 1.9e-17, 2.1e-17 and 4.3e-17; the oracle
    moves by less than 1e-22 between 30 and 90 digits there). The table's
    clock is off by its seed's offset from the manifold, SEED_FRACTION |x*|
    along the tangent, which shifts the seed's phase s by about
    SEED_FRACTION relative, times the manifold's curvature in units of
    |x*|: |delta clock| |lambda| is held to 16 SEED_FRACTION (measured
    0.54 to 3.4 times SEED_FRACTION, and 10.1 on U_STAR_NEAR_ONE)."""
    params = reference_paths.economy(ref["case"])
    dps = 60 if ref["case"] == "u_star_near_one" else 40
    oracle = oracles.plane_path(params, ref["z0"], dps)
    bound = 5e-17 if ref["case"] in LOOSE_REFERENCES else 1e-17
    with mpmath.workdps(dps):
        for name, x in zip(("q", "u", "v", "lambda"), (oracle.q, oracle.u, oracle.v, oracle.lam)):
            assert abs(x - mpmath.mpf(ref[name])) <= bound * abs(x)
        shift = abs(oracle.clock - mpmath.mpf(ref["clock"])) * abs(oracle.lam)
        assert shift <= 16 * reference_paths.SEED_FRACTION


@pytest.mark.parametrize("name", ECONOMIES + ["u_star_near_one"])
def test_plane_oracle_is_the_reduced_systems_invariant_curve(name):
    """oracles.plane_path's hyperbola is invariant under rhs_reduced_values
    itself, not only under plane_terms' equations it was derived from: at 40
    digits, at five z from 0.5 to 2 z*, with q = theta (1 + p/z) and u, v
    from the closed forms at w*, q' = -theta p z'/z^2 and z' = -b (z -
    z*)(z + p); and p, from x*, is (Y1 - w* MPK)/MPH, the price of h in
    units of k. Each holds to 1e-16 relative: measured at most 2.8e-39 on
    the cases and stiff economy 420, 3.1e-26 on U_STAR_NEAR_ONE, where u -
    v near the corner costs 15 digits, and 3.6e-17 on stiff economies 35
    and 1912, where closed_forms' x* and rhs_reduced_values, both on the
    float-rounded params.rate_terms, part at that level (as the reference
    table's lambda does there)."""
    params = params_of(name)
    ss = steady_state(params)
    oracle = oracles.plane_path(params, ss.z_star)
    with mpmath.workdps(40):
        w = mpmath.findroot(lambda w: gap_P(w, params), mpmath.mpf(ss.w_star))
        _, b, _, _, _, tau0 = plane_terms(w, params)
        _, _, _, _, y1, mpk, _, mph, _ = sector_rates(w, params)
        assert abs(oracle.p - (y1 - w * mpk) / mph) <= 1e-16 * oracle.p
        z_star = oracle.x_star[0]
        for f in (0.5, 0.8, 0.99, 1.2, 2.0):
            z = f * z_star
            q = oracle.theta * (1 + oracle.p / z)
            zdot, qdot, _, _ = rhs_reduced_values(
                z, q, (tau0 * z / w - 1) / (tau0 - 1), (tau0 - w / z) / (tau0 - 1), params)
            assert abs(zdot + b * (z - z_star) * (z + oracle.p)) <= 1e-16 * abs(zdot)
            assert abs(qdot + oracle.theta * oracle.p * zdot / z**2) <= 1e-16 * abs(qdot)


# The paper cases' interior intervals of z0 / z*, from ROADMAP item 5:
# the draw reaches past both ends.
INTERIOR = {1: (0.9823, 1.1326), 2: (0.8688, 1.9094), 3: (0.8863, 2.3713),
            4: (0.8565, 3.0103), 5: (0.8430, 2.1925)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=st.sampled_from(sorted(CASE_PSI)), f=st.floats(0.0, 1.0))
def test_plane_paths_meet_the_closed_form_oracle(case, f):
    """From z0 across each paper case's interior interval and a third of
    its width beyond either end (past the corner below, past u = v = 0
    above), log-uniform: where the 40-digit closed form (oracles.
    plane_path) has u or v at or below BOX_MARGIN at z0, saddle_path raises
    TargetNotReachedError; elsewhere its (q, u, v) at z0 agree to 1e-13 of
    the larger of their size and their size at x* (u and v vanish at the
    upper end), and its clock, times |lambda|, to 1e-13 + 4 eps z*/|z0 - z*|,
    eps = 2^-52, the rounding of z0 - z* in y0. Measured on a grid of 120
    starts a case: at most 4.1e-15, and 0.43 of the clock's bound (1.9e-12
    near z*); the order-10 series and the stepper this closed form replaced
    gave 2.0e-9 and 7.0e-11 there."""
    params = bench_params(*CASE_PSI[case])
    ss = steady_state(params)
    lo, hi = INTERIOR[case]
    lo, hi = lo - (hi - lo) / 3, hi + (hi - lo) / 3
    z0 = lo * (hi / lo) ** f * ss.z_star
    assume(abs(z0 - ss.z_star) > 1e-12 * max(1.0, ss.z_star))
    oracle = oracles.plane_path(params, z0)
    with mpmath.workdps(40):
        if min(oracle.u, oracle.v) <= dynamics.BOX_MARGIN:
            with pytest.raises(TargetNotReachedError, match="hit a coordinate floor"):
                saddle_path(params, z0)
            return
        traj = saddle_path(params, z0)
        for x, ref, size in zip(traj.state_rows[0][1:], (oracle.q, oracle.u, oracle.v),
                                oracle.x_star[1:]):
            assert abs(x - ref) <= 1e-13 * max(abs(ref), size)
        assert abs(traj.meta["t_stop"] - oracle.clock) * abs(oracle.lam) <= (
            1e-13 + 4 * 2.0 ** -52 * ss.z_star / abs(z0 - ss.z_star))


@pytest.mark.parametrize("name", ECONOMIES + ["readme"])
def test_consumption_is_theta_times_wealth_on_every_row(name):
    """On the plane, consumption is the transversality margin theta times
    wealth at constant prices: c = theta (k + p h), p = (Y1 - w* MPK)/MPH,
    on every row of a path with levels, to 1e-13 relative, from 0.9, 0.95,
    1.05 and 1.3 z* wherever a path is returned, and from the README start
    (case 1 from z0 = 5.5, past the corner); measured at most 4.1e-16."""
    params = params_of("case1" if name == "readme" else name)
    ss = steady_state(params)
    p, theta, _, _ = plane_pieces(params)
    starts = [5.5] if name == "readme" else [f * ss.z_star for f in (0.9, 0.95, 1.05, 1.3)]
    paths = 0
    for z0 in starts:
        try:
            traj = reconstruct_levels(saddle_path(params, z0), z0, params)
        except TargetNotReachedError:
            continue
        paths += 1
        for k, h, c in traj.level_rows:
            assert abs(c - theta * (k + p * h)) <= 1e-13 * c
    assert paths >= 1


def test_stepper_gives_up_where_rk45_does():
    """y' = y^2 from y = 1 in z and q, with w' = 0 from w = 0 as on the
    plane, blows up at t = 1: the stepper's steps fall below ten ulps of t
    at the same time and state as scipy's RK45 on the same system. (With
    y' = y^2 in all three components the stop lands one ulp from scipy's:
    the error norms, hypot / sqrt(3) and numpy's norm / sqrt(3), round
    differently, where with two equal components and a zero they agree.)

    There y is about 2e13, so the state holds the runs' rounding, summed in
    a different order on each side, magnified by y: it is compared through
    t + 1/y, which the exact flow keeps constant, to one ulp of 1.
    """
    def fun(w, z, q):
        return 0.0, z * z, q * q

    with pytest.raises(StepSizeUnderflowError) as exc:
        dynamics._dormand_prince(fun, [0.0, 1.0, 1.0], 1.0, lambda y: [1.0] * 2)
    sol = solve_ivp(lambda _t, y: fun(*y.tolist()), (0.0, dynamics.T_BUDGET), [0.0, 1.0, 1.0],
                    method="RK45", rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL,
                    first_step=1.0, max_step=1.0)
    assert sol.status == -1
    assert exc.value.last_time == sol.t[-1] < 1.0
    assert exc.value.last_state[0] == sol.y[0, -1] == 0.0
    for y, y_rk in zip(exc.value.last_state[1:], sol.y[1:, -1]):
        assert 1.0 / y == pytest.approx(1.0 / y_rk, rel=0, abs=math.ulp(1.0))


# (economy, z0 / z*, the event that ends the path). On the plane, the leg
# saddle_path stepped there before its closed form (plane_leg): cases 2-5
# from both sides, case 1 from above, case 1 from the README start (z0 =
# k0 / h0 = 5.5, past the corner), case 1 and a stiff economy into the
# coordinate floor, cases 2-5 from farther on both sides, case 1 and a
# stiff economy from below, and cases 2 and 3 into the floor. Where tau0* >
# 1, saddle_path's own: pool economy 60 from both sides, 10 and 70 from
# above, 70 from below and 50 into the floor.
STEPPER_STARTS = (
    [(f"case{c}", f, 0) for c in (2, 3, 4, 5) for f in (0.9, 0.95, 1.05, 1.3)]
    + [("case1", 1.05, 0), ("case1", 1.1, 0), ("case1", "readme", 0), ("case1", 1.5, 1),
       ("stiff35", 1.1, 1), ("pool60", 0.9, 0), ("pool60", 1.1, 0)]
    + [(f"case{c}", f, 0) for c in (2, 3, 4, 5) for f in (0.5, 0.8, 1.5)]
    + [("case1", 0.8, 0), ("stiff35", 0.8, 0), ("case2", 2.0, 1), ("case3", 3.0, 1)]
    + [("pool10", 1.1, 0), ("pool70", 1.1, 0), ("pool70", 0.9, 0), ("pool50", 2.0, 1)]
)


def stepper_call(economy, factor, monkeypatch):
    """(fun, y0, max_step, events) that saddle_path hands the stepper where
    tau0* > 1 (stepped_calls), or of plane_leg on the plane."""
    params = params_of(economy)
    z0 = 5.5 if factor == "readme" else factor * steady_state(params).z_star
    if steady_state(params).tau0 < 1.0:
        return plane_leg(params, z0)
    (call,) = stepped_calls(params, z0, monkeypatch)[1]
    return call[:4]


@pytest.mark.parametrize("economy, factor, hit", STEPPER_STARTS)
def test_stepper_matches_the_list_form_bit_for_bit(economy, factor, hit, monkeypatch):
    """The stepper on three unpacked floats does the list form's arithmetic
    (oracles.dormand_prince) in its order: the same stage points, times,
    states, rhs calls, event and search evaluations, by repr, on paths that
    reach z0, on and off the plane, past the corner, and that stop at the
    coordinate floor."""
    fun, y0, max_step, events = stepper_call(economy, factor, monkeypatch)
    points, listed_points = [], []

    def logged(*x):
        points.append(x)
        return fun(*x)

    def listed_fun(y):
        listed_points.append(tuple(y))
        return fun(*y)

    out = dynamics._dormand_prince(logged, y0, max_step, events)
    listed = oracles.dormand_prince(listed_fun, y0, max_step, events)
    assert repr(out) == repr(listed)
    assert repr(points) == repr(listed_points)
    assert out[3] == hit


def test_stepper_calls_only_fun_and_events(monkeypatch):
    """Each step of the stepper is written out on three floats: from its own
    frame it calls fun nfev times and events once for the seed and once per
    accepted step, and nothing else, until the step that crosses z0 (pool
    economy 60 from 1.1 z*, where tau0* > 1 and saddle_path steps). A
    comprehension or helper per stage or per step would be a call of its
    own. Counted with sys.setprofile, with no timing."""
    fun, y0, max_step, events = stepper_call("pool60", 1.1, monkeypatch)
    code = dynamics._dormand_prince.__code__
    seen = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_back.f_code is code:
            seen.append(frame.f_code)

    sys.setprofile(profile)
    try:
        ts, _, nfev, hit, _ = dynamics._dormand_prince(fun, y0, max_step, events)
    finally:
        sys.setprofile(None)
    assert hit == 0
    last = max(i for i, c in enumerate(seen) if c is events.__code__)
    before = seen[:last + 1]
    assert before.count(fun.__code__) == nfev
    assert before.count(events.__code__) == len(ts)
    assert len(before) == nfev + len(ts)


def searched(g, lo, hi):
    """_illinois's (x, evaluations) on g over [lo, hi], after checking that
    x is an exact zero of g or one of two adjacent floats across which the
    sign of g changes, the one where |g| is no larger."""
    x, n = dynamics._illinois(g, lo, hi)
    assert lo <= x <= hi
    if g(x):
        across = [y for y in (math.nextafter(x, lo), math.nextafter(x, hi))
                  if y != x and (g(y) > 0) != (g(x) > 0)]
        assert across and abs(g(x)) <= min(abs(g(y)) for y in across)
    return x, n


@pytest.mark.parametrize("root", [0.3, 1 / 3, 0.5, 0.999])
def test_event_search_on_a_linear_g(root):
    """A secant step lands on a linear g's zero to rounding, so the search
    ends in at most 4 evaluations where bisection takes 54 or more."""
    x, n = searched(lambda s: s - root, 0.0, 1.0)
    assert x == pytest.approx(root, rel=1e-15) and n <= 4
    assert oracles.bisect(lambda s: s - root, 0.0, 1.0)[1] >= 54


@pytest.mark.parametrize("root", [0.4, 0.123456789, 0.7654321])
def test_event_search_on_a_cubic_flat_at_its_root(root):
    """(s - r)^3 is flat at r, where secant steps crawl: the bisection
    steps carry the search to r's float or beside it."""
    x, _ = searched(lambda s: (s - root) ** 3, 0.0, 1.0)
    assert x == pytest.approx(root, rel=1e-15)


@pytest.mark.parametrize("g, end", [(lambda s: s - 0.25, 0.25), (lambda s: 1.0 - s, 1.0),
                                    (lambda s: s * s - 1.0, 1.0)], ids=["lo", "hi", "hi-square"])
def test_event_search_on_a_g_zero_at_one_end(g, end):
    """A zero at either end ends the search there, after the two end
    evaluations."""
    assert searched(g, 0.25, 1.0) == (end, 2)


def test_event_search_on_a_g_zero_on_an_interval():
    """g vanishes on [0.4, 0.6] and changes sign across it: the search ends
    on a zero within it."""
    def g(s):
        return math.copysign(max(0.0, abs(s - 0.5) - 0.1), s - 0.5)

    x, n = searched(g, 0.0, 1.0)
    assert g(x) == 0.0 and 0.39 <= x <= 0.61 and n <= 6


@pytest.mark.parametrize("g", [lambda s: 1.0 + s, lambda s: -2.0 + s, lambda s: 2.0 - s],
                         ids=["positive", "negative", "falling"])
def test_event_search_without_a_sign_change_bisects(g):
    """Without a sign change every step bisects, so the search returns
    what bisection always returned, in as many evaluations: the float next
    to hi, or hi."""
    x, n = dynamics._illinois(g, 0.0, 1.0)
    assert (x, n) == oracles.bisect(g, 0.0, 1.0)
    assert x in (1.0, math.nextafter(1.0, 0.0))


def noisy(seed):
    """g of random values in (-1, 1), a new one at each call."""
    rng = random.Random(seed)
    return lambda s: rng.uniform(-1.0, 1.0)


@pytest.mark.parametrize("g", [
    lambda s: (s - 0.4) ** 3, lambda s: (s - 0.123456789) ** 5,
    lambda s: -1e-300 if s < 0.37 else 1.0, lambda s: -1.0 if s < 0.37 else 1e-300,
    lambda s: math.expm1(700.0 * (s - 0.9)), lambda s: math.copysign(abs(s - 0.3) ** 0.1, s - 0.3),
    *[noisy(seed) for seed in range(5)]],
    ids=["cubic", "quintic", "jump-up", "jump-down", "steep", "singular",
         *[f"noise{seed}" for seed in range(5)]])
def test_event_search_costs_at_most_twice_bisection(g):
    """Flat roots, jumps between values of very different size, steep and
    singular slopes, and g that is noise: no search takes more than twice
    bisection's evaluations and 4 more (measured up to 113 against 58, on
    the quintic; without the bisection steps the quintic took 218 and the
    jump up 15 010)."""
    n_bisect = oracles.bisect(g, 0.0, 1.0)[1]
    assert dynamics._illinois(g, 0.0, 1.0)[1] <= 2 * n_bisect + 4


# transition_paths' starts: case 1 from 1.05-1.10 z*, cases 2-5 from
# 0.90-0.99 z* and 1.01-1.50 z*; and where tau0* > 1 and paths are
# stepped, the pool economies of the reference table.
TRANSITION_STARTS = ([(1, f) for f in (1.05, 1.075, 1.1)]
                     + [(c, f) for c in (2, 3, 4, 5) for f in (0.9, 0.95, 0.99, 1.01, 1.2, 1.5)])
TRANSVERSE_STARTS = [(f"pool{i}", 1.1) for i in (10, 50, 60, 70)] + [("pool60", 0.9),
                                                                    ("pool70", 0.9)]


def test_event_search_takes_few_evaluations_on_transition_starts(monkeypatch):
    """transition_paths' starts, all on the plane, search for nothing: their
    paths are written in closed form, with event_evals 0. Where paths are
    stepped, a path's stop is found in at most 10 evaluations of g on
    average (measured 7.3), and each path's
    event_evals counts them."""
    searches = counted_searches(monkeypatch)
    for case, factor in TRANSITION_STARTS:
        params = bench_params(*CASE_PSI[case])
        traj = saddle_path(params, factor * steady_state(params).z_star)
        assert traj.meta["event_evals"] == 0 and searches == []
    for name, factor in TRANSVERSE_STARTS:
        params = params_of(name)
        before = len(searches)
        traj = saddle_path(params, factor * steady_state(params).z_star)
        assert traj.meta["event_evals"] == sum(searches[before:]) > 2
    assert sum(searches) / len(searches) <= 10.0


@pytest.mark.parametrize("s", [0.0, 4.5e-3, -6.7e-2, 1.1e-3 * cmath.exp(0.25j * math.pi),
                               -2e-2 + 0j, 3e-2 * cmath.exp(0.75j * math.pi)])
def test_horner_matches_the_list_form_bit_for_bit(s):
    """_horner on unpacked components does the list form's arithmetic in its
    order: the same floats, signed zeros included, on the transverse seed's
    quadratic (pool economy 60: (0, z*, q*), (dw, dz, dq), (w'', 0, 0))
    and on the plane's closed form as a series (closed_form_coefficients),
    at real and at complex s."""
    params = params_of("pool60")
    ss, _, rate, (dw, dz, dq, *_), _ = path_parts(params)
    w2 = g_curvature(ss.w_star, sector_rates(ss.w_star, params), params) * dw * dw / (2 * rate)
    seed = [(0.0, ss.z_star, ss.q_star), (dw, dz, dq), (w2, 0.0, 0.0)]
    for c in (seed, closed_form_coefficients(params_of("case1"))):
        assert repr(list(dynamics._horner(c, s))) == repr(oracles.horner(c, s))


def test_random_economies_end_in_a_path_or_a_typed_error():
    """Random economies (numpy-scalar fields, as random_baseline draws them)
    from 1e-8 to 1e8 z*, on both sides of tau0* = 1, so on the plane and
    off it: each start ends in a path with levels or in a CesGrowthError,
    and no RuntimeWarning (an error in the test run)."""
    rng = np.random.default_rng(2026)
    outcomes, halves = set(), set()
    for _ in range(40):
        params = random_baseline(rng)[1]
        ss = steady_state(params)
        z0 = 10.0 ** rng.uniform(-8.0, 8.0) * ss.z_star
        halves.add(ss.tau0 < 1.0)
        try:
            traj = reconstruct_levels(saddle_path(params, z0), z0, params)
        except CesGrowthError as exc:
            outcomes.add(type(exc).__name__)
        else:
            assert traj.level_rows[0][0] == z0
            outcomes.add(traj.meta["stop_reason"])
    assert halves == {True, False}
    assert "target_reached" in outcomes and len(outcomes) > 1


def test_saddle_path_budget_exhaustion(monkeypatch):
    """An overly small travel budget is reported, not silently truncated:
    pool economy 60, where tau0* > 1, from 0.9 z*, where the path is
    stepped."""
    params = params_of("pool60")
    monkeypatch.setattr(dynamics, "T_BUDGET", 0.05)
    with pytest.raises(TargetNotReachedError, match="travel budget exhausted"):
        saddle_path(params, 0.9 * steady_state(params).z_star)


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
    """The levels equal the consumption form applied sample by sample:
    consumption growth r(w) = consumption_growth(MPK(w)), w = (v/u) z,
    summed by the trapezoid rule, k = k0 e^{int r} q0/q, h = k/z and
    c = q k."""
    ss = steady_state(params_case1)
    traj = saddle_path(params_case1, z0=0.9 * ss.z_star)
    lv = reconstruct_levels(traj, k0=2.0, params=params_case1)
    growth = [consumption_growth(sector_rates(v / u * z, params_case1)[5], params_case1)
              for z, q, u, v in traj.states]
    q = traj.states[:, 1]
    k = 2.0 * np.exp(cumulative_trapezoid(growth, traj.times, initial=0.0)) * (q[0] / q)
    expected = np.column_stack([k, k / traj.states[:, 0], q * k])
    np.testing.assert_allclose(lv.levels, expected, rtol=1e-14)


@pytest.mark.parametrize("name", ECONOMIES + ["u_star_near_one"])
def test_plane_half_levels_grow_at_r_star_exactly(name):
    """On the plane w = w*, consumption grows at r* all along the path, so
    ln k = ln k0 + r* t - ln(q/q0) at every row, to 1e-12, from 0.9, 0.95,
    1.05 and 1.3 z* wherever a path is returned (measured 1.8e-15 on the
    29 paths of the five cases, STIFF_POOL and U_STAR_NEAR_ONE; the
    trapezoid sum of capital growth was off by up to 5.9e-5)."""
    params = params_of(name)
    ss = steady_state(params)
    assert ss.tau0 < 1.0
    paths = 0
    for factor in (0.9, 0.95, 1.05, 1.3):
        z0 = factor * ss.z_star
        try:
            traj = reconstruct_levels(saddle_path(params, z0), z0, params)
        except TargetNotReachedError:
            continue
        paths += 1
        q0 = traj.state_rows[0][1]
        for t, (_, q, _, _), (k, _, _) in zip(traj.time_rows, traj.state_rows,
                                             traj.level_rows):
            exact = math.log(z0) + ss.r_star * t - math.log(q / q0)
            assert abs(math.log(k) - exact) <= 1e-12
    assert paths >= 2


def test_transverse_levels_match_a_quadrature_of_consumption_growth():
    """Where tau0* > 1, w moves along the path, w' = g(w), and r(w) with
    it. On the first eight such economies of the economy_scan pool, from
    0.97 and 1.03 z*, ln k at every row is within 1e-6 of ln k0 + R(t) -
    ln(q/q0), with R a DOP853 quadrature (rtol 1e-13) of r along w' = g(w)
    from the path's first w (measured 1.1e-8 to 7.0e-7; the trapezoid sum
    of capital growth was off by 1.7e-7 to 2.3e-6)."""
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    economies = []
    for i in range(POOL_SIZE):
        params = ModelParams(**{n: float(getattr(pool, n)[i]) for n in PARAM_NAMES})
        try:
            ss = steady_state(params)
        except CesGrowthError:
            continue
        if ss.tau0 > 1.0:
            economies.append((params, ss))
        if len(economies) == 8:
            break

    for params, ss in economies:
        def rates(_t, y, params=params):
            return (plane_terms(y[0], params)[4],
                    consumption_growth(sector_rates(y[0], params)[5], params))

        for factor in (0.97, 1.03):
            z0 = factor * ss.z_star
            traj = reconstruct_levels(saddle_path(params, z0), z0, params)
            z, q0, u, v = traj.state_rows[0]
            sol = solve_ivp(rates, (0.0, traj.time_rows[-1]), [v / u * z, 0.0],
                            method="DOP853", rtol=1e-13, atol=1e-16, t_eval=traj.time_rows)
            for integral, (_, q, _, _), (k, _, _) in zip(sol.y[1], traj.state_rows,
                                                        traj.level_rows):
                exact = math.log(z0) + integral - math.log(q / q0)
                assert abs(math.log(k) - exact) <= 1e-6


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
    for zero_q in ([[1.0, 0.0, 0.6, 0.5]], [[1.0, 0.2, 0.6, 0.5], [1.0, 0.0, 0.6, 0.5]]):
        traj = Trajectory(times=[0.0, 1.0][:len(zero_q)], states=zero_q)
        with pytest.raises(ParameterError, match="q must be nonzero"):
            reconstruct_levels(traj, k0=1.0, params=params_case1)
