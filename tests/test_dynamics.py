"""Stable-manifold construction and level reconstruction."""

import cmath
import itertools
import math
import random
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import RK45, cumulative_trapezoid, solve_ivp
from scipy.linalg import expm

from cesgrowth import (
    CesGrowthError,
    ModelParams,
    NoRealStableEigenvectorError,
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
from cesgrowth.core import sector_rates
from cesgrowth.stability import rhs_reduced_values
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
    where tau0* < 1, the plane expansion saddle_path seeds on (else None)."""
    ss = steady_state(params)
    lam, v, terms = dynamics.stable_eigenpair(ss, params, eigen4(ss, params))
    coeffs = (dynamics._plane_manifold(terms, ss.z_star, ss.q_star, lam.real, v[1], v[2])
              if terms[5] < 1.0 else None)
    return ss, terms, lam.real, v, coeffs


def unit_of(ss):
    """The stepper's unit of distance from x*, SEED_SCALE |x*|."""
    return dynamics.SEED_SCALE * math.hypot(ss.z_star, ss.q_star, ss.u_star, ss.v_star)


def located(ss, y):
    """(w - w*, z, q) at the stepper's coordinates y, as saddle_path maps them."""
    unit = unit_of(ss)
    return unit * y[0], ss.z_star + unit * y[1], ss.q_star + unit * y[2]


def on_plane(ss, terms, rows):
    """Rows (w - w*, z, q) on the plane as saddle_path reports them, (z, q, u, v)."""
    return [(z, q, *dynamics.allocations(terms[5], ss.w_star + x, z)) for x, z, q in rows]


def test_saddle_path_hands_the_kernel_python_floats(params_any_case, monkeypatch):
    """On the plane the path's own kernel call is one: dynamics calls
    plane_terms, and so sector_rates, at the float w* and nowhere else
    (eigen4 takes its J2 from plane_terms at w* too, through stability's
    binding). The stepper passes Python
    floats to its rhs, so it runs in float arithmetic rather than
    numpy-scalar arithmetic, and its step control stays in floats too: a
    numpy scalar there (a max_step from a numpy eigenvalue, say) would turn
    every time and stage value into one."""
    terms_calls, fun_calls = [], []
    plane_terms, stepper = dynamics.plane_terms, dynamics._dormand_prince

    def terms_spy(w, params):
        terms_calls.append(w)
        return plane_terms(w, params)

    def stepper_spy(fun, y, max_step, events):
        def logged(*x):
            fun_calls.append(x)
            return fun(*x)

        return stepper(logged, y, max_step, events)

    monkeypatch.setattr(dynamics, "plane_terms", terms_spy)
    monkeypatch.setattr(dynamics, "_dormand_prince", stepper_spy)
    ss = steady_state(params_any_case)
    traj = saddle_path(params_any_case, 1.1 * ss.z_star)
    assert terms_calls == [ss.w_star] and type(terms_calls[0]) is float
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
    w = (v/u) z component, or NoRealStableEigenvectorError where LAPACK
    finds none. Returns whether there was a pair."""
    rep = stability_report(params)
    ss = rep.steady
    ref = lapack_stable_pair(rep.jacobian)
    if ref is None:
        with pytest.raises(NoRealStableEigenvectorError):
            dynamics.stable_eigenpair(ss, params, rep.eigenvalues)
        return False
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
    sides of tau0* = 1: the same eigenvector as LAPACK's on those labelled
    saddle_path, and the same NoRealStableEigenvectorError outcome on all
    of them."""
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
    assert paired >= labelled > 0
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


def rk45_replay(params, z0, monkeypatch):
    """saddle_path's result (or its TargetNotReachedError), the stepper's own
    run (reversed-time times and states, with its rhs and max_step), and
    scipy's RK45 runs from the same seed, with the same max_step, tolerances
    and events: the first from the seed itself, then one from the seed with
    each coordinate moved so that the (w - w*, z, q) it stands for moves by
    one ulp."""
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
                      method="RK45", rtol=dynamics.SADDLE_RTOL,
                      atol=dynamics.SADDLE_ATOL, max_step=max_step, events=terminal)
            for seed in seeds]
    return result, sols, (fun, max_step, ts, ys)


# (economy, z0 / z*, outcome): the five cases from both sides, case 1 nearer
# and farther, and case 1 and a stiff economy into a coordinate floor.
PARITY_STARTS = (
    [(f"case{c}", f, "target_reached") for c in CASE_PSI for f in (0.9, 1.1)]
    + [("case1", f, "target_reached") for f in (0.5, 1.05)]
    + [("case1", 1.5, "hit a coordinate floor"), ("stiff35", 1.1, "hit a coordinate floor")]
)


@pytest.mark.parametrize("economy, factor, outcome", PARITY_STARTS)
def test_saddle_path_takes_scipy_rk45_steps(economy, factor, outcome, monkeypatch):
    """The in-house Dormand-Prince stepper against scipy's RK45 as the oracle.

    Over the integrated segment, from the seed to z0: the same accepted
    steps and rhs calls and the same stop. A path that reaches z0 holds
    those steps, reversed, followed by the rows reported from the plane
    expansion after the seed.
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
    if outcome == "target_reached":
        assert hit[0] and sol.status == 1
        s0, rate = result.meta["s0"], result.meta["stable_eigenvalue"].real
        scale = math.hypot(ss.z_star, ss.q_star, ss.u_star, ss.v_star)
        s_end = math.copysign(dynamics.SEED_SCALE * scale, s0)
        _, terms, _, _, coeffs = path_parts(params)
        rows = dynamics._manifold_rows(coeffs, rate, s0, s_end, scale)
        x, z, q = rows[0][1]
        unit = unit_of(ss)
        assert list(ys[0]) == [x / unit, (z - ss.z_star) / unit, (q - ss.q_star) / unit]
        assert len(result) == len(sol.t) + len(rows) - 1
        assert result.state_rows[len(ts):] == on_plane(ss, terms, [x for _, x in rows[1:]])
        assert result.meta["steps"] == len(ts)
        assert result.meta["nfev"] == sol.nfev
        assert [row[:2] for row in result.state_rows[:len(ts)]] == [
            located(ss, y)[1:] for y in ys[::-1]]
        assert result.time_rows[len(ts) - 1] == ts[-1]
        assert result.meta["t_stop"] == result.time_rows[-1] == (
            ts[-1] + math.log(s0 / s_end) / -rate)
    else:
        assert hit == [False, True]
        assert isinstance(result, TargetNotReachedError)
        assert str(result) == (f"z never crossed {z0} ({outcome}; "
                               f"final z = {located(ss, sol.y[:, -1])[1]:g})")
    for i in range(len(ts) - 2):
        rk = RK45(lambda _t, x: fun(*x.tolist()), ts[i], np.array(ys[i]),
                  dynamics.T_BUDGET, first_step=ts[i + 1] - ts[i], max_step=max_step,
                  rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL)
        rk.step()
        assert rk.t == ts[i + 1]
        assert np.max(np.abs(rk.y - ys[i + 1])) <= 1e-14 * np.max(np.abs(ys[i + 1]))


def invariance_defect(terms, coeffs, rate, s):
    """defect_at with W(s) and W'(s) summed term by term."""
    z, q = (sum(cf[i] * s**k for k, cf in enumerate(coeffs)) for i in (1, 2))
    dz, dq = (sum(k * cf[i] * s ** (k - 1) for k, cf in enumerate(coeffs) if k) for i in (1, 2))
    return defect_at(terms, (z, q), (dz, dq), rate, s)


def defect_at(terms, x, dx, rate, s):
    """rms over the three components of (w, z, q) (w's is 0) of |E_i| /
    (|lambda| (atol + rtol |W_i|)), times rtol, with E = (z', q')(W(s)) -
    lambda s W'(s), at (z, q) = x and W'(s) = dx, in the arithmetic of the
    numbers given: floats or mpmath numbers."""
    a, b, c, e, *_ = terms
    (z, q), (dz, dq) = x, dx
    tol = [dynamics.SADDLE_ATOL + dynamics.SADDLE_RTOL * abs(x) for x in (z, q)]
    ez = (-(b * z * z + (a + q) * z + c) - rate * s * dz) / abs(rate) / tol[0]
    eq = (q * (q - e + c / z) - rate * s * dq) / abs(rate) / tol[1]
    return dynamics.SADDLE_RTOL * ((ez * ez + eq * eq) / 3) ** 0.5


def defect_resolution(terms, coeffs, rate, s):
    """(exact, spread) at the package's own float W(s) and W'(s): exact is
    defect_at in 50-digit arithmetic, and spread the largest distance from
    it of the float defect_at at the 8 neighbours of W(s) whose z and q
    each move by -1, 0 or +1 ulp."""
    x = dynamics._horner(coeffs, s)[1:]
    dx = dynamics._horner([[k * a for a in c] for k, c in enumerate(coeffs)][1:], s)[1:]
    with mpmath.workdps(50):
        exact = defect_at([mpmath.mpf(t) for t in terms[:4]],
                          *([mpmath.mpf(c) for c in v] for v in (x, dx)),
                          mpmath.mpf(rate), mpmath.mpf(s))
    spread = max(
        abs(defect_at(terms, [math.nextafter(c, k * math.inf) if k else c
                              for c, k in zip(x, moves)], dx, rate, s) - exact)
        for moves in itertools.product((-1, 0, 1), repeat=2) if any(moves))
    return exact, spread


# The paper cases and the stiff economies from above z*: each is seeded on
# the order-MANIFOLD_ORDER expansion. The stiff economies' paths then stop
# at the coordinate floor.
GATED_STARTS = [(name, 1.1) for name in ECONOMIES]


def gated_seed(params, z0, monkeypatch):
    """(s0, defect at s0) of the seed _seed chose on the way to z0."""
    seeds = []
    seed = dynamics._seed

    def spy(*args):
        out = seed(*args)
        seeds.append(out[0])
        return out

    monkeypatch.setattr(dynamics, "_seed", spy)
    try:
        saddle_path(params, z0)
    except TargetNotReachedError:
        pass
    (s0, defect, _), = seeds
    return s0, defect


@pytest.mark.parametrize("name, factor", GATED_STARTS)
def test_seed_passes_the_invariance_gate(name, factor, monkeypatch):
    """At +-s0 the expansion's invariance defect, recomputed term by term,
    is within the stepper's tolerance, as the seed record says."""
    params = params_of(name)
    s0, defect = gated_seed(params, factor * steady_state(params).z_star, monkeypatch)
    ss, terms, rate, _, coeffs = path_parts(params)
    assert len(coeffs) - 1 == dynamics.MANIFOLD_ORDER
    assert abs(s0) > dynamics.SEED_SCALE * math.hypot(*ss[1:5])
    assert defect == pytest.approx(invariance_defect(terms, coeffs, rate, s0), rel=1e-6)
    for s in (s0, -s0):
        assert invariance_defect(terms, coeffs, rate, s) <= dynamics.SADDLE_RTOL


def taylor_oracle(params):
    """The stable manifold's Taylor coefficients on the plane, [(z*, q*),
    (dz, dq), (Z_2, Q_2), ...] to order MANIFOLD_ORDER, at 40 digits and
    without the package's recursion: x* from a 40-digit root of gap_P, the
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
        for k in range(2, dynamics.MANIFOLD_ORDER + 1):
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
def test_manifold_coefficients_match_40_digit_taylor_coefficients(name, factor, monkeypatch):
    """Every order of the plane expansion against taylor_oracle: each
    coefficient within 1e-13 of its own size on the paper cases and 1e-10
    on the stiff economies, where the float lambda carries 1e-11 (measured
    8.7e-15 and 2.3e-11; the circle DFT this recursion replaced was off by
    up to 26 times a_6 on case 1 and more on the stiff economies). What that
    costs the path is its term at the seed: |da_k| |s0|^k stays below 1e-3
    of SADDLE_RTOL |x*|."""
    params = params_of(name)
    s0, _ = gated_seed(params, factor * steady_state(params).z_star, monkeypatch)
    ss, _, _, _, coeffs = path_parts(params)
    oracle = taylor_oracle(params)
    bound = 1e-13 if name.startswith("case") else 1e-10
    for k, (c, ref) in enumerate(zip(coeffs, oracle)):
        err = max(abs(c[i + 1] - float(ref[i])) for i in range(2))
        assert err <= bound * float(max(abs(r) for r in ref))
        assert err * abs(s0) ** k <= 1e-3 * dynamics.SADDLE_RTOL * math.hypot(*ss[1:5])


@pytest.mark.parametrize("name", ECONOMIES)
def test_incremental_circle_samples_match_reevaluated_ones(name):
    """_plane_manifold builds each order from running Cauchy products of
    the lower ones. Re-evaluated at every order instead from samples on a
    circle of radius r, the seed search's first |s0|: (z', q') of
    rhs_reduced_values at W_{<k}(s), u and v from allocations, sampled at
    32 points, the order-k term by Cauchy's integral (a DFT), and
    (J2 - k lambda I) a_k = -that term, with J2 a complex step of the same
    rhs at x*. From the package's own a_{<k}, that gives its a_2 to a_6 to
    rounding: |da_k| r^k is at most 1e-13 |x*|, measured at most 3.7e-17
    |x*| (a_2 of stiff economy 35)."""
    params = params_of(name)
    ss, terms, rate, _, coeffs = path_parts(params)
    tau0, w = terms[5], ss.w_star
    x_star = math.hypot(ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    order = len(coeffs) - 1
    assert order == dynamics.MANIFOLD_ORDER
    r = (dynamics.SADDLE_RTOL * x_star / math.hypot(*coeffs[order])) ** (1.0 / order)

    def rhs(z, q):
        return rhs_reduced_values(z, q, *dynamics.allocations(tau0, w, z), params)[:2]

    h = 1e-20
    (j11, j21), (j12, j22) = ([x.imag / h for x in rhs(complex(ss.z_star, h * (i == 0)),
                                                       complex(ss.q_star, h * (i == 1)))]
                              for i in range(2))
    n = 32
    roots = [cmath.exp(2j * math.pi * j / n) for j in range(n)]
    for k in range(2, order + 1):
        f = [rhs(*oracles.horner([c[1:] for c in coeffs[:k]], r * root)) for root in roots]
        fz, fq = (sum(fj[i] / root**k for fj, root in zip(f, roots)) / (n * r**k)
                  for i in range(2))
        d11, d22 = j11 - k * rate, j22 - k * rate
        det = d11 * d22 - j12 * j21
        zk, qk = (j12 * fq - d22 * fz) / det, (j21 * fz - d11 * fq) / det
        gap = max(abs(zk - coeffs[k][1]), abs(qk - coeffs[k][2])) * r**k
        assert gap <= 1e-13 * x_star


def halved_seed(monkeypatch):
    """Make _seed start its search at half its first |s0|."""
    seed = dynamics._seed

    def spy(terms, coeffs, rate, s_end, scale, events):
        return seed(terms, coeffs, rate, s_end, scale / 2 ** (len(coeffs) - 1), events)

    monkeypatch.setattr(dynamics, "_seed", spy)


@pytest.mark.parametrize("case, factor", reference_paths.STARTS[:9] + [(1, 0.9)])
def test_path_does_not_depend_on_the_circle_radius(case, factor, monkeypatch):
    """W is used inside the circle |s| = |s0|: the seed's gate checks its
    defect at the circle's real points s0 and -s0, and the path reports
    W's rows from there in. Paths on the circle of the radius saddle_path
    chooses and on one of half that radius start at the same (q, u, v) to
    SADDLE_RTOL relative and report the same clock to 1e-9; measured:
    7.9e-13 and 4.8e-11 at most. The nearer seed integrates about 100 more
    rhs calls near x*, where only a step control relative to the distance from
    x* keeps their error off the clock: with one relative to |x| the clocks
    differed by up to 1.0e-9. The starts are the reference table's
    paper-case starts and case 1 from 0.9 z*, which passes the corner
    u = v = 1."""
    params = bench_params(*CASE_PSI[case])
    z0 = factor * steady_state(params).z_star
    wide = saddle_path(params, z0)
    halved_seed(monkeypatch)
    narrow = saddle_path(params, z0)
    assert abs(narrow.meta["s0"]) == pytest.approx(abs(wide.meta["s0"]) / 2, rel=1e-12)
    for a, b in zip(wide.state_rows[0][1:], narrow.state_rows[0][1:]):
        assert abs(a - b) <= dynamics.SADDLE_RTOL * abs(b)
    assert abs(wide.meta["t_stop"] - narrow.meta["t_stop"]) <= 1e-9


@pytest.mark.parametrize("event, outcome", [("BOX_MARGIN", "hit a coordinate floor")])
def test_manifold_rows_respect_the_events_of_stepped_rows(event, outcome, monkeypatch):
    """With the coordinate floor moved to where W crosses it at |s| = 1e-3
    |x*|, inside the seed's usual 3.8e-2 |x*|, the seed moves inside the
    event, and the path stops there as a stepped path would. Case 1 from
    above z* lowers q."""
    params = params_of("case1")
    ss, _, _, _, coeffs = path_parts(params)
    s = 1e-3 * math.hypot(*ss[1:5])
    q = sum(c[2] * s**k for k, c in enumerate(coeffs))
    monkeypatch.setattr(dynamics, event, q)
    seeds = []
    stepper = dynamics._dormand_prince

    def spy(fun, y0, max_step, events):
        seeds.append(events(y0))
        return stepper(fun, y0, max_step, events)

    monkeypatch.setattr(dynamics, "_dormand_prince", spy)
    with pytest.raises(TargetNotReachedError, match=outcome):
        saddle_path(params, 1.1 * ss.z_star)
    (_, floor), = seeds
    assert floor > 0.0


def test_start_within_reach_of_the_manifold_integrates_nothing(monkeypatch):
    """Case 2 from 1.001 z*, where z0 lies between z* and W(s0): the path is
    solved for on W, its first row at z0, and the stepper never runs.
    Every row follows from the one before by scipy's RK45 at rtol 1e-12
    to 1e-11 relative, and the clock is the conjugacy's ln(s_end/s) /
    lambda."""
    params = params_of("case2")
    ss, _, rate, _, _ = path_parts(params)
    x_star = ss[1:5]
    z0 = 1.001 * x_star[0]
    monkeypatch.setattr(dynamics, "_dormand_prince", None)
    searches = counted_searches(monkeypatch)
    traj = saddle_path(params, z0)
    assert traj.meta["steps"] == traj.meta["nfev"] == 0
    assert traj.meta["event_evals"] == sum(searches) > 2
    assert traj.state_rows[0][0] == pytest.approx(z0, rel=4e-16)
    s_end = math.copysign(dynamics.SEED_SCALE * math.hypot(*x_star), traj.meta["s0"])
    assert traj.meta["t_stop"] == traj.time_rows[-1] == pytest.approx(
        math.log(s_end / traj.meta["s0"]) / rate, rel=1e-14)
    assert len(traj) > 1
    for (t0, x0), (t1, x1) in zip(zip(traj.time_rows, traj.state_rows),
                                  zip(traj.time_rows[1:], traj.state_rows[1:])):
        sol = solve_ivp(lambda _t, x: rhs_reduced_values(*x, params), (t0, t1), x0,
                        rtol=1e-12, atol=1e-15)
        assert np.max(np.abs(sol.y[:, -1] - x1)) <= 1e-11 * np.max(np.abs(x1))


@pytest.mark.parametrize("how", ["no seed passes the gate"])
def test_linear_seed_when_the_expansion_fails(how, monkeypatch):
    """Where no seed passes the invariance gate, the path starts from the
    linear seed x* + v s_end, SEED_SCALE |x*| out, reports no rows of W,
    and is the path the linear seed gives: case 1 from 1.1 z* in 303 steps
    and 1 814 rhs calls, to t = 0.918538282297135 (q*'s last bit moves
    this clock by 4.6e-13 relative: with q* from the A1 H/eps form of the
    consumption equation it read 0.9185382822975565). Its (q, u, v) at z0
    are within 1e-9 of the seeded path's and its clock within 1e-7 (the
    linear seed's clock error; measured 9.8e-13 and 4.2e-8)."""
    params = params_of("case1")
    ss, *_ = path_parts(params)
    seeded = saddle_path(params, 1.1 * ss.z_star)
    monkeypatch.setattr(dynamics, "_defect", lambda *args: 1.0)
    traj = saddle_path(params, 1.1 * ss.z_star)
    meta = traj.meta
    assert meta["order"] == 1 and meta["seed_defect"] is None
    assert meta["s0"] == dynamics.SEED_SCALE * math.hypot(*ss[1:5])
    assert (len(traj), meta["steps"], meta["nfev"]) == (303, 303, 1814)
    assert meta["t_stop"] == traj.time_rows[-1] == 0.918538282297135
    for a, b in zip(traj.state_rows[0][1:], seeded.state_rows[0][1:]):
        assert abs(a - b) <= 1e-9 * abs(b)
    assert abs(meta["t_stop"] - seeded.meta["t_stop"]) <= 1e-7


@pytest.mark.parametrize("name", ECONOMIES)
def test_paths_through_the_corner_take_the_series_seed(name):
    """From 0.5 z*, the path passes the corner u = v = 1 at z = w*, where
    allocations is not singular: it is seeded on the plane expansion, its
    rows have u > 1 exactly where z < w* and u < 1 where z > w*, and v > 1
    with u, and the stepper ran through the corner to z0."""
    params = params_of(name)
    ss = steady_state(params)
    assert ss.w_star < ss.z_star
    traj = saddle_path(params, 0.5 * ss.z_star)
    assert traj.meta["order"] == dynamics.MANIFOLD_ORDER
    assert 0 < traj.meta["steps"] < len(traj)
    for z, _, u, v in traj.state_rows:
        assert (u > 1.0) == (v > 1.0) == (z < ss.w_star)
    assert traj.state_rows[0][0] == pytest.approx(0.5 * ss.z_star, rel=4e-16)


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
                                          ("stiff35", 0.9999)])
def test_trajectory_meta_records_the_seed(name, factor, monkeypatch):
    """A path seeded on the expansion, on either side of z*: the record
    holds the order and the seed's defect, _defect's value at the seed,
    within the gate.

    That defect is within twice the rounding spread of its 50-digit value
    at the same W(s0) (defect_resolution; measured at most 0.44 of the
    spread, and 3.7e4 to 1.5e5 spreads off for a _defect without its
    division by sqrt(3)), and agrees with a term-by-term sum to 1e-4
    relative with no absolute floor (measured 7.6e-6: E cancels f(W) to
    about 1e-10, so the two sums' roundings differ at 1e-6 to 1e-5).

    The set-up counts the gate's rhs evaluations, one or two for each |s0|
    tried, at least the two of the seed that passes. A path integrated from
    its seed records that seed as s0; stiff economy 35 from 0.9999 z*,
    nearer x* than its seed, is solved for on W, with no steps. Otherwise
    the rows are the stepper's followed by those of W, and event_evals
    counts the g evaluations of the search that placed the stop."""
    params = params_of(name)
    ss, terms, rate, _, coeffs = path_parts(params)
    seeds = []
    seed = dynamics._seed

    def spy(*args):
        out = seed(*args)
        seeds.append(out[0])
        return out

    monkeypatch.setattr(dynamics, "_seed", spy)
    searches = counted_searches(monkeypatch)
    traj = saddle_path(params, factor * ss.z_star)
    meta = traj.meta
    (s0, defect, _), = seeds
    assert meta["order"] == dynamics.MANIFOLD_ORDER
    assert meta["seed_defect"] == defect == dynamics._defect(terms, coeffs, rate, s0)
    exact, spread = defect_resolution(terms, coeffs, rate, s0)
    assert abs(defect - exact) <= 2.0 * spread
    assert defect == pytest.approx(invariance_defect(terms, coeffs, rate, s0), rel=1e-4, abs=0)
    assert defect <= dynamics.SADDLE_RTOL
    first = (dynamics.SADDLE_RTOL * math.hypot(*ss[1:5])
             / math.hypot(*coeffs[-1])) ** (1.0 / dynamics.MANIFOLD_ORDER)
    tries = round(math.log2(first / abs(s0))) + 1
    assert max(2, tries) <= meta["setup_nfev"] <= 2 * tries
    if name == "stiff35":
        assert meta["steps"] == meta["nfev"] == 0 and abs(meta["s0"]) < abs(s0)
    else:
        assert meta["s0"] == s0 and 0 < meta["steps"] < len(traj)
    assert meta["t_stop"] == traj.time_rows[-1]
    assert meta["event_evals"] == sum(searches) > 2


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
    from z0 to |s| = SEED_SCALE |x*|, to 1e-8. Measured: at most 1.0e-12
    and 1.2e-10 on the paper cases, where the circle expansion gave 4.1e-11
    and 4.1e-10 and the linear seed 2.7e-10 and 6.3e-6; 5.4e-13 and 2.7e-13
    on the stiff economies, from within 3e-4 z* of z*; 2.3e-12 and 2.7e-9
    on the pool economies, whose tau0* > 1, so that w moves. Case 1 from
    0.9 z* passes the corner u = v = 1: 1.5e-12 and 7.2e-12."""
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
    the 50-digit reference to SADDLE_RTOL (measured 5.1e-12; the 4-D route
    gave q = 0.58412 against 0.55879), and its clock to 1e-8 (measured
    1.2e-9). From 1.1 z*, where the 4-D route hit the coordinate floor,
    the path reaches z0 (measured 6.6e-13 and 1.2e-9). Every row keeps
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
                    max_step=1.0)
    assert sol.status == -1
    assert exc.value.last_time == sol.t[-1] < 1.0
    assert exc.value.last_state[0] == sol.y[0, -1] == 0.0
    for y, y_rk in zip(exc.value.last_state[1:], sol.y[1:, -1]):
        assert 1.0 / y == pytest.approx(1.0 / y_rk, rel=0, abs=math.ulp(1.0))


# (economy, z0 / z*, the event that ends the path): cases 2-5 from both
# sides, case 1 from above, case 1 from the README start (z0 = k0 / h0 =
# 5.5, past the corner), case 1 and a stiff economy into the coordinate
# floor, and a pool economy with tau0* > 1 from both sides.
STEPPER_STARTS = (
    [(f"case{c}", f, 0) for c in (2, 3, 4, 5) for f in (0.9, 0.95, 1.05, 1.3)]
    + [("case1", 1.05, 0), ("case1", 1.1, 0), ("case1", "readme", 0), ("case1", 1.5, 1),
       ("stiff35", 1.1, 1), ("pool60", 0.9, 0), ("pool60", 1.1, 0)]
)


def stepper_call(economy, factor, monkeypatch):
    """(fun, y0, max_step, events) that saddle_path hands the stepper."""
    params = params_of(economy)
    z0 = 5.5 if factor == "readme" else factor * steady_state(params).z_star
    calls = []
    stepper = dynamics._dormand_prince

    def spy(*args):
        calls.append(args)
        return stepper(*args)

    monkeypatch.setattr(dynamics, "_dormand_prince", spy)
    try:
        saddle_path(params, z0)
    except TargetNotReachedError:
        pass
    monkeypatch.setattr(dynamics, "_dormand_prince", stepper)
    (call,) = calls
    return call


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
    accepted step, and nothing else, until the step that crosses z0 (case 2
    from 1.2 z*). A comprehension or helper per stage or per step would be
    a call of its own. Counted with sys.setprofile, with no timing."""
    fun, y0, max_step, events = stepper_call("case2", 1.2, monkeypatch)
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
# 0.90-0.99 z* and 1.01-1.50 z*.
TRANSITION_STARTS = ([(1, f) for f in (1.05, 1.075, 1.1)]
                     + [(c, f) for c in (2, 3, 4, 5) for f in (0.9, 0.95, 0.99, 1.01, 1.2, 1.5)])


def test_event_search_takes_few_evaluations_on_transition_starts(monkeypatch):
    """A path's stop is found in at most 10 evaluations of g on average over
    transition_paths' starts on the five paper cases (measured 7.1, where
    bisection took 48), and each path's event_evals counts them."""
    searches = counted_searches(monkeypatch)
    for case, factor in TRANSITION_STARTS:
        params = bench_params(*CASE_PSI[case])
        before = len(searches)
        traj = saddle_path(params, factor * steady_state(params).z_star)
        assert traj.meta["event_evals"] == sum(searches[before:]) > 2
    assert sum(searches) / len(searches) <= 10.0


@pytest.mark.parametrize("s", [0.0, 4.5e-3, -6.7e-2, 1.1e-3 * cmath.exp(0.25j * math.pi),
                               -2e-2 + 0j, 3e-2 * cmath.exp(0.75j * math.pi)])
def test_horner_matches_the_list_form_bit_for_bit(s):
    """_horner on unpacked components does the list form's arithmetic in its
    order: the same floats, signed zeros included, on the plane expansion
    and on the linear seed, at real and at complex s."""
    *_, coeffs = path_parts(params_of("case1"))
    for c in (coeffs, coeffs[:2]):
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
