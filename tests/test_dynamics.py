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
    """A paper case ("case1".."case5") or a STIFF_POOL economy ("stiff35")."""
    if name.startswith("stiff"):
        return ModelParams(**STIFF_POOL[int(name[5:])])
    return bench_params(*CASE_PSI[int(name[4:])])


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


def test_saddle_path_hands_the_kernel_python_floats(params_any_case, monkeypatch):
    """The stepper passes Python floats, so the kernel runs in float arithmetic
    rather than numpy-scalar arithmetic, and calls the kernel once per rhs call.
    Its step control stays in floats too: a numpy scalar there (a max_step
    from a numpy eigenvalue, say) would turn every time and stage value into
    one. Before the stepper, the manifold's set-up calls the kernel on
    complex circle samples and on float gate points; its count leaves out
    the Jacobian's four calls, which go through the stability module."""
    calls = []
    kernel = dynamics.rhs_reduced_values

    def spy(*args):
        calls.append(args[:4])
        return kernel(*args)

    monkeypatch.setattr(dynamics, "rhs_reduced_values", spy)
    traj = saddle_path(params_any_case, 1.1 * steady_state(params_any_case).z_star)
    nfev = traj.meta["nfev"]
    assert len(calls) == traj.meta["setup_nfev"] - 4 + nfev and nfev > 0
    assert all(type(a) is float for args in calls[-nfev:] for a in args)
    assert all(type(a) in (float, complex) for args in calls[:-nfev] for a in args)
    assert type(traj.meta["t_stop"]) is float
    assert all(type(t) is float for t in traj.time_rows)
    assert all(type(x) is float for row in traj.state_rows for x in row)


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


def check_stable_pair(jac, eigenvalues) -> bool:
    """stable_eigenpair against LAPACK: the same unit eigenvector to 1e-10
    once signs are aligned, or NoRealStableEigenvectorError where LAPACK
    finds none. Returns whether there was a pair."""
    ref = lapack_stable_pair(jac)
    if ref is None:
        with pytest.raises(NoRealStableEigenvectorError):
            dynamics.stable_eigenpair(jac, eigenvalues)
        return False
    lam, v = dynamics.stable_eigenpair(jac, eigenvalues)
    assert type(lam) is complex and all(type(x) is float for x in v)
    assert math.hypot(*v) == pytest.approx(1.0, abs=1e-15)
    ref_v = ref[1] if ref[1] @ v >= 0.0 else -ref[1]
    assert np.max(np.abs(np.array(v) - ref_v)) <= 1e-10
    return True


@pytest.mark.parametrize("economy", ECONOMIES)
def test_stable_eigenvector_matches_lapack(economy):
    params = params_of(economy)
    rep = stability_report(params)
    assert check_stable_pair(rep.jacobian, rep.eigenvalues)


def test_slow_stable_root_gives_lapacks_pair():
    """SLOW_SADDLE's stable root, -1.164e-4, lies within 1e-3 of zero: its
    eigenvector is LAPACK's to 1e-10, and the root LAPACK's to 1e-12 of the
    spectrum's scale (measured 1.3e-16; the root is the split's isolated
    lambda_w, though the spectrum has two pairs 1.2e-4 apart). Its paths
    decay over 1/|lambda| = 8 600, so they run out of the travel budget,
    with a typed error."""
    params = ModelParams(**SLOW_SADDLE)
    rep = stability_report(params)
    assert check_stable_pair(rep.jacobian, rep.eigenvalues)
    lam, _ = dynamics.stable_eigenpair(rep.jacobian, rep.eigenvalues)
    scale = max(map(abs, rep.eigenvalues))
    assert abs(lam.real - lapack_stable_pair(rep.jacobian)[0]) <= 1e-12 * scale
    with pytest.raises(TargetNotReachedError, match="travel budget exhausted"):
        saddle_path(params, 0.9 * steady_state(params).z_star)


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
        paired += check_stable_pair(rep.jacobian, rep.eigenvalues)
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
    (fun, y0, max_step, events, (ts, ys, *_)), = calls
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
    sols = [solve_ivp(lambda _t, x: fun(*x.tolist()), (0.0, dynamics.T_BUDGET), seed,
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

    Over the integrated segment, from the seed on the stable manifold to
    z0: the same accepted steps and rhs calls and the same stop. A path
    that reaches z0 holds those steps, reversed, followed by the rows
    reported from the manifold after the seed. scipy sums the stages with
    numpy's dot products, the stepper with plain float sums; the last-ulp
    difference in the error norm, a difference formed by cancellation,
    moves every later step size by about 1e-7, so stored times are not
    compared. The stopping time must agree to within four times the spread
    that moving one seed coordinate by one ulp causes in scipy's own (about
    1e-14 on most starts, 6e-9 on case 1's paths from below z*, which pass
    the corner u = v = 1 from the linear seed), and to 1e-7 relative in any
    case.

    Step by step: scipy's RK45 started at each stored state, with the
    stored step as its first step, reproduces the next stored state to
    1e-14 in the max norm, relative to that state's own: a coordinate that
    runs into the floor, or u - v as it closes to the event gap, is far
    smaller than the state, and the rhs's 1/(u - v) magnifies rounding. The
    last state, interpolated at the event, has no stored step.
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
        s_end = math.copysign(
            dynamics.SEED_SCALE * math.hypot(ss.z_star, ss.q_star, ss.u_star, ss.v_star), s0)
        x_star, jac, _, coeffs, _ = manifold_of(params)
        if result.meta["order"] == 1:  # past the corner: the linear seed
            coeffs = [x_star, dynamics.stable_eigenpair(jac, eigen4(ss, params))[1]]
        rows = dynamics._manifold_rows(coeffs, rate, s0, s_end)
        assert rows[0][1] == ys[0]
        assert len(result) == len(sol.t) + len(rows) - 1
        assert result.state_rows[len(ts):] == [x for _, x in rows[1:]]
        assert result.meta["steps"] == len(ts)
        assert result.meta["nfev"] == sol.nfev
        assert result.state_rows[:len(ts)] == ys[::-1]
        assert result.time_rows[len(ts) - 1] == ts[-1]
        assert result.meta["t_stop"] == result.time_rows[-1] == (
            ts[-1] + math.log(s0 / s_end) / -rate)
    else:
        assert hit == [False, outcome == "hit a coordinate floor",
                       outcome == "approached u = v"]
        assert isinstance(result, TargetNotReachedError)
        assert str(result) == (f"z never crossed {z0} ({outcome}; "
                               f"final z = {sol.y[0, -1]:g})")
    for i in range(len(ts) - 2):
        rk = RK45(lambda _t, x: fun(*x.tolist()), ts[i], np.array(ys[i]),
                  dynamics.T_BUDGET, first_step=ts[i + 1] - ts[i], max_step=max_step,
                  rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL)
        rk.step()
        assert rk.t == ts[i + 1]
        assert np.max(np.abs(rk.y - ys[i + 1])) <= 1e-14 * np.max(np.abs(ys[i + 1]))


def manifold_of(params):
    """(x*, J, lambda, coefficients, radius) of saddle_path's expansion."""
    ss, s = steady_point(params)
    jac = jacobian_fd(*s, params)
    lam, v_s = dynamics.stable_eigenpair(jac, eigen4(ss, params))
    x_star = tuple(s)
    coeffs, radius, _ = dynamics._stable_manifold(params, x_star, jac, lam.real, v_s,
                                                  math.hypot(*x_star))
    return x_star, jac, lam.real, coeffs, radius


def invariance_defect(params, coeffs, rate, s):
    """rms_i |E_i| / (|lambda| (atol + rtol |W_i|)) times rtol, with
    E = rhs(W(s)) - lambda s W'(s) and W summed term by term."""
    x = [sum(c[i] * s**k for k, c in enumerate(coeffs)) for i in range(4)]
    dx = [sum(k * c[i] * s ** (k - 1) for k, c in enumerate(coeffs) if k) for i in range(4)]
    return defect_at(params, x, dx, rate, s)


def defect_at(params, x, dx, rate, s):
    """invariance_defect's measure at W(s) = x and W'(s) = dx, in the
    arithmetic of the numbers given: floats or mpmath numbers."""
    e = [(f - rate * s * d) / abs(rate)
         for f, d in zip(rhs_reduced_values(*x, params), dx)]
    tol = [dynamics.SADDLE_ATOL + dynamics.SADDLE_RTOL * abs(xi) for xi in x]
    return dynamics.SADDLE_RTOL * math.sqrt(sum((a / b) ** 2 for a, b in zip(e, tol)) / 4)


def defect_resolution(params, coeffs, rate, s):
    """(exact, spread) at the package's own float W(s) and W'(s): exact is
    defect_at in 50-digit arithmetic, and spread the largest distance from
    it of the float defect_at at the 80 neighbours of W(s) whose
    coordinates each move by -1, 0 or +1 ulp."""
    x = dynamics._horner(coeffs, s)
    dx = dynamics._horner([[k * a for a in c] for k, c in enumerate(coeffs)][1:], s)
    with mpmath.workdps(50):
        exact = defect_at(params, *([mpmath.mpf(c) for c in v] for v in (x, dx)),
                          mpmath.mpf(rate), mpmath.mpf(s))
    spread = max(
        abs(defect_at(params, [math.nextafter(c, k * math.inf) if k else c
                               for c, k in zip(x, moves)], dx, rate, s) - exact)
        for moves in itertools.product((-1, 0, 1), repeat=4) if any(moves))
    return exact, spread


# The paper cases and the stiff economies from above z*, away from the
# corner u = v = 1: each is seeded on the order-MANIFOLD_ORDER expansion.
# The stiff economies' paths then stop at u = v.
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
    x_star, _, rate, coeffs, _ = manifold_of(params)
    assert len(coeffs) - 1 == dynamics.MANIFOLD_ORDER
    assert abs(s0) > dynamics.SEED_SCALE * math.hypot(*x_star)
    assert defect == pytest.approx(invariance_defect(params, coeffs, rate, s0), rel=1e-6)
    for s in (s0, -s0):
        assert invariance_defect(params, coeffs, rate, s) <= dynamics.SADDLE_RTOL


@pytest.mark.parametrize("name, factor", GATED_STARTS)
def test_manifold_coefficients_match_40_digit_taylor_coefficients(name, factor, monkeypatch):
    """a_2 and a_3 against an oracle without a DFT: the Taylor coefficient
    [rhs(W_{<k})]_k by mpmath.diff at 40 digits, along the package's own
    truncated W, and (J - k lambda I) a_k = -[rhs(W_{<k})]_k solved by
    mpmath.lu_solve. The DFT's error is rounding divided by r^k plus
    aliasing from singularities near the circle, up to 8e-8 relative on
    a_3 of case 1 (r = 1.1e-3 |x*|) and more on the stiff economies' tiny
    a_3. What it costs the path is its term at the seed: |da_k| |s0|^k
    stays below 5 % of SADDLE_RTOL |x*| (up to 0.54 % is measured)."""
    params = params_of(name)
    s0, _ = gated_seed(params, factor * steady_state(params).z_star, monkeypatch)
    x_star, jac, rate, coeffs, _ = manifold_of(params)
    with mpmath.workdps(40):
        for k in (2, 3):
            def along_w(s, i):
                x = [sum(mpmath.mpf(c[j]) * s**p for p, c in enumerate(coeffs[:k]))
                     for j in range(4)]
                return rhs_reduced_values(*x, params)[i]

            rhs_k = [mpmath.diff(lambda s: along_w(s, i), 0, k) / mpmath.factorial(k)
                     for i in range(4)]
            m = mpmath.matrix([[jac[i][j] - (k * rate if i == j else 0.0) for j in range(4)]
                               for i in range(4)])
            a_k = mpmath.lu_solve(m, mpmath.matrix([-c for c in rhs_k]))
            err = max(abs(float(a_k[i]) - coeffs[k][i]) for i in range(4))
            assert err * abs(s0) ** k <= 0.05 * dynamics.SADDLE_RTOL * math.hypot(*x_star)


@pytest.mark.parametrize("case, factor", reference_paths.STARTS + [(1, 0.9)])
def test_path_does_not_depend_on_the_circle_radius(case, factor, monkeypatch):
    """Paths built on the circle saddle_path chooses, of radius r, and on
    one of radius r/2 start at the same (q, u, v) to SADDLE_RTOL relative
    and report the same clock to 1e-9; measured: 1.5e-11 and 5e-11 at
    most. The starts are the reference table's and case 1 from 0.9 z*,
    which passes the corner u = v = 1 and so takes the linear seed, on
    neither circle."""
    params = bench_params(*CASE_PSI[case])
    z0 = factor * steady_state(params).z_star
    wide = saddle_path(params, z0)
    expansion = dynamics._stable_manifold

    def halved(params, x_star, jac, rate, v_s, scale):
        radius = expansion(params, x_star, jac, rate, v_s, scale)[1]
        monkeypatch.setattr(dynamics, "MANIFOLD_RADIUS", radius / 2 / scale)
        return expansion(params, x_star, jac, rate, v_s, scale)

    monkeypatch.setattr(dynamics, "_stable_manifold", halved)
    narrow = saddle_path(params, z0)
    if wide.meta["order"] == 1:
        assert narrow.meta["radius"] is wide.meta["radius"] is None
    else:
        assert narrow.meta["radius"] == pytest.approx(wide.meta["radius"] / 2, rel=1e-15)
    for a, b in zip(wide.state_rows[0][1:], narrow.state_rows[0][1:]):
        assert abs(a - b) <= dynamics.SADDLE_RTOL * abs(b)
    assert abs(wide.meta["t_stop"] - narrow.meta["t_stop"]) <= 1e-9


@pytest.mark.parametrize("event, outcome", [("UV_EVENT_GAP", "approached u = v"),
                                            ("BOX_MARGIN", "hit a coordinate floor")])
def test_manifold_rows_respect_the_events_of_stepped_rows(event, outcome, monkeypatch):
    """With the u - v gap (or the coordinate floor) moved to where W crosses
    it at |s| = 1e-3 |x*|, inside the seed's usual 6.7e-3 |x*|, the seed
    moves inside the event, and the path stops there as a stepped path
    would. Case 1 from below z* narrows u - v, from above it lowers q."""
    params = params_of("case1")
    x_star, _, _, coeffs, _ = manifold_of(params)
    s = math.copysign(1e-3 * math.hypot(*x_star), -1.0 if event == "UV_EVENT_GAP" else 1.0)
    z, q, u, v = (sum(c[i] * s**k for k, c in enumerate(coeffs)) for i in range(4))
    monkeypatch.setattr(dynamics, event, u - v if event == "UV_EVENT_GAP" else q)
    seeds = []
    stepper = dynamics._dormand_prince

    def spy(fun, y0, max_step, events):
        seeds.append(events(y0))
        return stepper(fun, y0, max_step, events)

    monkeypatch.setattr(dynamics, "_dormand_prince", spy)
    factor = 0.9 if event == "UV_EVENT_GAP" else 1.1
    with pytest.raises(TargetNotReachedError, match=outcome):
        saddle_path(params, factor * steady_state(params).z_star)
    (_, floor, gap), = seeds
    assert floor > 0.0 and gap > 0.0


def test_start_within_reach_of_the_manifold_integrates_nothing(monkeypatch):
    """Case 2 from 1.001 z*, where z0 lies between z* and W(s0): the path is
    solved for on W, its first row at z0, and the stepper never runs.
    Every row follows from the one before by scipy's RK45 at rtol 1e-12
    to 1e-11 relative, and the clock is the conjugacy's ln(s_end/s) /
    lambda."""
    params = params_of("case2")
    x_star, _, rate, _, _ = manifold_of(params)
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


@pytest.mark.parametrize("how", ["no circle passes", "no seed passes the gate"])
def test_linear_seed_when_the_expansion_fails(how, monkeypatch):
    """Where no circle recovers J v_s = lambda v_s (a circle of radius |x*|)
    or no seed passes the invariance gate, the path starts from the linear
    seed SEED_SCALE |x*| out, reports no manifold rows, and is the path
    the linear seed always gave: case 1 from 1.1 z* in 143 steps and 854
    rhs calls, to t = 0.9185382310329033."""
    params = params_of("case1")
    x_star, *_ = manifold_of(params)
    if how == "no circle passes":
        monkeypatch.setattr(dynamics, "MANIFOLD_RADIUS", 1.0)
    else:
        monkeypatch.setattr(dynamics, "_defect", lambda *args: 1.0)
    traj = saddle_path(params, 1.1 * x_star[0])
    meta = traj.meta
    assert meta["order"] == 1 and meta["seed_defect"] is None
    assert meta["s0"] == dynamics.SEED_SCALE * math.hypot(*x_star)
    assert (len(traj), meta["steps"], meta["nfev"]) == (143, 143, 854)
    assert meta["t_stop"] == traj.time_rows[-1] == 0.9185382310329033


@pytest.mark.parametrize("name", ECONOMIES)
def test_paths_past_the_corner_take_the_linear_seed(name, monkeypatch):
    """From below z*, the eigenvector's line from x* meets u = 1 at the z
    where the path passes the corner u = v = 1. A z0 past that point
    (0.5 z*) takes the linear seed and computes no expansion; the path
    leaves (0, 1) in u between z0 and that z, and is inside it after, to
    1e-3 of the distance from z*. A
    z0 a little short of it takes the expansion's seed on the paper
    cases (on the stiff economies the corner lies within 6e-4 z* of z*,
    inside the seed's reach)."""
    params = params_of(name)
    ss, s = steady_point(params)
    lam, v_s = dynamics.stable_eigenpair(jacobian_fd(*s, params), eigen4(ss, params))
    z_corner = ss.z_star + v_s[0] * (1.0 - ss.u_star) / v_s[2]
    assert z_corner < ss.z_star
    expansions = []
    stable_manifold = dynamics._stable_manifold

    def spy(*args):
        expansions.append(args)
        return stable_manifold(*args)

    monkeypatch.setattr(dynamics, "_stable_manifold", spy)
    traj = saddle_path(params, 0.5 * ss.z_star)
    assert traj.meta["order"] == 1 and traj.meta["steps"] == len(traj)
    assert expansions == []
    outside = [z for z, _, u, _ in traj.state_rows if u > 1.0]
    inside = [z for z, _, u, _ in traj.state_rows if u < 1.0]
    tol = 1e-3 * (ss.z_star - z_corner)  # measured: rows lie within 8e-5 of it
    assert max(outside) <= z_corner + tol and min(inside) >= z_corner - tol
    if name.startswith("case"):
        short = saddle_path(params, z_corner + 0.01 * (ss.z_star - z_corner))
        assert short.meta["order"] == dynamics.MANIFOLD_ORDER
        assert max(u for _, _, u, _ in short.state_rows) < 1.0


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
    """A path integrated from the expansion's seed, on either side of z*
    (the stiff economy from below, short of the corner u = v = 1): the
    record holds the order, the circle that passed (the first, of radius
    MANIFOLD_RADIUS |x*|, on case 2; the second on case 1 and stiff
    economy 35) and the seed's defect, _defect's value at s0.

    That defect is within twice the rounding spread of its 50-digit value
    at the same W(s0) (defect_resolution; measured at most 0.93 of the
    spread, and 7 spreads off for a defect without its halving). On the
    paper cases it also agrees with a term-by-term sum to 1e-6. On stiff
    economy 35 it is itself rounding noise, as rhs_reduced_values resolves
    only about 1e-10 there: an ulp of W(s0) moves it by about 2e-12, a
    tenth of its value. The set-up calls are the Jacobian's 4, N/2 + 1
    samples per order and the first order's on a failed circle, and the
    gate's, at least the two of the seed that passes. The rows are the
    stepper's followed by those of W, and event_evals counts the g
    evaluations of the search that placed the stop."""
    params = params_of(name)
    searches = counted_searches(monkeypatch)
    traj = saddle_path(params, factor * steady_state(params).z_star)
    x_star, _, rate, coeffs, radius = manifold_of(params)
    meta = traj.meta
    first = radius == dynamics.MANIFOLD_RADIUS * math.hypot(*x_star)
    assert first == (name == "case2")
    assert meta["order"] == dynamics.MANIFOLD_ORDER and meta["radius"] == radius
    assert meta["seed_defect"] == dynamics._defect(params, coeffs, rate, meta["s0"])
    exact, spread = defect_resolution(params, coeffs, rate, meta["s0"])
    assert abs(meta["seed_defect"] - exact) <= 2.0 * spread
    if name.startswith("case"):
        assert meta["seed_defect"] == pytest.approx(
            invariance_defect(params, coeffs, rate, meta["s0"]), rel=1e-6)
    assert meta["seed_defect"] <= dynamics.SADDLE_RTOL
    n = dynamics.MANIFOLD_SAMPLES // 2 + 1
    gate = meta["setup_nfev"] - 4 - (dynamics.MANIFOLD_ORDER - first) * n
    assert gate >= 2
    assert 0 < meta["steps"] < len(traj)
    assert meta["t_stop"] == traj.time_rows[-1]
    assert meta["event_evals"] == sum(searches) > 2


@pytest.mark.parametrize("ref", reference_paths.load(),
                         ids=lambda ref: f"case{ref['case']}-{ref['factor']}")
def test_saddle_path_matches_the_25_digit_reference(ref):
    """Against tests/reference_paths.json (mpmath.odefun at 25 digits from
    an mpmath eigenvector seed): the path's first row lies at z0, and its
    (q, u, v) there agree to SADDLE_RTOL relative; measured at most 4.2e-11,
    where the linear seed gave up to 2.7e-10 (case 1). Its clock, the time
    from z0 to |s| = SEED_SCALE |x*|, agrees to 1e-8; measured at most
    4.1e-10, where the linear seed's was 3.5e-6 to 6.3e-6 short."""
    traj = saddle_path(bench_params(*CASE_PSI[ref["case"]]), ref["z0"])
    z, *quv = traj.state_rows[0]
    assert z == pytest.approx(ref["z0"], rel=4e-16)
    for x, name in zip(quv, "quv"):
        assert abs(x - float(ref[name])) <= dynamics.SADDLE_RTOL * abs(float(ref[name]))
    assert abs(traj.meta["t_stop"] - float(ref["clock"])) <= 1e-8


def test_stepper_gives_up_where_rk45_does():
    """y' = y^2 from y = 1, in each of the stepper's four components, blows
    up at t = 1: the stepper's steps fall below ten ulps of t at the same
    time and state as scipy's RK45 on the same system.

    There y is about 2e13, so the state holds the runs' rounding, summed in
    a different order on each side, magnified by y: it is compared through
    t + 1/y, which the exact flow keeps constant, to one ulp of 1.
    """
    def fun(z, q, u, v):
        return z * z, q * q, u * u, v * v

    with pytest.raises(StepSizeUnderflowError) as exc:
        dynamics._dormand_prince(fun, [1.0] * 4, 1.0, lambda y: [1.0] * 3)
    sol = solve_ivp(lambda _t, y: fun(*y.tolist()), (0.0, dynamics.T_BUDGET), [1.0] * 4,
                    method="RK45", rtol=dynamics.SADDLE_RTOL, atol=dynamics.SADDLE_ATOL,
                    max_step=1.0)
    assert sol.status == -1
    assert exc.value.last_time == sol.t[-1] < 1.0
    for y, y_rk in zip(exc.value.last_state, sol.y[:, -1]):
        assert 1.0 / y == pytest.approx(1.0 / y_rk, rel=0, abs=math.ulp(1.0))


# (economy, z0 / z*, the event that ends the path): cases 2-5 from both
# sides, case 1 from above, case 1 from the README start (z0 = k0 / h0 =
# 5.5, the linear seed, past the corner), case 1 into the coordinate floor
# and a stiff economy into u = v.
STEPPER_STARTS = (
    [(f"case{c}", f, 0) for c in (2, 3, 4, 5) for f in (0.9, 0.95, 1.05, 1.3)]
    + [("case1", 1.05, 0), ("case1", 1.1, 0), ("case1", "readme", 0), ("case1", 1.5, 1),
       ("stiff35", 1.1, 2)]
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
    """The stepper on four unpacked floats does the list form's arithmetic
    (oracles.dormand_prince) in its order: the same stage points, times,
    states, rhs calls, event and search evaluations, by repr, on paths that
    reach z0, that start from the linear seed past the corner, and that
    stop at the coordinate floor or at u = v."""
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
    """Each step of the stepper is written out on four floats: from its own
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
    order: the same floats, signed zeros included, on the order-6
    expansion and on the linear seed, at real and at complex s."""
    params = params_of("case1")
    x_star, jac, _, coeffs, _ = manifold_of(params)
    v_s = dynamics.stable_eigenpair(jac, eigen4(steady_state(params), params))[1]
    for c in (coeffs, [x_star, v_s]):
        assert repr(dynamics._horner(c, s)) == repr(oracles.horner(c, s))


@pytest.mark.parametrize("name", ECONOMIES)
def test_incremental_circle_samples_match_reevaluated_ones(name):
    """_stable_manifold moves its circle points from W_{<k-1} to W_{<k} by
    adding a_{k-1} s^(k-1). Samples re-evaluated at every order by Horner's
    rule, from the package's own a_{<k}, give a_2 to the bit and a_3 to a_6
    to rounding: |da_k| r^k is at most 1e-13 |x*|, measured at most 5.3e-15
    |x*| (a_4 of stiff economy 35)."""
    params = params_of(name)
    x_star, jac, rate, coeffs, r = manifold_of(params)
    n = dynamics.MANIFOLD_SAMPLES
    roots = [cmath.exp(2j * math.pi * j / n) for j in range(n // 2 + 1)]
    assert len(coeffs) == dynamics.MANIFOLD_ORDER + 1
    for k in range(2, len(coeffs)):
        f = [rhs_reduced_values(*oracles.horner(coeffs[:k], r * w), params) for w in roots]
        m = [[x - k * rate if i == j else x for j, x in enumerate(row)]
             for i, row in enumerate(jac)]
        a_k = dynamics._solve_pivoted(m, [-c for c in dynamics._dft(f, roots, k, r)])
        gap = max(abs(a - b) for a, b in zip(a_k, coeffs[k])) * r**k
        if k == 2:
            assert a_k == coeffs[k]
        assert gap <= 1e-13 * math.hypot(*x_star)


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
