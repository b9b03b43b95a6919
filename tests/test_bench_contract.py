"""The names the benchmark's traced run wraps must stay where it looks for them.

perfbench.spans replaces each (module, attribute) in BOUNDARIES by a
recording wrapper, in the namespace its callers read it from. A refactor
that drops, renames or inlines one of them should fail here rather than
in a later `--trace 1` run.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from perfbench.model import PARAM_NAMES  # noqa: E402
from perfbench.spans import BOUNDARIES  # noqa: E402
from perfbench.workloads import POOL_SEED, POOL_SIZE, draw_economies  # noqa: E402

from cesgrowth import ModelParams, core, dynamics, stability, steady  # noqa: E402

from conftest import bench_params  # noqa: E402


def test_every_boundary_resolves_to_a_callable():
    for module_name, attr, _ in BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_solve_w_looks_up_gap_p_at_call_time(monkeypatch):
    """steady.gap_P_calls_per_solve counts the bracket probes, which pass
    through steady's gap_P binding at call time; the Newton loop takes the
    gap and its slope from real sector_rates calls, looked up in steady's
    namespace at call time too."""
    probes, kernel = [], []
    gap, rates = steady.gap_P, steady.sector_rates

    def counting_gap(w, params):
        probes.append(w)
        return gap(w, params)

    def counting_rates(w, params):
        kernel.append(w)
        return rates(w, params)

    monkeypatch.setattr(steady, "gap_P", counting_gap)
    monkeypatch.setattr(steady, "sector_rates", counting_rates)
    steady.solve_w(bench_params(0.25, -0.10))
    # The bracket search probes powers of ten; the root refinement in between.
    assert probes and all(math.log10(w).is_integer() for w in probes)
    newton = [w for w in kernel if not math.log10(w).is_integer()]
    assert newton and all(type(w) is float for w in newton)


def test_rhs_looks_up_the_aux_kernel_at_call_time(monkeypatch):
    """core.aux_from_wuv counts the kernel wrapped in stability's namespace:
    each rhs_reduced_values call must pass through that binding. The rhs
    and the Jacobian, in closed form, each make one sector_rates call,
    looked up in stability's namespace at call time, whose tuple they hand
    to one aux_from_wuv call through the same binding; the Jacobian calls
    no rhs, so stability.rhs_calls_per_jacobian reads 0."""
    calls = {"aux_from_wuv": [], "sector_rates": [], "rhs_reduced_values": []}
    for name, seen in calls.items():
        def counting(*args, seen=seen, original=getattr(stability, name)):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(stability, name, counting)
    params = bench_params(0.25, -0.10)
    ss = steady.steady_state(params)
    x = (ss.z_star, ss.q_star, ss.u_star, ss.v_star)
    stability.rhs_reduced_values(*x, params)
    assert [len(seen) for seen in calls.values()] == [1, 1, 1]
    stability.jacobian_fd(*x, params)
    assert [len(seen) for seen in calls.values()] == [2, 2, 1]
    assert all(type(args[0]) is float for args in calls["sector_rates"])
    assert all(args[4] is not None for args in calls["aux_from_wuv"])


def _counting(monkeypatch, modules, name):
    """Calls of modules' binding of name, recorded as their argument
    tuples, in one list per module."""
    calls = {module: [] for module in modules}
    for module, seen in calls.items():
        def counting(*args, seen=seen, original=getattr(module, name)):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_closed_forms_and_eigen4_make_one_kernel_call(monkeypatch):
    """closed_forms reads every starred quantity from one sector_rates call
    through steady's binding and calls no aux_from_wuv; eigen4 takes J2's
    terms and lambda_w from one sector_rates call through stability's."""
    params = bench_params(0.25, -0.10)
    ss = steady.steady_state(params)
    assert not hasattr(steady, "aux_from_wuv")
    aux = _counting(monkeypatch, (core, stability), "aux_from_wuv")
    rates = _counting(monkeypatch, (core, steady, stability), "sector_rates")
    assert steady.closed_forms(ss.w_star, params) == ss
    assert [len(seen) for seen in rates.values()] == [0, 1, 0]
    stability.eigen4(ss, params)
    assert [len(seen) for seen in rates.values()] == [0, 1, 1]
    assert [args[0] for seen in rates.values() for args in seen] == [ss.w_star] * 2
    assert not any(aux.values())


def _economy(half):
    """bench_params(0.25, -0.10), where tau0* < 1 ("plane"), or economy 10
    of the benchmark's economy_scan pool, where tau0* > 1 ("transverse")."""
    if half == "plane":
        return bench_params(0.25, -0.10)
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    return ModelParams(**{n: float(getattr(pool, n)[10]) for n in PARAM_NAMES})


@pytest.mark.parametrize("economy, factor, calls", [("plane", 0.9, 3), ("transverse", 1.1, 5)],
                         ids=["plane", "transverse"])
def test_saddle_path_set_up_kernel_calls_at_w_star(economy, factor, calls, monkeypatch):
    """After solve_w, a saddle path evaluates sector_rates at the float w*
    a fixed number of times, wherever it looks the kernel up (_economy).
    On the plane w = w* three: once in closed_forms, once in eigen4 and
    once for stable_eigenpair's plane_terms. Where tau0* > 1 two more:
    jacobian_fd's for stable_eigenpair's slopes in w, at (v*/u*) z*,
    which rounds to w* there, and saddle_path's for g_curvature."""
    params = _economy(economy)
    ss = steady.steady_state(params)
    at_w_star, solve_w, kernel = [], steady.solve_w, core.sector_rates

    def solving(params):
        root = solve_w(params)
        at_w_star.clear()  # the root search's calls are not the set-up's
        return root

    def counting(w, params):
        if w == ss.w_star:
            at_w_star.append(w)
        return kernel(w, params)

    monkeypatch.setattr(steady, "solve_w", solving)
    for module in (core, steady, stability, dynamics):
        monkeypatch.setattr(module, "sector_rates", counting)
    dynamics.saddle_path(params, factor * ss.z_star)
    assert len(at_w_star) == calls


def test_saddle_path_looks_up_rhs_at_call_time(monkeypatch):
    """dynamics.rhs_calls_per_path counts rhs_reduced_values, which the
    tracer wraps in dynamics' namespace and in stability's. A path
    integrates plane_terms' equations and eigen4 takes J2 in closed form
    from them, so a path calls rhs_reduced_values through neither binding;
    dynamics' stays for the tracer. So the count per path is 0."""
    calls = {dynamics: [], stability: []}
    original = stability.rhs_reduced_values
    for module, seen in calls.items():
        def counting(*args, seen=seen):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(module, "rhs_reduced_values", counting)
    params = bench_params(0.25, -0.10)
    traj = dynamics.saddle_path(params, 0.9 * steady.steady_state(params).z_star)
    assert (len(calls[dynamics]), len(calls[stability])) == (0, 0)
    assert traj.meta["nfev"] > 0


def _stability_report(params):
    return stability.stability_report(params)


def _saddle_path(params):
    return dynamics.saddle_path(params, 1.1 * steady.steady_state(params).z_star)


@pytest.mark.parametrize("module, run", [(stability, _stability_report), (dynamics, _saddle_path)],
                         ids=["stability_report", "saddle_path"])
def test_the_spectrum_looks_up_eigen4_at_call_time(module, run, monkeypatch):
    """stability.eigen4_us times the eigen4 the tracer wraps: stability_report
    and saddle_path must each take the spectrum from one eigen4 call,
    through their own module's binding."""
    calls = []
    original = module.eigen4

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, "eigen4", counting)
    run(bench_params(0.25, -0.10))
    assert len(calls) == 1


@pytest.mark.parametrize("economy", ["plane", "transverse"])
@pytest.mark.parametrize("run", [_stability_report, _saddle_path],
                         ids=["stability_report", "saddle_path"])
def test_the_kernel_gets_float_w_only(run, economy, monkeypatch):
    """Every sector_rates call that saddle_path and stability_report make,
    through core's, steady's, stability's or dynamics' binding, gets a
    Python float w, on both halves (_economy). No complex step or other
    non-float argument reaches the kernel."""
    params = _economy(economy)
    assert (steady.steady_state(params).tau0 < 1.0) == (economy == "plane")
    calls = _counting(monkeypatch, (core, steady, stability, dynamics), "sector_rates")
    run(params)
    ws = [args[0] for seen in calls.values() for args in seen]
    assert ws and all(type(w) is float for w in ws)
