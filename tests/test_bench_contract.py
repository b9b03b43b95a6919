"""The names the benchmark's traced run wraps must stay where it looks for them.

perfbench.spans replaces each (module, attribute) in BOUNDARIES by a
recording wrapper, in the namespace its callers read it from. A refactor
that drops, renames or inlines one of them should fail here rather than
in a later `--trace 1` run.
"""

import importlib
import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.model import PARAM_NAMES  # noqa: E402
from perfbench.spans import BOUNDARIES  # noqa: E402
from perfbench.workloads import WORKLOADS, POOL_SEED, POOL_SIZE, draw_economies  # noqa: E402

from cesgrowth import ModelParams, core, dynamics, stability, steady  # noqa: E402

from conftest import bench_params  # noqa: E402


def test_every_boundary_resolves_to_a_callable():
    for module_name, attr, _ in BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def _solve_lookups(monkeypatch, params):
    """solve_w(params) with steady's gap_P and sector_rates counted: the
    root, the bracket probes' w and the kernel calls' w."""
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
    return steady.solve_w(params), probes, kernel


def _decade(w):
    return math.log10(np.ravel(w)[0]).is_integer()


def test_solve_w_looks_up_gap_p_at_call_time(monkeypatch):
    """steady.gap_P_calls_per_solve counts the bracket probes, which pass
    through steady's gap_P binding at call time; the Newton loop takes the
    gap and its slope from real sector_rates calls, looked up in steady's
    namespace at call time too."""
    _, probes, kernel = _solve_lookups(monkeypatch, bench_params(0.25, -0.10))
    # The bracket search probes powers of ten; the root refinement in between.
    assert probes and all(map(_decade, probes))
    newton = [w for w in kernel if not _decade(w)]
    assert newton and all(type(w) is float for w in newton)


def test_family_solve_looks_up_gap_p_at_call_time(monkeypatch):
    """A family's masked loop, here on one member, probes and steps through
    the same bindings as one economy's float loop, to the same root."""
    params = bench_params(0.25, -0.10)
    root, probes, kernel = _solve_lookups(monkeypatch, params._replace(A1=np.array([params.A1])))
    assert probes and all(map(_decade, probes))
    newton = [w for w in kernel if not _decade(w)]
    assert newton and all(type(w) is np.ndarray for w in newton)
    assert root[0] == pytest.approx(steady.solve_w(params), rel=1e-14)


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


@pytest.mark.parametrize("economy, factor, calls", [("plane", 0.9, 2), ("transverse", 1.1, 3)],
                         ids=["plane", "transverse"])
def test_saddle_path_set_up_kernel_calls_at_w_star(economy, factor, calls, monkeypatch):
    """After solve_w, a saddle path evaluates sector_rates at the float w*
    a fixed number of times, wherever it looks the kernel up (_economy).
    On the plane w = w* two: once in closed_forms, and once in saddle_path,
    whose rates and plane_terms eigen4, stable_eigenpair and g_curvature
    share. Where tau0* > 1 one more: jacobian_fd's for stable_eigenpair's
    slopes in w, at (v*/u*) z*, which rounds to w* there."""
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
    integrates plane_terms' equations, or on the plane is written in
    closed form, and eigen4 takes J2's pair in closed form from plane_terms, so a
    path calls rhs_reduced_values through neither binding; dynamics' stays
    for the tracer. So the count per path is 0, on a path stepped where
    tau0* > 1 (_economy), with rhs calls of its own ("nfev"), as on a plane
    path, which steps nothing."""
    calls = {dynamics: [], stability: []}
    original = stability.rhs_reduced_values
    for module, seen in calls.items():
        def counting(*args, seen=seen):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(module, "rhs_reduced_values", counting)
    for economy in ("transverse", "plane"):
        params = _economy(economy)
        traj = dynamics.saddle_path(params, 0.8 * steady.steady_state(params).z_star)
        assert (len(calls[dynamics]), len(calls[stability])) == (0, 0)
        assert (traj.meta["nfev"] > 0) == (economy == "transverse")


@pytest.mark.parametrize("economy, factors", [("plane", (0.8, 0.9, 1.001, 1.1)),
                                              ("transverse", (0.9, 1.1))],
                         ids=["plane", "transverse"])
def test_levels_make_one_kernel_call_on_the_plane(economy, factors, monkeypatch):
    """dynamics.reconstruct_levels_us times levels from sector_rates
    through dynamics' binding: one call for a whole path on the plane w =
    w* (meta "plane"), where r = r* at every row, whatever the row count,
    and one per row where tau0* > 1 and w moves (_economy). On the plane a
    saddle path calls allocations, through dynamics' binding, only at w =
    w*, for every row of its closed form."""
    params = _economy(economy)
    ss = steady.steady_state(params)
    uvs = _counting(monkeypatch, (dynamics,), "allocations")[dynamics]
    paths = [dynamics.saddle_path(params, factor * ss.z_star) for factor in factors]
    assert len({len(traj) for traj in paths}) == len(paths)
    assert uvs and (economy == "transverse") != all(args[1] == ss.w_star for args in uvs)
    rates = _counting(monkeypatch, (dynamics,), "sector_rates")[dynamics]
    for traj in paths:
        rates.clear()
        dynamics.reconstruct_levels(traj, 1.0, params)
        assert len(rates) == (1 if economy == "plane" else len(traj))


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


# The failures each workload counts by name and keeps, rather than report
# as a wrong output.
KEPT_CAUSES = {
    "cli_session": set(),
    "sigma_sweep": {checks.GUARD_BAND},
    "economy_scan": set(),
    "transition_paths": {checks.INFEASIBLE_PATH, checks.TARGET_NOT_REACHED},
}


class NoTracer:
    enabled = False

    def operation(self, call, *args):
        return call(*args)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_of_each_workload_passes_the_benchmarks_checks(name, tmp_path, monkeypatch):
    """One untraced round of each benchmark workload, from seed 3, passes
    the benchmark's own checks of the program's outputs: no problem, and
    no failure but the workload's kept causes. cli_session runs its
    commands as fresh processes from the repository root."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]))
    workload = WORKLOADS[name](str(root), 3, str(tmp_path))
    workload.prepare()
    workload.references()
    rnd = workload.run_round(NoTracer())
    assert rnd.attempted > 0
    assert rnd.problems == []
    assert set(rnd.failures) <= KEPT_CAUSES[name]
