"""Each check passes the program's output and fails on a perturbed copy of it.

The kept failures are counted under their named causes.
"""

import json

import numpy as np
import pytest

from perfbench import checks as C
from perfbench import model as M
from perfbench import paper
from perfbench import workloads as W


class NoTracer:
    enabled = False

    def operation(self, call, *args):
        return call(*args)


def case(c):
    return M.economy_of(paper.case_params(*paper.CASE_PSI[c]))


def program_params(c):
    from cesgrowth import ModelParams

    return ModelParams(**paper.case_params(*paper.CASE_PSI[c]))


def steady_fields(c):
    from cesgrowth import steady_state

    ss = steady_state(program_params(c))
    return {name: getattr(ss, name) for name in ("w_star",) + C.STEADY_FIELDS}


def x_star(fields):
    return np.array([fields[k] for k in ("z_star", "q_star", "u_star", "v_star")])


@pytest.mark.parametrize("c", sorted(paper.CASE_PSI))
def test_steady_state_passes(c):
    fields = steady_fields(c)
    assert C.steady_problems(case(c), fields) == []
    assert C.paper_steady_problems(c, fields) == []


@pytest.mark.parametrize("c", sorted(paper.CASE_PSI))
def test_w_star_moved_by_1e_6_fails(c):
    fields = steady_fields(c)
    fields["w_star"] *= 1.0 + 1e-6
    assert any("from the gap's root" in p for p in C.steady_problems(case(c), fields))


def test_starred_value_off_its_closed_form_fails():
    fields = steady_fields(3)
    fields["q_star"] *= 1.0 + 1e-7
    assert any("q_star" in p for p in C.steady_problems(case(3), fields))


def spectrum(c):
    from cesgrowth import stability_report

    rep = stability_report(program_params(c))
    fields = {name: getattr(rep.steady, name) for name in ("z_star", "q_star", "u_star", "v_star")}
    ref = np.linalg.eigvals(M.jacobian(case(c), x_star(fields)))
    return rep, ref


@pytest.mark.parametrize("c", sorted(paper.CASE_PSI))
def test_spectrum_passes(c):
    rep, ref = spectrum(c)
    assert C.spectrum_problems(rep.eigenvalues, rep.classification, ref) == []


@pytest.mark.parametrize("shift", [2e-3, -2e-3, 0.5])
def test_eigenvalue_shifted_off_the_structural_zero_fails(shift):
    rep, ref = spectrum(2)
    ev = rep.eigenvalues.copy()
    ev[np.argmin(np.abs(ev.real))] += shift
    problems = C.spectrum_problems(ev, rep.classification, ref)
    assert any("within 0.001 of zero" in p for p in problems)
    assert C.spectrum_outcome(ev, rep.classification, ref) == (None, problems)


def test_wrong_label_fails():
    rep, ref = spectrum(4)
    assert any("label" in p for p in C.spectrum_problems(rep.eigenvalues, "source", ref))


# A draw from the acceptance suite's ranges with |lambda| about 7 965: the
# program's finite-difference Jacobian moves its structural zero to -7.29.
DEGENERATE_ECONOMY = {
    "A1": 1.2707988017769716, "A2": 0.3015654261105114,
    "alpha1": 0.5772024434170452, "alpha2": 0.47189837870534845,
    "psi1": -0.21206243008255676, "psi2": 0.06050840439145047,
    "delta_k": 0.07222604389582234, "delta_h": 0.08903758029399893,
    "eps": 3.9068268674780082, "rho": 0.021783320138916793,
}


def test_degenerate_label_is_a_named_cause():
    from cesgrowth import ModelParams, stability_report

    e = M.economy_of(DEGENERATE_ECONOMY)
    rep = stability_report(ModelParams(**DEGENERATE_ECONOMY))
    fields = {name: getattr(rep.steady, name) for name in ("z_star", "q_star", "u_star", "v_star")}
    ref = np.linalg.eigvals(M.jacobian(e, x_star(fields)))
    assert C.label_of(C.sort_spectrum(ref)) == "saddle_path"
    assert C.spectrum_outcome(rep.eigenvalues, rep.classification, ref) == (C.DEGENERATE_LABEL, [])


def test_moved_zero_is_a_named_cause_only_on_a_stiff_economy():
    ev = np.array([-100.0, 5e-3, 0.2, 100.5])
    stiff = np.array([-100.0, 0.0, 0.2, 100.5])
    assert C.spectrum_outcome(ev, "saddle_path", stiff) == (C.STIFF_SPECTRUM, [])
    mild = stiff * 0.4
    cause, problems = C.spectrum_outcome(ev * 0.4, "saddle_path", mild)
    assert cause is None
    assert any("within 0.001 of zero" in p for p in problems)


def sweep_rows(tmp_path, which, grid):
    from cesgrowth import cli

    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"params": paper.case_params(*paper.CASE_PSI[1]),
                                    "initial": paper.README_INITIAL}))
    out = tmp_path / "out.csv"
    assert cli.main(["sweep", "--scenario", str(scenario), "--grid", grid, "--sigma", which,
                     "--format", "csv", "--out", str(out)]) == 0
    return C.parse_sweep_csv(out.read_text())[0]


@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_sweep_passes_and_counts_the_guard_band(tmp_path, which):
    rows = sweep_rows(tmp_path, which, W.sweep_grid(0.45))
    causes, problems = C.sweep_outcomes(paper.case_params(*paper.CASE_PSI[1]),
                                        paper.README_INITIAL, which, rows)
    assert problems == []
    assert [c for c in causes if c] == [C.GUARD_BAND] * 2


def test_sweep_grid_puts_two_points_in_the_guard_band():
    for phase in (0.4, 0.45, 0.5, 0.55, 0.6):
        lo, hi, n = W.sweep_grid(phase).split(":")
        sigma = np.linspace(float(lo), float(hi), int(n))
        assert np.sum(np.abs(sigma - 1.0) < C.SIGMA_GUARD) == 2
        assert abs(sigma[0] - 0.5) < 1e-3 and abs(sigma[-1] - 2.0) < 1e-3


def test_sweep_row_swapped_with_its_neighbour_fails(tmp_path):
    rows = sweep_rows(tmp_path, "1", "0.6:1.8:25")
    template = paper.case_params(*paper.CASE_PSI[1])
    assert C.sweep_outcomes(template, paper.README_INITIAL, "1", rows)[1] == []
    rows[10]["r_star"], rows[11]["r_star"] = rows[11]["r_star"], rows[10]["r_star"]
    problems = C.sweep_outcomes(template, paper.README_INITIAL, "1", rows)[1]
    assert any("r_star" in p and "closed form" in p for p in problems)
    assert any("r_star does not rise" in p for p in problems)


def test_sweep_technology_off_the_family_fails(tmp_path):
    rows = sweep_rows(tmp_path, "2", "0.6:1.8:13")
    rows[3]["alpha"] *= 1.0 + 1e-8
    problems = C.sweep_outcomes(paper.case_params(*paper.CASE_PSI[1]),
                                paper.README_INITIAL, "2", rows)[1]
    assert any("alpha off the family" in p for p in problems)
    assert any("MRS at the anchor" in p for p in problems)


def path(c, ratio):
    from cesgrowth import reconstruct_levels, saddle_path

    fields = steady_fields(c)
    z0 = ratio * fields["z_star"]
    traj = reconstruct_levels(saddle_path(program_params(c), z0), z0, program_params(c))
    return z0, x_star(fields), traj


@pytest.mark.parametrize("c, ratio", [(1, 1.07), (2, 0.9), (5, 1.4)])
def test_path_passes(c, ratio):
    z0, xs, traj = path(c, ratio)
    assert C.path_outcome(case(c), z0, xs, traj.times, traj.states, traj.levels, z0) == (None, [])


def test_path_state_pushed_outside_the_box_is_infeasible():
    z0, xs, traj = path(3, 1.2)
    states = traj.states.copy()
    states[len(states) // 2, 2] = 1.0 + 1e-9
    assert C.path_outcome(case(3), z0, xs, traj.times, states, traj.levels, z0)[0] \
        == C.INFEASIBLE_PATH


def test_path_state_off_the_dynamics_fails():
    z0, xs, traj = path(4, 0.95)
    states = traj.states.copy()
    states[len(states) // 2, 1] *= 1.0 + 1e-6
    cause, problems = C.path_outcome(case(4), z0, xs, traj.times, states, traj.levels, z0)
    assert cause is None
    assert any("disagrees with the model's dynamics" in p for p in problems)


def test_path_that_stops_short_of_the_balanced_path_fails():
    z0, xs, traj = path(2, 1.3)
    cut = len(traj.times) // 2
    problems = C.path_outcome(case(2), z0, xs, traj.times[:cut], traj.states[:cut],
                              traj.levels[:cut], z0)[1]
    assert any("from x*" in p for p in problems)


def test_levels_off_their_identities_fail():
    z0, xs, traj = path(5, 1.1)
    levels = traj.levels.copy()
    levels[-1, 2] *= 1.0 + 1e-9
    problems = C.path_outcome(case(5), z0, xs, traj.times, traj.states, levels, z0)[1]
    assert any("c = q k" in p for p in problems)
    levels = traj.levels.copy()
    levels[len(levels) // 2:] *= 1.0 + 1e-3
    problems = C.path_outcome(case(5), z0, xs, traj.times, traj.states, levels, z0)[1]
    assert any("growth law" in p for p in problems)


def accurate_log_k(e, times, states, substeps=64):
    """log(k/k0) at the stored times from RK4 on (state, log k) within each stored step."""
    def f(x):
        growth = M.capital_growth(e, *x[:, :4].T)
        return np.concatenate([M.reduced_rhs_array(e, x[:, :4]), growth[:, None]], axis=1)

    x = np.concatenate([states[:-1], np.zeros((len(states) - 1, 1))], axis=1)
    h = (np.diff(times) / substeps)[:, None]
    for _ in range(substeps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.concatenate([[0.0], np.cumsum(x[:, 4])])


@pytest.mark.parametrize("c, ratio", [(2, 0.9), (5, 1.4)])
def test_more_accurate_levels_pass(c, ratio):
    z0, xs, traj = path(c, ratio)
    k = z0 * np.exp(accurate_log_k(case(c), traj.times, traj.states))
    # The program's trapezoid rule is off the accurate integral by about 1e-5 here.
    assert np.max(np.abs(np.log(traj.levels[:, 0] / k))) > 1e-6
    levels = np.column_stack([k, k / traj.states[:, 0], traj.states[:, 1] * k])
    assert C.level_problems(case(c), traj.times, traj.states, levels, z0) == []


def run_round(workload_class, tmp_path):
    wl = workload_class(str(tmp_path), 3, str(tmp_path))
    wl.prepare()
    wl.references()
    return wl.run_round(NoTracer())


def test_transition_round_counts_its_kept_failures(tmp_path):
    rnd = run_round(W.TransitionPaths, tmp_path)
    assert rnd.problems == []
    assert rnd.failures == {C.INFEASIBLE_PATH: 1, C.TARGET_NOT_REACHED: 1}
    assert rnd.attempted == 16


def test_economy_round_counts_its_kept_failures(tmp_path):
    rnd = run_round(W.EconomyScan, tmp_path)
    assert rnd.problems == []
    assert rnd.attempted == W.POOL_SIZE
    assert set(rnd.failures) <= {C.DEGENERATE_LABEL, C.STIFF_SPECTRUM}
    assert rnd.failures.get(C.DEGENERATE_LABEL, 0) >= 1


def test_sweep_round_counts_the_guard_band(tmp_path):
    rnd = run_round(W.SigmaSweep, tmp_path)
    assert rnd.problems == []
    assert rnd.failures == {C.GUARD_BAND: 6}
    assert rnd.attempted == 3 * W.SWEEP_POINTS


def test_a_kept_cause_on_a_seeded_input_is_a_problem():
    rnd = W.Round()
    rnd.fail(C.INFEASIBLE_PATH, kept=False, what="case 2")
    assert rnd.failures == {C.INFEASIBLE_PATH: 1}
    assert rnd.problems
