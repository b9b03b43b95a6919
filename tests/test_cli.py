"""End-to-end command-line checks, run in process via main(argv)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cesgrowth import (
    CesGrowthError,
    ModelParams,
    baseline_from_point,
    normalized_params,
    saddle_path,
    steady_state,
    y1_of,
    y2_of,
)
import cesgrowth
from cesgrowth import cli
from cesgrowth.cli import _fmt, main

from conftest import CASE_PSI, KERNEL_OVERFLOW, U_STAR_AT_ONE, bench_params

PARAMS_CASE1 = {
    "A1": 1.05,
    "A2": 0.20,
    "alpha1": 0.6,
    "alpha2": 0.8,
    "psi1": 0.25,
    "psi2": -0.10,
    "delta_k": 0.06,
    "delta_h": 0.05,
    "eps": 2.0,
    "rho": 0.06,
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(name="scn.json", **extra):
        doc = {"params": dict(PARAMS_CASE1)}
        doc.update(extra)
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_steady_table(scenario_file, capsys):
    code, out, _ = run(capsys, "steady", "--scenario", scenario_file())
    assert code == 0
    assert "z_star" in out and "10.725" in out


def test_steady_csv_roundtrip(scenario_file, capsys):
    code, out, _ = run(
        capsys, "steady", "--scenario", scenario_file(), "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    ss = steady_state(bench_params(0.25, -0.10))
    for name, val in values.items():
        assert val == getattr(ss, name)  # 17 significant digits: bit-exact


def test_steady_json(scenario_file, capsys):
    code, out, _ = run(
        capsys, "steady", "--scenario", scenario_file(), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["u_star"] == pytest.approx(0.8821, abs=1e-3)


def test_steady_out_file(scenario_file, tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run(
        capsys, "steady", "--scenario", scenario_file(), "--format", "csv",
        "--out", str(target),
    )
    assert code == 0 and out == ""
    assert "w_star" in target.read_text(encoding="utf-8")


def test_stability_classification(scenario_file, capsys):
    code, out, _ = run(capsys, "stability", "--scenario", scenario_file())
    assert code == 0
    assert "saddle_path" in out
    assert "jacobian" in out


def test_stability_json_eigenvalues(scenario_file, capsys):
    code, out, _ = run(
        capsys, "stability", "--scenario", scenario_file(), "--format", "json"
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["classification"] == "saddle_path"
    reals = sorted(e[0] for e in doc["eigenvalues"])
    assert reals[0] == pytest.approx(-12.788, rel=0.02)
    assert reals[3] == pytest.approx(12.963, rel=0.02)


def test_stability_requires_scenario_or_fixture(capsys):
    """stability takes a required --scenario, as every subcommand does."""
    with pytest.raises(SystemExit) as exc:
        main(["stability"])
    assert exc.value.code == 2
    assert "--scenario" in capsys.readouterr().err


def test_sweep_monotone_footer(scenario_file, capsys):
    scn = scenario_file(
        initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5},
        sweep={"sigma": "1", "lo": 1.05, "hi": 1.45, "n": 5},
    )
    code, out, _ = run(capsys, "sweep", "--scenario", scn)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("sigma,alpha,A,")
    assert len([l for l in lines if not l.startswith("#")]) == 6
    inc = next(l for l in lines if l.startswith("# monotone_increasing:"))
    assert "y1_star" in inc and "r_star" in inc


def test_sweep_guard_band_rows_marked(scenario_file, capsys):
    scn = scenario_file(
        initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5},
        sweep={"sigma": "1", "lo": 0.9995, "hi": 1.2, "n": 3},
    )
    code, out, _ = run(capsys, "sweep", "--scenario", scn)
    assert code == 0
    assert "guard band" in out


def test_sweep_grid_flag_overrides(scenario_file, capsys):
    scn = scenario_file(initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5})
    code, out, _ = run(capsys, "sweep", "--scenario", scn, "--grid", "1.1:1.3:3")
    assert code == 0
    assert len(out.strip().splitlines()) == 6  # header + 3 rows + 2 footers


@pytest.mark.parametrize("grid", ["0.5:inf:3", "0.5:1e309:3"])
def test_sweep_grid_rejects_an_infinite_bound(scenario_file, capsys, grid):
    code, out, err = run(capsys, "sweep", "--scenario", scenario_file(), "--grid", grid)
    assert code == 2 and out == ""
    assert err == "error: --grid: invalid grid [0.5, inf] n=3\n"


@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_sweep_member_whose_psi_rounds_to_one_is_its_own_error_row(
    scenario_file, capsys, which
):
    """Above sigma of about 9e15, psi = (sigma - 1)/sigma rounds to 1. Such a
    member fails alone; the other rows are those of the grid without it."""
    scn = scenario_file()
    code, out, err = run(capsys, "sweep", "--scenario", scn, "--grid", "0.5:1e16:3",
                         "--sigma", which)
    assert code == 0 and err == ""
    rows = out.splitlines()[1:4]
    psi = "psi2" if which == "2" else "psi1"
    assert rows[2] == "10000000000000000" + "," * 13 + f"{psi} must be < 1, got 1.0"
    mid = float(rows[1].split(",")[0])
    code, rest, _ = run(capsys, "sweep", "--scenario", scn, "--grid", f"0.5:{mid!r}:2",
                        "--sigma", which)
    assert code == 0 and rest.splitlines()[1:3] == rows[:2]


def test_sweep_without_spec_or_grid(scenario_file, capsys):
    code, _, err = run(capsys, "sweep", "--scenario", scenario_file())
    assert code == 2
    assert "sweep" in err


def test_compare_dominance(scenario_file, capsys):
    a = scenario_file("a.json")
    b_params = dict(PARAMS_CASE1, psi1=0.20, psi2=-0.15)
    b = scenario_file("b.json")
    import json as _json
    import pathlib

    pathlib.Path(b).write_text(_json.dumps({"params": b_params}), encoding="utf-8")
    code, out, _ = run(capsys, "compare", "--scenario", a, "--scenario-b", b)
    assert code == 0
    assert "r_star" in out
    line = next(l for l in out.splitlines() if l.startswith("r_star"))
    assert line.rstrip().endswith("A")


def test_compare_mismatched_preferences_exit_4(scenario_file, capsys):
    a = scenario_file("a.json")
    b_params = dict(PARAMS_CASE1, rho=0.07)
    import json as _json
    import pathlib

    b = scenario_file("b.json")
    pathlib.Path(b).write_text(_json.dumps({"params": b_params}), encoding="utf-8")
    code, _, err = run(capsys, "compare", "--scenario", a, "--scenario-b", b)
    assert code == 4
    assert "rho" in err


def test_trajectory_csv(scenario_file, capsys):
    scn = scenario_file(initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5})
    code, out, _ = run(
        capsys, "trajectory", "--scenario", scn, "--samples", "21"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,z,q,u,v,k,h,c,y1,y2"
    assert lines[-1].startswith("# stop_reason=target_reached")
    rows = [l.split(",") for l in lines[1:-1]]
    assert len(rows) == 21
    z = [float(r[1]) for r in rows]
    assert z[0] == pytest.approx(5.5, rel=1e-6)
    assert z[-1] == pytest.approx(10.725, abs=0.01)
    k = [float(r[5]) for r in rows]
    assert k[0] == pytest.approx(5.5, rel=1e-9)


@pytest.mark.parametrize("samples", ["1", "0", "-5"])
def test_trajectory_rejects_fewer_than_two_samples(scenario_file, capsys, samples):
    scn = scenario_file(initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5})
    code, out, err = run(capsys, "trajectory", "--scenario", scn, "--samples", samples)
    assert code == 2
    assert out == ""
    assert err == f"error: --samples: expected at least 2, got {samples}\n"


def test_trajectory_uses_library_integrator_tolerance(tmp_path, capsys):
    """The footer's t_end is the library saddle path's, at its default rtol."""
    params = bench_params(*CASE_PSI[2])
    z0 = 1.2 * steady_state(params).z_star
    doc = {
        "params": dict(PARAMS_CASE1, psi1=params.psi1, psi2=params.psi2),
        "initial": {"k0": z0, "h0": 1.0, "u0": 0.6, "v0": 0.5},
    }
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "trajectory", "--scenario", str(path))
    assert code == 0
    footer = out.strip().splitlines()[-1]
    assert footer.endswith(f"t_end={_fmt(saddle_path(params, z0).times[-1])}")


def test_trajectory_at_the_balanced_path_is_one_row(scenario_file, capsys):
    """k0 = z* h0 needs no integration: the balanced path's one row, with
    k0 and the levels and outputs it implies, at t = 0."""
    params = bench_params(*CASE_PSI[1])
    ss = steady_state(params)
    h0 = 2.0
    k0 = ss.z_star * h0  # exact: k0 / h0 is z* again
    scn = scenario_file(initial={"k0": k0, "h0": h0, "u0": 0.6, "v0": 0.5})
    code, out, err = run(capsys, "trajectory", "--scenario", scn, "--samples", "21")
    assert code == 0 and err == ""
    h, c = k0 / ss.z_star, ss.q_star * k0
    row = (0.0, ss.z_star, ss.q_star, ss.u_star, ss.v_star, k0, h, c,
           y1_of(k0, h, ss.u_star, ss.v_star, params),
           y2_of(k0, h, ss.u_star, ss.v_star, params))
    assert out == ("t,z,q,u,v,k,h,c,y1,y2\n" + ",".join(map(_fmt, row)) + "\n"
                   "# stop_reason=at_steady_state t_end=0\n")


def test_trajectory_into_a_coordinate_floor_exit_3(scenario_file, capsys):
    """Case 1 from 1.5 z*: the stable manifold runs into a coordinate floor
    before z reaches z0, a typed numeric failure."""
    z0 = 1.5 * steady_state(bench_params(*CASE_PSI[1])).z_star
    scn = scenario_file(initial={"k0": z0, "h0": 1.0, "u0": 0.6, "v0": 0.5})
    code, out, err = run(capsys, "trajectory", "--scenario", scn)
    assert code == 3 and out == ""
    assert err.startswith(f"error: z never crossed {z0} (hit a coordinate floor; ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag", [
    ("trajectory", ("--format", "json")),
    ("trajectory", ("--tol", "1e-9")),
    ("steady", ("--tol", "1e-9")),
])
def test_unknown_flags_are_rejected(scenario_file, command, flag):
    """trajectory always writes CSV at the library tolerance, and the root
    solver has no tolerance to set."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", scenario_file(), *flag])
    assert exc.value.code == 2


def test_trajectory_requires_initial_block(scenario_file, capsys):
    code, _, err = run(capsys, "trajectory", "--scenario", scenario_file())
    assert code == 2
    assert "initial" in err


def test_missing_scenario_file_exit_5(capsys, tmp_path):
    code, _, err = run(capsys, "steady", "--scenario", str(tmp_path / "nope.json"))
    assert code == 5


def test_invalid_scenario_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    bad = {"params": dict(PARAMS_CASE1, eps=0.5)}
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, _, err = run(capsys, "steady", "--scenario", str(path))
    assert code == 2


@pytest.mark.parametrize("command, extra, field", [
    ("steady", {"params": dict(PARAMS_CASE1, A1=math.inf)}, "$.params.A1"),
    ("trajectory", {"initial": {"k0": math.inf, "h0": math.inf, "u0": 0.6,
                                "v0": 0.5}}, "$.initial.k0"),
])
def test_non_finite_scenario_number_exit_2(scenario_file, capsys, command, extra,
                                           field):
    """json reads Infinity; the scenario boundary names the field it sits in."""
    code, _, err = run(capsys, command, "--scenario", scenario_file(**extra))
    assert code == 2
    assert err.startswith(f"error: {field}: ")


def _fresh_python(code: str, *args: str) -> str:
    """stdout of code run in a fresh interpreter that imports this checkout's package."""
    src = Path(cesgrowth.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return out.stdout


def test_cli_imports_without_scipy():
    probe = ("import sys, cesgrowth.cli; print(sorted(m for m in sys.modules"
             " if m == 'scipy' or m.startswith('scipy.')))")
    assert _fresh_python(probe).strip() == "[]"


# Modules a single-economy command does without: numpy, and dataclasses with
# the inspect it imports (the records are named tuples). typing is not
# checked: an interpreter's site may import it before the package does.
NOT_IMPORTED = ("numpy", "dataclasses", "inspect")
NOT_IMPORTED_PROBE = f"print([m for m in {NOT_IMPORTED!r} if m in sys.modules])\n"


def test_import_cesgrowth_loads_no_numpy():
    assert _fresh_python("import sys, cesgrowth\n" + NOT_IMPORTED_PROBE) == "[]\n"


def test_single_economy_commands_load_no_numpy(scenario_file):
    """steady, stability and compare run on Python floats from start to exit,
    and without dataclasses or inspect."""
    path = scenario_file()
    argvs = [
        [command, "--scenario", path, "--format", fmt, *extra]
        for command, extra in (("steady", ()), ("stability", ()),
                               ("compare", ("--scenario-b", path)))
        for fmt in ("table", "csv", "json")
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "from cesgrowth import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = cli.main(argv)\n"
        "    assert code == 0 and out.getvalue(), argv\n"
        + NOT_IMPORTED_PROBE
    )
    assert _fresh_python(probe, json.dumps(argvs)) == "[]\n"


def test_trajectory_loads_no_numpy(scenario_file):
    """trajectory integrates, resamples and prints on Python floats: from an
    ordinary start, from the balanced path and from a start that exits 3."""
    z_star = steady_state(bench_params(*CASE_PSI[1])).z_star
    argvs = [
        ["trajectory", "--scenario",
         scenario_file(f"{name}.json",
                       initial={"k0": k0, "h0": 1.0, "u0": 0.6, "v0": 0.5})]
        for name, k0 in (("ordinary", 0.9 * z_star), ("balanced", z_star),
                         ("floor", 1.5 * z_star))
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "from cesgrowth import cli\n"
        "codes = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(cli.main(argv))\n"
        "print(codes)\n"
        + NOT_IMPORTED_PROBE
    )
    assert _fresh_python(probe, json.dumps(argvs)) == "[0, 0, 3]\n[]\n"


def test_u_star_at_one_exit_3(tmp_path, capsys):
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({"params": U_STAR_AT_ONE}), encoding="utf-8")
    code, _, err = run(capsys, "steady", "--scenario", str(path))
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["steady", "stability"])
def test_kernel_overflow_exit_3(tmp_path, capsys, command):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"params": KERNEL_OVERFLOW}), encoding="utf-8")
    code, _, err = run(capsys, command, "--scenario", str(path))
    assert code == 3
    assert err == "error: no sign change of gap_P before it stops being finite at w = 10\n"


README_INITIAL = {"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5}


@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_sweep_extreme_sigma_rows(scenario_file, capsys, which):
    """A family parameter that overflows is that member's error row."""
    scn = scenario_file(initial=README_INITIAL)
    code, out, err = run(capsys, "sweep", "--scenario", scn, "--grid", "0.002:0.004:2",
                         "--sigma", which)
    assert code == 0 and err == ""
    rows = [line.split(",", 13) for line in out.splitlines()[1:3]]
    sector = 2 if which == "2" else 1
    assert rows[0][13] == f"normalized sector-{sector} parameters overflow at sigma = 0.002"
    assert rows[1][13] == f"alpha{sector} must be in (0,1), got 1.0"


# Step 0.5 from 0.5: sigma = 1 falls in the guard band, and the README
# family has no balanced path (NoBracketError) or one with u* or v* at 1
# (AllocationOutOfRangeError) for most sigma above about 40.
PARITY_GRID = "0.5:1000.5:2001"
STARRED = {"w_star": "w_star", "z_star": "z_star", "u_star": "u_star",
           "v_star": "v_star", "q_star": "q_star", "r_star": "r_star",
           "pi1": "pi1k", "pi2": "pi2k"}


@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_batched_sweep_matches_each_economy_solved_alone(
    scenario_file, capsys, monkeypatch, which
):
    scn = scenario_file(initial=README_INITIAL, baseline={"source": "initial"})
    per_member = []

    def counting(params, *args, **kwargs):
        per_member.append(params)
        return steady_state(params, *args, **kwargs)

    monkeypatch.setattr(cli, "steady_state", counting)
    code, out, err = run(capsys, "sweep", "--scenario", scn, "--grid", PARITY_GRID,
                         "--sigma", which, "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == ",".join(cli._SWEEP_COLUMNS)
    rows = [dict(zip(cli._SWEEP_COLUMNS, line.split(",", 13))) for line in lines[1:-2]]
    assert len(rows) == 2001

    template = ModelParams(**PARAMS_CASE1)
    base = baseline_from_point(template, 5.5, 1.0, 0.6, 0.5)
    solved = errors = 0
    for row in rows:
        sigma = float(row["sigma"])
        if abs(sigma - 1.0) < 1e-3:
            assert row["error"] == "inside sigma=1 guard band"
            continue
        s1 = template.sigma1 if which == "2" else sigma
        s2 = template.sigma2 if which == "1" else sigma
        try:
            member = normalized_params(s1, s2, base, template)
            ss = steady_state(member)
        except CesGrowthError as exc:
            assert row["error"] == str(exc) and not row["alpha"]
            errors += 1
            continue
        solved += 1
        assert row["error"] == ""
        sector2 = which == "2"
        for col, ref in (("alpha", member.alpha2 if sector2 else member.alpha1),
                         ("A", member.A2 if sector2 else member.A1)):
            assert float(row[col]) == pytest.approx(ref, rel=1e-14)
        for col, name in STARRED.items():
            assert float(row[col]) == pytest.approx(getattr(ss, name), rel=1e-12)
        y1 = y1_of(ss.z_star * base.h_bar, base.h_bar, ss.u_star, ss.v_star, member)
        assert float(row["y1_star"]) == pytest.approx(y1, rel=1e-12)
        y2 = base.h_bar * (ss.r_star + member.delta_h)
        assert float(row["y2_star"]) == pytest.approx(y2, rel=1e-12)
    # Only the members the batch could not vouch for went one at a time.
    assert solved > 50 and errors > 50
    assert len(per_member) == errors


def test_sweep_y2_star_is_exact_where_u_star_is_near_one(scenario_file, capsys):
    """y2* = h_bar (r* + delta_h) on the balanced path. At sigma = 54.5 the
    README family has u* and v* one or two ulps below 1, where the 1 - u*
    inside y2_of is rounding noise (0.434 for 0.198)."""
    scn = scenario_file(initial=README_INITIAL)
    code, out, _ = run(capsys, "sweep", "--scenario", scn, "--grid", "54.5:55:2",
                       "--sigma", "both", "--format", "json")
    assert code == 0
    row = json.loads(out)[0]
    assert 1.0 - row["u_star"] < 1e-15
    h_bar = baseline_from_point(ModelParams(**PARAMS_CASE1), 5.5, 1.0, 0.6, 0.5).h_bar
    y2 = h_bar * (row["r_star"] + PARAMS_CASE1["delta_h"])
    assert row["y2_star"] == pytest.approx(y2, rel=1e-15)


def test_sweep_json_rows_keep_their_keys(scenario_file, capsys):
    scn = scenario_file(initial=README_INITIAL)
    code, out, _ = run(capsys, "sweep", "--scenario", scn, "--grid", "0.9995:500.9995:101",
                       "--sigma", "both", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert list(rows[0]) == ["sigma", "error"]
    assert rows[0]["error"] == "inside sigma=1 guard band"
    assert list(rows[1]) == list(cli._SWEEP_COLUMNS[:-1])
    assert list(rows[-1]) == ["sigma", "error"]
    assert rows[-1]["error"].startswith("no sign change of gap_P")


def test_numeric_failure_exit_3(tmp_path, capsys):
    path = tmp_path / "tvc.json"
    bad = {"params": dict(PARAMS_CASE1, A1=0.05, rho=0.001)}
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, _, err = run(capsys, "steady", "--scenario", str(path))
    assert code == 3
    assert "transversality" in err
