"""End-to-end command-line checks, run in process via main(argv)."""

import json

import numpy as np
import pytest

from cesgrowth import saddle_path, steady_state
from cesgrowth.cli import _fmt, main

from conftest import CASE_PSI, U_STAR_AT_ONE, bench_params

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


def test_stability_eigen_diag_fixture(capsys):
    code, out, _ = run(capsys, "stability", "--eigen-diag", "4,-1,2.5,0")
    assert code == 0
    reals = [float(line.split(",")[0]) for line in out.strip().splitlines()]
    assert reals == [-1.0, 0.0, 2.5, 4.0]


def test_stability_requires_scenario_or_fixture(capsys):
    code, _, err = run(capsys, "stability")
    assert code == 2
    assert "scenario" in err


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


@pytest.mark.parametrize("flag", [("--format", "json"), ("--tol", "1e-9")])
def test_trajectory_rejects_unused_flags(scenario_file, flag):
    """trajectory always writes CSV at the library tolerance."""
    with pytest.raises(SystemExit) as exc:
        main(["trajectory", "--scenario", scenario_file(), *flag])
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


def test_u_star_at_one_exit_3(tmp_path, capsys):
    path = tmp_path / "corner.json"
    path.write_text(json.dumps({"params": U_STAR_AT_ONE}), encoding="utf-8")
    code, _, err = run(capsys, "steady", "--scenario", str(path))
    assert code == 3
    assert err.startswith("error:") and "Traceback" not in err


def test_numeric_failure_exit_3(tmp_path, capsys):
    path = tmp_path / "tvc.json"
    bad = {"params": dict(PARAMS_CASE1, A1=0.05, rho=0.001)}
    path.write_text(json.dumps(bad), encoding="utf-8")
    code, _, err = run(capsys, "steady", "--scenario", str(path))
    assert code == 3
    assert "transversality" in err
