"""The sweep's CSV cells: byte for byte those of the per-row "%.17g" writer.

csvrows writes the cells of solved rows with an integer kernel on arrays
and falls back to Python's "%.17g" for cells outside its range. These
tests hold its bytes to the former writer (oracles.sweep_csv) on whole
sweeps, and to "%.17g," on single doubles, and its memory to the former
writer's.
"""

import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.workloads import sweep_grid  # noqa: E402

from cesgrowth import cli, csvrows  # noqa: E402
from cesgrowth.scenario import parse_scenario  # noqa: E402

from oracles import sweep_csv  # noqa: E402
from test_cli import PARAMS_CASE1, PARITY_GRID, README_INITIAL  # noqa: E402


def readme_scenario(tmp_path, baseline=True) -> str:
    doc = {"params": PARAMS_CASE1, "initial": README_INITIAL}
    if baseline:
        doc["baseline"] = {"source": "initial"}
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def sweep_against_oracle(capsys, monkeypatch, *argv):
    """(output, the former writer's text on the same table) of one sweep."""
    tables = []
    solve = cli._sweep_table

    def spy(*args):
        tables.append(solve(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "_sweep_table", spy)
    code = cli.main(["sweep", *argv, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    (values, errors), = tables
    return captured.out, sweep_csv(values, errors) + cli._monotone_summary(values, errors)


@pytest.mark.parametrize("phase", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_benchmark_grid_sweeps_match_the_former_writer(tmp_path, capsys, monkeypatch,
                                                       which, phase):
    """The README family on the benchmark's 1 000-point grids, two of whose
    members fall in the sigma = 1 guard band."""
    out, expected = sweep_against_oracle(
        capsys, monkeypatch, "--scenario", readme_scenario(tmp_path),
        "--grid", sweep_grid(phase), "--sigma", which)
    assert out.count("inside sigma=1 guard band") == 2
    assert out == expected


@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_parity_grid_sweeps_match_the_former_writer(tmp_path, capsys, monkeypatch, which):
    """2 001 members: solved rows between NoBracketError and
    AllocationOutOfRangeError rows."""
    out, expected = sweep_against_oracle(
        capsys, monkeypatch, "--scenario", readme_scenario(tmp_path),
        "--grid", PARITY_GRID, "--sigma", which)
    assert "no sign change of gap_P" in out and "allocations out of range" in out
    assert out == expected


@pytest.mark.parametrize("grid", ["0.002:0.004:2", "1.5:2.0:1"])
@pytest.mark.parametrize("which", ["1", "2", "both"])
def test_small_sweeps_match_the_former_writer(tmp_path, capsys, monkeypatch, which, grid):
    """test_sweep_extreme_sigma_rows' grid, all error rows, and one member."""
    out, expected = sweep_against_oracle(
        capsys, monkeypatch, "--scenario", readme_scenario(tmp_path, baseline=False),
        "--grid", grid, "--sigma", which)
    assert out == expected


OUT_OF_RANGE = [0.0, -0.0, 1e-300, 1e300, -1e300, 5e-324, -2.2250738585072014e-308,
                9.9999999999999991e-05, 1e15, -1e15, 1.7976931348623157e308,
                math.inf, -math.inf, math.nan]


def test_cells_outside_the_kernels_range_match_the_former_writer(tmp_path, capsys,
                                                                 monkeypatch):
    """A table of the kernel's fallback cells among ordinary and negative
    ones, with error rows between them."""
    rng = np.random.default_rng(27)
    values = rng.uniform(-2.0, 2.0, (40, len(cli._SWEEP_COLUMNS) - 1))
    values[:, 0] = np.linspace(0.5, 2.0, 40)
    cells = values[:, 1:].reshape(-1)
    cells[rng.choice(cells.size, len(OUT_OF_RANGE), replace=False)] = OUT_OF_RANGE
    cells[::7] *= -1e-4
    errors = [""] * 40
    for i in (0, 17, 18, 39):
        values[i, 1:] = math.nan
        errors[i] = f"failure {i}"
    monkeypatch.setattr(cli, "_sweep_table", lambda *args: (values, errors))
    code = cli.main(["sweep", "--scenario", readme_scenario(tmp_path), "--grid",
                     "0.5:2.0:40", "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == (sweep_csv(values, errors)
                                       + cli._monotone_summary(values, errors))


def cell_lines(xs):
    return csvrows.rows_text(np.array(xs, dtype=float).reshape(-1, 1), {}).splitlines()


# Every power of ten from 1e-5 to 1e17 and its two neighbouring doubles.
POWERS = [y for k in range(-5, 18)
          for y in (math.nextafter(10.0**k, 0.0), 10.0**k, math.nextafter(10.0**k, math.inf))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(1e-4, 1e15), st.floats(-1e15, -1e-4)),
                min_size=1, max_size=60))
@example(POWERS)
@example([-x for x in POWERS])
def test_each_cell_is_percent_17g(xs):
    """Whatever the double, subnormals and -0.0 included, the kernel writes
    the bytes of "%.17g,"."""
    assert cell_lines(xs) == ["%.17g," % x for x in xs]


def test_cells_match_percent_17g_on_random_doubles_and_ties():
    """200 000 doubles drawn by bit pattern over the kernel's range, either
    sign, and 1 000 exact ties of the 17th digit in each decade k from -4
    to 14, which "%.17g" rounds to even: odd multiples of 2**(k - 17), which
    10**(16 - k) takes to odd multiples of 1/2."""
    rng = np.random.default_rng(2027)
    lo, hi = np.array([1e-4, 1e15]).view(np.int64)
    xs = rng.integers(lo, hi, 200_000).view(np.float64) * rng.choice([-1.0, 1.0], 200_000)
    ties = np.concatenate([
        (2 * rng.integers(10.0**k / 2.0**(k - 16), 10.0**(k + 1) / 2.0**(k - 16), 1000) + 1)
        * 2.0**(k - 17)
        for k in range(-4, 15)
    ])
    for batch in (xs, ties):
        assert cell_lines(batch) == ["%.17g," % x for x in batch.tolist()]


def readme_table(n):
    scn = parse_scenario({"params": PARAMS_CASE1, "initial": README_INITIAL,
                          "baseline": {"source": "initial"}})
    return cli._sweep_table(np.linspace(0.5, 2.0, n), "1", scn, cli._sweep_baseline(scn))


def traced_peak(write, *args) -> int:
    tracemalloc.start()
    try:
        write(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_peak_memory_is_at_most_the_former_writers():
    """The README family's 20 000-member table: the writer works on blocks of
    rows, so its temporaries stay bounded, and its traced peak, output
    included, is at most that of the per-row writer."""
    values, errors = readme_table(20_000)
    failed = {i: "x\n" for i, err in enumerate(errors) if err}
    assert failed
    assert traced_peak(csvrows.rows_text, values, failed) <= traced_peak(sweep_csv, values,
                                                                         errors)
