"""Command-line front end: scenario files in, tables and plot data out.

Subcommands: steady | stability | sweep | compare | trajectory.
Exit codes: 0 success, 2 validation, 3 numeric failure, 4 comparison
mismatch, 5 I/O.

steady, stability, compare and trajectory run on Python floats, and so
does a sweep of fewer than FAMILY_MIN members, so their start-up skips
numpy's import. Only a larger sweep imports numpy and csvrows, its CSV
writer.
"""

import argparse
import functools
import json
import math
import sys

from .core import y1_of, y2_of
from .errors import (
    BaselineMismatchError,
    CesGrowthError,
    ParameterError,
    ScenarioError,
)
from .normalization import (
    SIGMA_GUARD,
    balanced_outputs,
    baseline_from_point,
    baseline_from_steady_state,
    compare_economies,
    family_parameters,
    normalized_params,
)
from .scenario import Scenario, load_scenario
# Nothing here calls eigen4: stability_report calls it through stability's
# binding. The benchmark's tracer (perfbench/spans.py) wraps the name in
# both namespaces and fails if it is missing from either.
from .stability import eigen4, stability_report  # noqa: F401
from .steady import closed_forms, solve_w, steady_state

_SWEEP_COLUMNS = (
    "sigma",
    "alpha",
    "A",
    "w_star",
    "z_star",
    "u_star",
    "v_star",
    "q_star",
    "r_star",
    "pi1",
    "pi2",
    "y1_star",
    "y2_star",
    "error",
)
# A sweep of at least this many members is solved as one array computation
# and written by csvrows; a smaller one runs member by member on Python
# floats, without importing numpy. In process, with numpy loaded, a sweep of
# the README family took about as long both ways at 20 to 30 members, half
# as long on floats at 9 and twice as long at 50; a fresh process also pays
# about 0.1 s for numpy's import.
FAMILY_MIN = 20
_NAN_CELLS = (math.nan,) * (len(_SWEEP_COLUMNS) - 2)
_SOLVED_ROW = "%.17g," * (len(_SWEEP_COLUMNS) - 1) + "\n"


def _fmt(x: float) -> str:
    """Bit-faithful double: the bytes of "%.17g", 17 significant digits and a
    '.' decimal separator. The cells of a sweep's solved CSV rows are the
    same bytes: "%.17g," one row at a time below FAMILY_MIN members, and
    csvrows' kernel for the whole table from there on."""
    return format(float(x), ".17g")


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _render_kv(pairs, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({k: float(v) for k, v in pairs}, indent=2) + "\n"
    if fmt == "csv":
        header = ",".join(k for k, _ in pairs)
        row = ",".join(_fmt(v) for _, v in pairs)
        return header + "\n" + row + "\n"
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k:<{width}}  {v:.10g}\n" for k, v in pairs)


def _steady_pairs(ss):
    return list(zip(ss._fields, ss))


def cmd_steady(args) -> int:
    scn = load_scenario(args.scenario)
    ss = steady_state(scn.params)
    fmt = args.format or scn.output_format
    _write(_render_kv(_steady_pairs(ss), fmt), args.out)
    return 0


def cmd_stability(args) -> int:
    scn = load_scenario(args.scenario)
    rep = stability_report(scn.params)
    fmt = args.format or scn.output_format
    if fmt == "json":
        doc = {
            "classification": rep.classification,
            "n_stable": rep.n_stable,
            "eigenvalues": [[e.real, e.imag] for e in rep.eigenvalues],
            "jacobian": [list(row) for row in rep.jacobian],
            "steady": {k: float(v) for k, v in _steady_pairs(rep.steady)},
        }
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    elif fmt == "csv":
        header = (
            [f"j{i}{j}" for i in range(1, 5) for j in range(1, 5)]
            + [f"ev{i}_{part}" for i in range(1, 5) for part in ("re", "im")]
            + ["classification"]
        )
        row = (
            [_fmt(x) for row in rep.jacobian for x in row]
            + [_fmt(p) for e in rep.eigenvalues for p in (e.real, e.imag)]
            + [rep.classification]
        )
        _write(",".join(header) + "\n" + ",".join(row) + "\n", args.out)
    else:
        lines = [f"classification  {rep.classification}"]
        lines.append(
            "eigenvalues     "
            + "  ".join(
                f"{e.real:.6g}{e.imag:+.6g}j" if e.imag else f"{e.real:.6g}"
                for e in rep.eigenvalues
            )
        )
        lines.append("jacobian (rows z, q, u, v):")
        for row in rep.jacobian:
            lines.append("  " + "  ".join(f"{x:12.6g}" for x in row))
        lines.append("steady state:")
        for k, v in _steady_pairs(rep.steady):
            lines.append(f"  {k:<10}  {v:.10g}")
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _sweep_baseline(scn: Scenario):
    if scn.baseline_source == "initial":
        ini = scn.initial
        return baseline_from_point(
            scn.params, ini["k0"], ini["h0"], ini["u0"], ini["v0"]
        )
    return baseline_from_steady_state(
        scn.params, k_bar=scn.baseline_k_bar if scn.baseline_k_bar else 1.0
    )


def _sweep_columns(member, ss, which: str, h_bar: float) -> tuple:
    """The columns alpha..y2_star of solved members: floats, or arrays of them.
    y1* and y2* are the sector outputs at (k, h) = (z* h_bar, h_bar)."""
    return (
        member.alpha2 if which == "2" else member.alpha1,
        member.A2 if which == "2" else member.A1,
        ss.w_star,
        ss.z_star,
        ss.u_star,
        ss.v_star,
        ss.q_star,
        ss.r_star,
        ss.pi1k,
        ss.pi2k,
        *balanced_outputs(ss, h_bar, member),
    )


def _sweep_row(sigma: float, which: str, scn: Scenario, baseline) -> tuple:
    """(values, error) of the member at sigma: its row of _SWEEP_COLUMNS[:-1]
    and "", or sigma, nan in the other columns and the message of the typed
    error that normalized_params or steady_state raises for it, as for a
    single economy."""
    if abs(sigma - 1.0) < SIGMA_GUARD:
        return (sigma, *_NAN_CELLS), "inside sigma=1 guard band"
    params = scn.params
    try:
        member = normalized_params(sigma if which != "2" else params.sigma1,
                                   sigma if which != "1" else params.sigma2,
                                   baseline, params)
        ss = steady_state(member)
    except CesGrowthError as exc:
        return (sigma, *_NAN_CELLS), str(exc)
    return (sigma, *_sweep_columns(member, ss, which, baseline.h_bar)), ""


def _float_grid(lo: float, hi: float, n: int) -> list:
    """np.linspace(lo, hi, n) on floats, bit for bit: i * step + lo, the last
    point hi, and numpy's (i / (n - 1)) * (hi - lo) + lo where step underflows."""
    if n == 1:
        return [lo]
    delta, div = hi - lo, n - 1
    step = delta / div
    return [(i * step if step else i / div * delta) + lo for i in range(div)] + [hi]


def _sweep_table(lo: float, hi: float, n: int, which: str, scn: Scenario, baseline):
    """(values, errors) of a sweep over n sigmas from lo to hi, as
    np.linspace spaces them: one row of _SWEEP_COLUMNS[:-1] per sigma.
    errors holds the message of each member that failed, "" for the
    others, whose values are then nan.

    A row is _sweep_row's. Below FAMILY_MIN members values is a list of
    them, one member at a time on Python floats. From FAMILY_MIN on it is
    an array, and the members are solved as one array computation. A
    member that computation cannot vouch for (family parameters not finite
    or outside their domain, psi rounded to 1 on a sigma above about 9e15,
    no bracket, no Newton convergence, an allocation outside (0,1), a
    non-positive transversality margin) goes through _sweep_row.
    """
    if n < FAMILY_MIN:
        rows = [_sweep_row(sigma, which, scn, baseline) for sigma in _float_grid(lo, hi, n)]
        return [values for values, _ in rows], [error for _, error in rows]
    import numpy as np

    grid = np.linspace(lo, hi, n)
    values = np.full((n, len(_SWEEP_COLUMNS) - 1), np.nan)
    values[:, 0] = grid
    errors = [""] * n
    params = scn.params
    sigma1 = grid if which != "2" else np.full(n, params.sigma1)
    sigma2 = grid if which != "1" else np.full(n, params.sigma2)
    idx = np.flatnonzero(
        (np.abs(sigma1 - 1.0) >= SIGMA_GUARD) & (np.abs(sigma2 - 1.0) >= SIGMA_GUARD)
    )
    with np.errstate(all="ignore"):
        for sector, sigma in ((1, sigma1), (2, sigma2)):
            psi, alpha, A = family_parameters(sigma[idx], baseline, sector)
            idx = idx[(psi < 1.0) & (0.0 < alpha) & (alpha < 1.0)
                      & (0.0 < A) & (A < np.inf)]
        member = normalized_params(sigma1[idx], sigma2[idx], baseline, params)
        ss = closed_forms(solve_w(member), member)
        solved = (
            (0.0 < ss.u_star) & (ss.u_star < 1.0)
            & (0.0 < ss.v_star) & (ss.v_star < 1.0)
            & (ss.tvc_margin > 0.0)
        )
        columns = _sweep_columns(member, ss, which, baseline.h_bar)
    values[idx[solved], 1:] = np.column_stack(columns)[solved]
    flagged = np.ones(n, dtype=bool)
    flagged[idx[solved]] = False
    for i in np.flatnonzero(flagged):
        values[i], errors[i] = _sweep_row(float(grid[i]), which, scn, baseline)
    return values, errors


def _monotone_summary(values, errors) -> str:
    """The footer: the columns that rise, and those that fall, strictly from
    each solved row to the next, where at least two rows solved. A table
    below FAMILY_MIN rows is compared on floats, a larger one with numpy."""
    if len(values) < FAMILY_MIN:
        ok = [row for row, err in zip(values, errors) if not err]
        columns = list(zip(*ok))
        rising = [all(a < b for a, b in zip(c, c[1:])) for c in columns]
        falling = [all(a > b for a, b in zip(c, c[1:])) for c in columns]
    else:
        import numpy as np

        ok = values[[not e for e in errors]]
        diffs = np.diff(ok, axis=0)
        rising, falling = (diffs > 0).all(axis=0), (diffs < 0).all(axis=0)
    inc, dec = [], []
    if len(ok) >= 2:
        inc = [col for col, up in zip(_SWEEP_COLUMNS, rising) if up]
        dec = [col for col, down in zip(_SWEEP_COLUMNS, falling) if down]
    return (
        f"# monotone_increasing: {','.join(inc)}\n"
        f"# monotone_decreasing: {','.join(dec)}\n"
    )


def _rows_text(values, failed) -> str:
    """Each row i of values as its cells "%.17g," and a newline, or failed[i]
    in place of the row where failed has it: one row at a time below
    FAMILY_MIN rows, by csvrows' array kernel from there on."""
    if len(values) < FAMILY_MIN:
        return "".join(failed.get(i) or _SOLVED_ROW % row for i, row in enumerate(values))
    from .csvrows import rows_text

    return rows_text(values, failed)


def cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    which = args.sigma or (scn.sweep.sigma if scn.sweep else "1")
    if args.grid is not None:
        try:
            lo_s, hi_s, n_s = args.grid.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ScenarioError("expected lo:hi:n", field="--grid") from None
        if not (0 < lo < hi < math.inf and n >= 1):
            raise ScenarioError(f"invalid grid [{lo}, {hi}] n={n}", field="--grid")
    elif scn.sweep is not None:
        lo, hi, n = scn.sweep.lo, scn.sweep.hi, scn.sweep.n
    else:
        raise ScenarioError("no sweep spec in scenario and no --grid given",
                            field="$.sweep")
    baseline = _sweep_baseline(scn)
    values, errors = _sweep_table(lo, hi, n, which, scn, baseline)

    fmt = args.format or scn.output_format
    if fmt == "json":
        rows = [
            {"sigma": row[0], "error": err} if err else dict(zip(_SWEEP_COLUMNS, row))
            for row, err in zip(values if n < FAMILY_MIN else values.tolist(), errors)
        ]
        _write(json.dumps(rows, indent=2) + "\n", args.out)
        return 0
    error_cells = "," * (len(_SWEEP_COLUMNS) - 1)
    failed = {
        i: _fmt(values[i][0]) + error_cells + err + "\n"
        for i, err in enumerate(errors) if err
    }
    _write(",".join(_SWEEP_COLUMNS) + "\n" + _rows_text(values, failed)
           + _monotone_summary(values, errors), args.out)
    return 0


def cmd_compare(args) -> int:
    scn_a = load_scenario(args.scenario)
    scn_b = load_scenario(args.scenario_b)
    rows = compare_economies(scn_a.params, scn_b.params)
    fmt = args.format or scn_a.output_format
    if fmt == "json":
        doc = [
            {"name": r.name, "a": r.value_a, "b": r.value_b, "dominant": r.dominant}
            for r in rows
        ]
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    elif fmt == "csv":
        lines = ["name,a,b,dominant"]
        lines += [
            f"{r.name},{_fmt(r.value_a)},{_fmt(r.value_b)},{r.dominant}"
            for r in rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{'quantity':<10} {'A':>16} {'B':>16}  dominant"]
        lines += [
            f"{r.name:<10} {r.value_a:>16.10g} {r.value_b:>16.10g}  {r.dominant}"
            for r in rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_trajectory(args) -> int:
    from . import dynamics

    scn = load_scenario(args.scenario)
    if scn.initial is None:
        raise ScenarioError("trajectory needs an initial block", field="$.initial")
    k0, h0 = scn.initial["k0"], scn.initial["h0"]
    path = dynamics.saddle_path(scn.params, k0 / h0)
    traj = dynamics.reconstruct_levels(path, k0, scn.params)

    header = ["t", "z", "q", "u", "v", "k", "h", "c", "y1", "y2"]
    lines = [",".join(header)]
    for t, (z, q, u, v), (k, h, c) in zip(traj.time_rows, traj.state_rows,
                                          traj.level_rows):
        # The stable manifold can pass through allocations outside [0, 1],
        # where one sector's input bundle is not defined; report nan there.
        y1 = y1_of(k, h, u, v, scn.params) if u > 0.0 and v > 0.0 else math.nan
        y2 = y2_of(k, h, u, v, scn.params) if u < 1.0 and v < 1.0 else math.nan
        lines.append(",".join(_fmt(x) for x in (t, z, q, u, v, k, h, c, y1, y2)))
    lines.append(
        f"# stop_reason={traj.meta['stop_reason']} t_end={_fmt(traj.time_rows[-1])}"
    )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def __getattr__(name):
    """saddle_path and reconstruct_levels, from dynamics on first use (PEP 562).

    The benchmark's tracer (perfbench/spans.py) wraps them in this
    namespace. Importing dynamics only when they are asked for spares the
    commands that integrate no path compiling it at start-up, which they
    do on every start when no bytecode cache is written.
    """
    if name in ("saddle_path", "reconstruct_levels"):
        from . import dynamics

        return getattr(dynamics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Built once per process: the parser holds no state between parse_args calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesgrowth",
        description="Two-sector CES endogenous growth laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="path to a scenario JSON file")
        p.add_argument("--format", choices=("table", "csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("steady", help="balanced-growth-path quantities")
    common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("stability", help="Jacobian, eigenvalues, classification")
    common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("sweep", help="comparative statics over an elasticity grid")
    common(p)
    p.add_argument("--grid", default=None, metavar="lo:hi:n")
    p.add_argument("--sigma", choices=("1", "2", "both"), default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="side-by-side steady states of two economies")
    common(p)
    p.add_argument("--scenario-b", required=True,
                   help="path to the second scenario JSON file")
    p.set_defaults(func=cmd_compare)

    # trajectory always writes CSV, so it takes no --format.
    p = sub.add_parser("trajectory", help="saddle-path trajectory with levels")
    p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_trajectory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BaselineMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ScenarioError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CesGrowthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
