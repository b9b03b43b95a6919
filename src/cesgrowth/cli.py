"""Command-line front end: scenario files in, tables and plot data out.

Subcommands: steady | stability | sweep | compare | trajectory.
Exit codes: 0 success, 2 validation, 3 numeric failure, 4 comparison
mismatch, 5 I/O.

Only sweep imports numpy; steady, stability, compare and trajectory run
on Python floats, so their start-up skips numpy's import.
"""

import argparse
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
    baseline_from_point,
    baseline_from_steady_state,
    compare_economies,
    family_parameters,
    normalized_params,
)
from .scenario import Scenario, load_scenario
# eigen4 is unused here, but the benchmark's tracer (perfbench/spans.py)
# wraps it in this namespace and fails if the name is missing.
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


def _fmt(x: float) -> str:
    """Bit-faithful double: 17 significant digits, '.' decimal separator."""
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
            "n_zero": rep.n_zero,
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

    y1* and y2* are the sector outputs at (k, h) = (z* h_bar, h_bar). On the
    balanced path (1 - u*) Y2(w*) = r* + delta_h, so y2* = h_bar (r* + delta_h)
    exactly, with no 1 - u* that rounds away where u* is near 1.
    """
    k_star = ss.z_star * h_bar
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
        y1_of(k_star, h_bar, ss.u_star, ss.v_star, member),
        h_bar * (ss.r_star + member.delta_h),
    )


def _sweep_table(grid, which: str, scn: Scenario, baseline):
    """(values, errors) of a sweep: one row of _SWEEP_COLUMNS[:-1] per sigma.

    The members are solved as one array computation. A member it cannot
    vouch for (family parameters not finite or outside their domain, psi
    rounded to 1 on a sigma above about 9e15, no bracket, no Newton
    convergence, an allocation outside (0,1), a non-positive transversality
    margin) goes once through normalized_params and steady_state, which
    raise its typed error as for a single economy. errors holds the message
    of each member that failed, "" for the others, whose values are then
    nan.
    """
    import numpy as np

    n = len(grid)
    values = np.full((n, len(_SWEEP_COLUMNS) - 1), np.nan)
    values[:, 0] = grid
    errors = [""] * n
    params = scn.params
    sigma1 = grid if which != "2" else np.full(n, params.sigma1)
    sigma2 = grid if which != "1" else np.full(n, params.sigma2)
    in_guard = np.abs(grid - 1.0) < SIGMA_GUARD
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
        if in_guard[i]:
            errors[i] = "inside sigma=1 guard band"
            continue
        try:
            member = normalized_params(
                float(sigma1[i]), float(sigma2[i]), baseline, params
            )
            ss = steady_state(member)
            values[i, 1:] = _sweep_columns(member, ss, which, baseline.h_bar)
        except CesGrowthError as exc:
            errors[i] = str(exc)
    return values, errors


def _monotone_summary(values, errors) -> str:
    import numpy as np

    ok = values[[not e for e in errors]]
    inc, dec = [], []
    if len(ok) >= 2:
        diffs = np.diff(ok, axis=0)
        for j, col in enumerate(_SWEEP_COLUMNS[:-1]):
            if np.all(diffs[:, j] > 0):
                inc.append(col)
            elif np.all(diffs[:, j] < 0):
                dec.append(col)
    return (
        f"# monotone_increasing: {','.join(inc)}\n"
        f"# monotone_decreasing: {','.join(dec)}\n"
    )


def cmd_sweep(args) -> int:
    import numpy as np

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
    values, errors = _sweep_table(np.linspace(lo, hi, n), which, scn, baseline)

    fmt = args.format or scn.output_format
    if fmt == "json":
        rows = [
            {"sigma": row[0], "error": err} if err else dict(zip(_SWEEP_COLUMNS, row))
            for row, err in zip(values.tolist(), errors)
        ]
        _write(json.dumps(rows, indent=2) + "\n", args.out)
        return 0
    solved_row = "%.17g," * (len(_SWEEP_COLUMNS) - 1)
    error_cells = "," * (len(_SWEEP_COLUMNS) - 1)
    lines = [",".join(_SWEEP_COLUMNS)]
    lines += [
        _fmt(row[0]) + error_cells + err if err else solved_row % tuple(row)
        for row, err in zip(values.tolist(), errors)
    ]
    _write("\n".join(lines) + "\n" + _monotone_summary(values, errors), args.out)
    return 0


def cmd_compare(args) -> int:
    scn_a = load_scenario(args.scenario)
    scn_b = load_scenario(args.scenario_b)
    table = compare_economies(scn_a.params, scn_b.params)
    fmt = args.format or scn_a.output_format
    if fmt == "json":
        doc = [
            {"name": r.name, "a": r.value_a, "b": r.value_b, "dominant": r.dominant}
            for r in table.rows
        ]
        _write(json.dumps(doc, indent=2) + "\n", args.out)
    elif fmt == "csv":
        lines = ["name,a,b,dominant"]
        lines += [
            f"{r.name},{_fmt(r.value_a)},{_fmt(r.value_b)},{r.dominant}"
            for r in table.rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"{'quantity':<10} {'A':>16} {'B':>16}  dominant"]
        lines += [
            f"{r.name:<10} {r.value_a:>16.10g} {r.value_b:>16.10g}  {r.dominant}"
            for r in table.rows
        ]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _resample(times, rows, n: int) -> tuple:
    """(times, rows) of n samples evenly spaced from times[0] to times[-1]
    on the piecewise-linear path through (times, rows).

    The sample times are numpy.linspace's, i * step + start with the last
    one stop, and each value follows numpy.interp's formula
    slope * (t - t_j) + row_j, or is row_j where t equals t_j.
    """
    start, stop = times[0], times[-1]
    step = (stop - start) / (n - 1)
    out_times = [i * step + start for i in range(n - 1)] + [stop]
    out_rows, j, last = [], 0, len(times) - 1
    for t in out_times:
        while j < last and times[j + 1] <= t:
            j += 1
        if j == last or t == times[j]:
            out_rows.append(rows[j])
        else:
            t0, t1 = times[j], times[j + 1]
            out_rows.append([(b - a) / (t1 - t0) * (t - t0) + a
                             for a, b in zip(rows[j], rows[j + 1])])
    return out_times, out_rows


def cmd_trajectory(args) -> int:
    from . import dynamics

    if args.samples < 2:
        raise ScenarioError(f"expected at least 2, got {args.samples}",
                            field="--samples")
    scn = load_scenario(args.scenario)
    if scn.initial is None:
        raise ScenarioError("trajectory needs an initial block", field="$.initial")
    k0, h0 = scn.initial["k0"], scn.initial["h0"]
    z0 = k0 / h0
    path = dynamics.saddle_path(scn.params, z0)
    if len(path) > 1:
        path = dynamics.Trajectory(
            *_resample(path.time_rows, path.state_rows, args.samples), meta=path.meta
        )
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
    p.add_argument("--samples", type=int, default=201)
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
