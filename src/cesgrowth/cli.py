"""Command-line front end: scenario files in, tables and plot data out.

Subcommands: steady | stability | sweep | compare | trajectory.
Exit codes: 0 success, 2 validation, 3 numeric failure, 4 comparison
mismatch, 5 I/O.
"""

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .core import y1_of, y2_of
from .dynamics import reconstruct_levels, saddle_path
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
    normalized_params,
)
from .scenario import Scenario, load_scenario
from .stability import eigen4, stability_report
from .steady import steady_state

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
    return [(f.name, getattr(ss, f.name)) for f in fields(ss)]


def cmd_steady(args) -> int:
    scn = load_scenario(args.scenario)
    ss = steady_state(scn.params, tol=args.tol)
    fmt = args.format or scn.output_format
    _write(_render_kv(_steady_pairs(ss), fmt), args.out)
    return 0


def cmd_stability(args) -> int:
    if args.eigen_diag is not None:
        # Debug fixture: eigenvalues of a diagonal matrix, bypassing the model.
        diag = [float(t) for t in args.eigen_diag.split(",")]
        if len(diag) != 4:
            raise ScenarioError("expected 4 comma-separated values", field="--eigen-diag")
        ev = eigen4(np.diag(diag))
        _write("".join(f"{e.real:.17g},{e.imag:.17g}\n" for e in ev), args.out)
        return 0
    if args.scenario is None:
        raise ScenarioError("missing --scenario", field="--scenario")
    scn = load_scenario(args.scenario)
    rep = stability_report(scn.params)
    fmt = args.format or scn.output_format
    if fmt == "json":
        doc = {
            "classification": rep.classification,
            "n_stable": rep.n_stable,
            "n_zero": rep.n_zero,
            "eigenvalues": [[e.real, e.imag] for e in rep.eigenvalues],
            "jacobian": rep.jacobian.tolist(),
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
            [_fmt(x) for x in rep.jacobian.ravel()]
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


def _sweep_row(sigma, which, scn, baseline):
    values = {"sigma": sigma}
    if abs(sigma - 1.0) < SIGMA_GUARD:
        values["error"] = "inside sigma=1 guard band"
        return values
    try:
        params = scn.params
        if which == "1":
            s1, s2 = sigma, params.sigma2
        elif which == "2":
            s1, s2 = params.sigma1, sigma
        else:
            s1 = s2 = sigma
        member = normalized_params(s1, s2, baseline, params)
        ss = steady_state(member)
        h_bar = baseline.h_bar
        k_star = ss.z_star * h_bar
        values.update(
            alpha=member.alpha2 if which == "2" else member.alpha1,
            A=member.A2 if which == "2" else member.A1,
            w_star=ss.w_star,
            z_star=ss.z_star,
            u_star=ss.u_star,
            v_star=ss.v_star,
            q_star=ss.q_star,
            r_star=ss.r_star,
            pi1=ss.pi1k,
            pi2=ss.pi2k,
            y1_star=y1_of(k_star, h_bar, ss.u_star, ss.v_star, member),
            y2_star=y2_of(k_star, h_bar, ss.u_star, ss.v_star, member),
        )
    except CesGrowthError as exc:
        values["error"] = str(exc)
    return values


def _monotone_summary(rows) -> str:
    ok_rows = [r for r in rows if "error" not in r]
    inc, dec = [], []
    for col in _SWEEP_COLUMNS[:-1]:
        series = [r[col] for r in ok_rows if col in r]
        if len(series) < 2:
            continue
        diffs = np.diff(series)
        if np.all(diffs > 0):
            inc.append(col)
        elif np.all(diffs < 0):
            dec.append(col)
    return (
        f"# monotone_increasing: {','.join(inc)}\n"
        f"# monotone_decreasing: {','.join(dec)}\n"
    )


def cmd_sweep(args) -> int:
    scn = load_scenario(args.scenario)
    which = args.sigma or (scn.sweep.sigma if scn.sweep else "1")
    if args.grid is not None:
        try:
            lo_s, hi_s, n_s = args.grid.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
        except ValueError:
            raise ScenarioError("expected lo:hi:n", field="--grid") from None
        if not (lo > 0 and hi > lo and n >= 1):
            raise ScenarioError(f"invalid grid [{lo}, {hi}] n={n}", field="--grid")
    elif scn.sweep is not None:
        lo, hi, n = scn.sweep.lo, scn.sweep.hi, scn.sweep.n
    else:
        raise ScenarioError("no sweep spec in scenario and no --grid given",
                            field="$.sweep")
    baseline = _sweep_baseline(scn)
    grid = np.linspace(lo, hi, n)

    rows = [_sweep_row(s, which, scn, baseline) for s in grid]

    fmt = args.format or scn.output_format
    if fmt == "json":
        _write(json.dumps(rows, indent=2) + "\n", args.out)
        return 0
    lines = [",".join(_SWEEP_COLUMNS)]
    for row in rows:
        cells = []
        for col in _SWEEP_COLUMNS:
            if col == "error":
                cells.append(row.get("error", ""))
            elif col in row:
                cells.append(_fmt(row[col]))
            else:
                cells.append("")
        lines.append(",".join(cells))
    _write("\n".join(lines) + "\n" + _monotone_summary(rows), args.out)
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


def cmd_trajectory(args) -> int:
    scn = load_scenario(args.scenario)
    if scn.initial is None:
        raise ScenarioError("trajectory needs an initial block", field="$.initial")
    k0, h0 = scn.initial["k0"], scn.initial["h0"]
    z0 = k0 / h0
    traj = saddle_path(scn.params, z0)
    if len(traj) > 1 and args.samples >= 2:
        times = np.linspace(traj.times[0], traj.times[-1], args.samples)
        states = np.column_stack(
            [np.interp(times, traj.times, traj.states[:, i]) for i in range(4)]
        )
        traj.times, traj.states = times, states
    traj = reconstruct_levels(traj, k0, scn.params)

    header = ["t", "z", "q", "u", "v", "k", "h", "c", "y1", "y2"]
    lines = [",".join(header)]
    for i in range(len(traj)):
        z, q, u, v = traj.states[i]
        k, h, c = traj.levels[i]
        # The stable manifold can pass through allocations outside [0, 1],
        # where one sector's input bundle is not defined; report nan there.
        y1 = y1_of(k, h, u, v, scn.params) if u > 0.0 and v > 0.0 else math.nan
        y2 = y2_of(k, h, u, v, scn.params) if u < 1.0 and v < 1.0 else math.nan
        lines.append(",".join(_fmt(x) for x in (traj.times[i], z, q, u, v, k, h, c,
                                                y1, y2)))
    lines.append(
        f"# stop_reason={traj.meta['stop_reason']} t_end={_fmt(traj.times[-1])}"
    )
    _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cesgrowth",
        description="Two-sector CES endogenous growth laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_required=True):
        p.add_argument("--scenario", required=scenario_required,
                       help="path to a scenario JSON file")
        p.add_argument("--format", choices=("table", "csv", "json"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("steady", help="balanced-growth-path quantities")
    common(p)
    p.add_argument("--tol", type=float, default=1e-12, help="root-solver tolerance")
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("stability", help="Jacobian, eigenvalues, classification")
    common(p, scenario_required=False)
    p.add_argument("--eigen-diag", default=None, help=argparse.SUPPRESS)
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
