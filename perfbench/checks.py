"""Checks of cesgrowth's outputs against the independent model and the paper.

Each check takes outputs already parsed into plain numbers and returns the
list of problems it found; an empty list means the output passed. Where
an output shows one of the program's known faults, the check names the
fault's cause instead, so that a run counts it as failed under that cause.
"""

import math

import numpy as np

from . import model as M
from . import paper

# Causes of the failures the workloads keep on fixed inputs.
GUARD_BAND = "guard_band"
DEGENERATE_LABEL = "degenerate_label"
STIFF_SPECTRUM = "stiff_spectrum"
INFEASIBLE_PATH = "infeasible_path"
TARGET_NOT_REACHED = "target_not_reached"

GUARD_MESSAGE = "inside sigma=1 guard band"
SIGMA_GUARD = 1e-3
ZERO_EIGENVALUE = 1e-3  # |Re| up to this counts as the structural zero
# Past this spectral radius the program's finite-difference Jacobian (step
# 1e-6) can move the structural zero by more than ZERO_EIGENVALUE; within
# it the zero moves by less than 1e-5 on the acceptance suite's ranges.
STIFF_RADIUS = 50.0

# Agreement with the independent model. The program and the model agree
# to about 1e-12 on every quantity checked; these leave a margin of 1000.
ROOT_RTOL = 1e-9
VALUE_RTOL = 1e-9
EIGEN_RTOL = 1e-4  # times max(1, |lambda|max); finite differences vs complex step
ENDPOINT_DISTANCE = 1e-4  # acceptance criterion C09
STEP_RTOL = 1e-8  # one stored step against the model's RK4 over it (agree to 3e-11)
START_RTOL = 1e-8

STEADY_FIELDS = ("z_star", "q_star", "u_star", "v_star", "r_star", "tau0",
                 "pi1k", "pi2k", "tvc_margin")


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _bad(values):
    """Indices where a boolean array is False; comparisons with nan are False."""
    return np.flatnonzero(~np.asarray(values, dtype=bool))


# --- balanced growth path ------------------------------------------------------

def steady_problems(e: M.Economy, fields: dict, label: str = "") -> list:
    """Program's starred values against the model's closed forms at its own w*.

    fields maps names of STEADY_FIELDS and "w_star" to floats or arrays.
    """
    problems = []
    w = np.asarray(fields["w_star"], dtype=float)
    with np.errstate(all="ignore"):
        offset = np.abs(M.root_offset(e, w))
        bp = M.balanced_path(e, w)
    for i in _bad(offset <= ROOT_RTOL):
        problems.append(f"{label}w_star[{i}] is {np.ravel(offset)[i]:.2e} from the gap's root")
    for name in STEADY_FIELDS:
        if name not in fields:
            continue
        err = np.atleast_1d(_rel(fields[name], bp[name]))
        for i in _bad(err <= VALUE_RTOL):
            problems.append(f"{label}{name}[{i}] off the closed form by {err[i]:.2e}")
    u = np.atleast_1d(fields["u_star"])
    v = np.atleast_1d(fields["v_star"])
    for i in _bad((u > 0) & (u < 1) & (v > 0) & (v < 1)):
        problems.append(f"{label}allocation [{i}] outside (0,1): u*={u[i]}, v*={v[i]}")
    return problems


def paper_steady_problems(case: int, fields: dict) -> list:
    got = (fields["z_star"], fields["u_star"], fields["v_star"], fields["q_star"])
    return [
        f"case {case} {name} = {g} vs the paper's {t}"
        for name, g, t in zip(("z*", "u*", "v*", "q*"), got, paper.CASE_TARGETS[case])
        if not abs(g - t) <= 0.01
    ]


# --- spectrum --------------------------------------------------------------------

def label_of(eigenvalues) -> str:
    """Label implied by the signs of the three eigenvalues other than the structural zero."""
    ev = np.asarray(eigenvalues)
    others = np.delete(ev, np.argmin(np.abs(ev.real)))
    n_stable = int(np.sum(others.real < 0.0))
    return {1: "saddle_path", 3: "sink", 0: "source"}.get(n_stable, "degenerate")


def sort_spectrum(ev):
    ev = np.asarray(ev, dtype=complex)
    return ev[np.lexsort((ev.imag, ev.real))]


def spectrum_problems(eigenvalues, label: str, reference) -> list:
    """Program's eigenvalues and label against the model's spectrum.

    Exactly one eigenvalue may lie within ZERO_EIGENVALUE of the imaginary
    axis: the zero that comes from scale invariance.
    """
    ev = sort_spectrum(eigenvalues)
    ref = sort_spectrum(reference)
    problems = []
    n_zero = int(np.sum(np.abs(ev.real) <= ZERO_EIGENVALUE))
    if n_zero != 1:
        problems.append(f"{n_zero} eigenvalues within {ZERO_EIGENVALUE} of zero: {ev}")
    if label != label_of(ev):
        problems.append(f"label {label} disagrees with the eigenvalues {ev}")
    scale = max(1.0, float(np.max(np.abs(ref))))
    if np.max(np.abs(ev - ref)) > EIGEN_RTOL * scale:
        problems.append(f"eigenvalues {ev} vs the model's {ref}")
    return problems


def spectrum_outcome(eigenvalues, label: str, reference):
    """(cause, problems) for one economy's spectrum.

    A stiff economy, whose step-free spectrum reaches past STIFF_RADIUS,
    shows the finite-difference Jacobian's fault: a spectrum that fails
    there counts under DEGENERATE_LABEL when the program calls the economy
    degenerate, and under STIFF_SPECTRUM otherwise. Elsewhere a spectrum
    that fails is a wrong output.
    """
    problems = spectrum_problems(eigenvalues, label, reference)
    if not problems or np.max(np.abs(reference)) <= STIFF_RADIUS:
        return None, problems
    return (DEGENERATE_LABEL if label == "degenerate" else STIFF_SPECTRUM), []


# --- normalized sweeps -----------------------------------------------------------

SWEEP_NUMERIC = ("sigma", "alpha", "A", "w_star", "z_star", "u_star", "v_star",
                 "q_star", "r_star", "pi1", "pi2", "y1_star", "y2_star")

# Columns that rise strictly with sigma on each sweep: the paper's result.
SWEEP_RISING = {
    "1": ("y1_star", "pi1", "r_star"),
    "2": ("r_star", "pi2"),
    "both": ("y1_star", "pi1", "pi2", "r_star", "u_star"),
}


def parse_sweep_csv(text: str):
    """(rows, footer) from the sweep's CSV: rows as dicts, footer as {key: [columns]}."""
    lines = text.splitlines()
    rows, footer = [], {}
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, cols = line[1:].partition(":")
            footer[key.strip()] = [c for c in cols.strip().split(",") if c]
            continue
        cells = line.split(",", len(SWEEP_NUMERIC))
        row = {"error": cells[-1]}
        for name, cell in zip(SWEEP_NUMERIC, cells):
            row[name] = float(cell) if cell else math.nan
        rows.append(row)
    return rows, footer


def sweep_outcomes(template: dict, initial: dict, which: str, rows):
    """(causes, problems) of one sweep: a cause per row (None when the row passed).

    template holds the scenario's parameters and initial its k0, h0, u0, v0.
    """
    e = M.economy_of(template)
    anchor = M.anchor_at(e, initial["k0"], initial["h0"], initial["u0"], initial["v0"])
    causes = [None] * len(rows)
    problems = []
    ok = []
    for i, row in enumerate(rows):
        if not row["error"]:
            ok.append(i)
        elif row["error"] == GUARD_MESSAGE and abs(row["sigma"] - 1.0) < SIGMA_GUARD:
            causes[i] = GUARD_BAND
        else:
            problems.append(f"row {i} (sigma={row['sigma']}): {row['error']}")
    if not ok:
        return causes, problems + ["no row was solved"]
    col = {name: np.array([rows[i][name] for i in ok]) for name in SWEEP_NUMERIC}
    sigma = col["sigma"]
    sigma1 = 1.0 / (1.0 - e.psi1) if which == "2" else sigma
    sigma2 = 1.0 / (1.0 - e.psi2) if which == "1" else sigma
    member = M.member(e, anchor, sigma1, sigma2)
    sector = 2 if which == "2" else 1

    # The reported technology is the family's at sigma, and it passes
    # through the anchor with the anchor's output and MRS.
    A, alpha, psi = M.member_technology(anchor, sector, sigma)
    for name, ref in (("A", A), ("alpha", alpha)):
        err = _rel(col[name], ref)
        problems += [f"row {ok[i]} {name} off the family by {err[i]:.2e}"
                     for i in _bad(err <= VALUE_RTOL)]
    x = anchor.x1 if sector == 1 else anchor.x2
    y_bar = anchor.y1 if sector == 1 else anchor.y2
    labour = anchor.h_goods if sector == 1 else anchor.h_education
    y_at_anchor = labour * M.intensive_output(col["A"], col["alpha"], psi, x)
    for name, got, ref in (("output", y_at_anchor, y_bar),
                           ("MRS", M.mrs(col["alpha"], psi, x), anchor.m)):
        err = _rel(got, ref)
        problems += [f"row {ok[i]} {name} at the anchor off by {err[i]:.2e}"
                     for i in _bad(err <= VALUE_RTOL)]

    fields = {"w_star": col["w_star"], "z_star": col["z_star"], "u_star": col["u_star"],
              "v_star": col["v_star"], "q_star": col["q_star"], "r_star": col["r_star"],
              "pi1k": col["pi1"], "pi2k": col["pi2"]}
    problems += steady_problems(member, fields, label="sweep ")
    h_bar = initial["h0"]
    y1, y2 = M.outputs_at(member, col["z_star"] * h_bar, h_bar, col["u_star"], col["v_star"])
    for name, ref in (("y1_star", y1), ("y2_star", y2)):
        err = _rel(col[name], ref)
        problems += [f"row {ok[i]} {name} off by {err[i]:.2e}" for i in _bad(err <= VALUE_RTOL)]

    for name in SWEEP_RISING[which]:
        steps = np.diff(col[name])
        if not np.all(steps > 0):
            problems.append(f"{name} does not rise strictly with sigma "
                            f"(first fall after row {ok[int(np.argmin(steps > 0))]})")
    return causes, problems


# --- transition paths ------------------------------------------------------------

def path_outcome(e: M.Economy, z0: float, x_star, times, states, levels, k0: float,
                 check_steps: bool = True):
    """(cause, problems) of one saddle path with its levels.

    The cause is INFEASIBLE_PATH when the path leaves (0,1)^2 in (u, v).
    With check_steps, every stored step must match the model's dynamics.
    """
    states = np.asarray(states, dtype=float)
    times = np.asarray(times, dtype=float)
    uv = states[:, 2:]
    if not np.all((uv > 0.0) & (uv < 1.0)):
        return INFEASIBLE_PATH, []
    problems = []
    if not abs(states[0, 0] - z0) <= START_RTOL * z0:
        problems.append(f"path starts at z={states[0, 0]}, not z0={z0}")
    end = float(np.linalg.norm(states[-1] - np.asarray(x_star)))
    if not end < ENDPOINT_DISTANCE:
        problems.append(f"path ends {end:.2e} from x*")
    if check_steps and len(times) > 1:
        dt = np.diff(times)
        with np.errstate(all="ignore"):
            stepped = M.rk4_steps(e, states[:-1], dt)
        err = np.max(np.abs(stepped - states[1:]) / np.maximum(1.0, np.abs(states[1:])), axis=1)
        if not np.all(err <= STEP_RTOL):
            i = int(np.argmax(err))
            problems.append(f"step {i} disagrees with the model's dynamics by {err[i]:.2e}")
    if levels is not None:
        problems += level_problems(e, times, states, np.asarray(levels, dtype=float), k0)
    return None, problems


def level_problems(e: M.Economy, times, states, levels, k0: float) -> list:
    """h = k/z, c = q k, and log k grows at y1/k - c/k - delta_k.

    The reference for log k is a fourth-order integral of the model's
    capital growth g over the stored samples: the trapezoid rule less its
    leading error dt^2/12 (g'(t1) - g'(t0)) on each step, with g' = dg/dt
    from the model's dynamics. log k may depart from it by twice the
    summed size of that leading error, which is what a second-order
    quadrature on the same steps allows; any more accurate reconstruction
    passes with room to spare.
    """
    z, q, u, v = states.T
    k, h, c = levels.T
    problems = []
    if not abs(k[0] - k0) <= 1e-12 * k0:
        problems.append(f"k starts at {k[0]}, not k0={k0}")
    for name, got, ref in (("h = k/z", h, k / z), ("c = q k", c, q * k)):
        err = np.max(_rel(got, ref))
        if not err <= 1e-12:
            problems.append(f"{name} off by {err:.2e}")
    if len(times) > 1:
        dt = np.diff(times)
        g = M.capital_growth(e, z, q, u, v)
        slope = M.capital_growth_slope(e, states)
        trapezoid = 0.5 * dt * (g[1:] + g[:-1])
        second_order_error = dt**2 / 12.0 * (slope[1:] - slope[:-1])
        integral = np.concatenate([[0.0], np.cumsum(trapezoid - second_order_error)])
        allowed = 2.0 * np.concatenate([[0.0], np.cumsum(np.abs(second_order_error))])
        drift = np.abs(np.log(k / k0) - integral)
        scale = 1.0 + np.cumsum(np.abs(np.concatenate([[0.0], np.diff(np.log(k))])))
        if not np.all(drift <= 1e-9 * scale + allowed):
            problems.append(f"log k departs from the growth law by {np.max(drift):.2e}")
    return problems
