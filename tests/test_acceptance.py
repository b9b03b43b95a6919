"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Reference values are frozen from the benchmark tables; derived
oracles (grid-scan root finding, central finite differences) are computed
here, independently of the library code paths they check.
"""

import math
import time

import numpy as np
import pytest

from cesgrowth import (
    ModelParams,
    ReducedState,
    baseline_from_point,
    baseline_from_steady_state,
    gap_P,
    normalized_y,
    saddle_path,
    solve_w,
    stability_report,
    steady_state,
    y1_of,
    y2_of,
)
from cesgrowth.normalization import (
    dpi_dpsi,
    dr_dpsi_at,
    dy_dpsi,
    identity_wwb,
    psi_of_sigma,
    r_star_closed_form,
    share_pi,
)
from cesgrowth.stability import rhs_reduced

from conftest import BENCH, CASE_PSI, bench_params

CASE_TARGETS = {
    1: (10.73, 0.882, 0.866, 0.240),
    2: (5.18, 0.874, 0.759, 0.267),
    3: (7.56, 0.923, 0.818, 0.254),
    4: (6.73, 0.933, 0.799, 0.259),
    5: (4.87, 0.884, 0.745, 0.271),
}

CASE_EV = {
    1: (-12.788, 0.0014, 0.173, 12.963),
    2: (-1.907, 0.000, 0.157, 2.064),
    3: (-2.104, 0.000, 0.174, 2.278),
    4: (-1.699, 0.000, 0.173, 1.872),
    5: (-1.615, 0.000, 0.158, 1.773),
}


def check(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {status}: {desc}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_baseline(rng) -> tuple:
    """A consistent random anchor plus its generating parameters."""
    params = ModelParams(
        A1=rng.uniform(0.5, 2.0),
        A2=rng.uniform(0.1, 0.5),
        alpha1=rng.uniform(0.3, 0.8),
        alpha2=rng.uniform(0.3, 0.9),
        psi1=rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5),
        psi2=rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5),
        delta_k=rng.uniform(0.0, 0.1),
        delta_h=rng.uniform(0.0, 0.1),
        eps=rng.uniform(1.5, 4.0),
        rho=rng.uniform(0.01, 0.1),
    )
    u = rng.uniform(0.2, 0.9)
    v = rng.uniform(0.1, 0.9)
    base = baseline_from_point(
        params, k=rng.uniform(0.5, 10.0), h=rng.uniform(0.5, 5.0), u=u, v=v
    )
    return base, params


def random_sigma(rng) -> float:
    s = rng.uniform(0.3, 3.0)
    while abs(s - 1.0) < 0.05:
        s = rng.uniform(0.3, 3.0)
    return s


def off_baseline_ratio(rng, x_bar: float) -> float:
    """A current input ratio at least one percent (in logs) off the anchor."""
    shift = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.5)
    return x_bar * math.exp(shift)


def test_c01_five_case_steady_states():
    t0 = time.monotonic()
    worst = 0.0
    for case, psis in CASE_PSI.items():
        ss = steady_state(bench_params(*psis))
        got = (ss.z_star, ss.u_star, ss.v_star, ss.q_star)
        worst = max(worst, max(abs(g - t) for g, t in zip(got, CASE_TARGETS[case])))
    elapsed = time.monotonic() - t0
    check(
        1,
        "five-case (z*, u*, v*, q*) within 0.01 of reference values, under 1 s",
        worst <= 0.01 and elapsed < 1.0,
        f"worst abs dev {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_c02_five_case_spectra():
    ok = True
    detail = ""
    for case, psis in CASE_PSI.items():
        rep = stability_report(bench_params(*psis))
        if rep.classification != "saddle_path":
            ok, detail = False, f"case {case} classified {rep.classification}"
            break
        for computed, target in zip(np.asarray(rep.eigenvalues).real, CASE_EV[case]):
            if abs(target) >= 1.0:
                good = abs(computed - target) <= 0.02 * abs(target)
            elif abs(target) >= 0.01:
                good = abs(computed - target) <= 0.05
            else:
                good = abs(computed) <= 0.01
            if not good:
                ok, detail = False, f"case {case}: {computed} vs {target}"
                break
    check(2, "five-case eigenvalues within reference tolerances, all saddle-path", ok, detail)


def test_c03_two_economy_tables():
    alt1_e1 = steady_state(bench_params(0.25, -0.10))
    alt1_e2 = steady_state(bench_params(0.20, -0.15))
    alt2_e1 = steady_state(bench_params(-0.10, -0.15))
    alt2_e2 = steady_state(bench_params(-0.15, -0.20))
    checks = [
        abs(alt1_e1.r_star - 0.1150) <= 0.0005,
        abs(alt1_e1.pi1k - 0.730) <= 0.002,
        abs(alt1_e1.pi2k - 0.757) <= 0.002,
        abs(alt1_e1.u_star - 0.8821) <= 0.001,
        abs(alt1_e1.v_star - 0.8665) <= 0.001,
        abs(alt1_e2.r_star - 0.1102) <= 0.0005,
        abs(alt1_e2.u_star - 0.8723) <= 0.001,
        abs(alt2_e1.r_star - 0.0976) <= 0.0005,
        abs(alt2_e2.r_star - 0.0949) <= 0.0005,
    ]
    check(
        3,
        "two-economy steady-state tables (both alternatives) reproduced",
        all(checks),
        f"failing checks at positions {[i for i, c in enumerate(checks) if not c]}",
    )


def test_c04_output_levels_at_reported_capital():
    p = bench_params(0.25, -0.10)
    ss = steady_state(p)
    k = 32.18
    h = k / ss.z_star
    y1 = y1_of(k, h, ss.u_star, ss.v_star, p)
    y2 = y2_of(k, h, ss.u_star, ss.v_star, p)
    check(
        4,
        "output levels at reported capital: y1 = 13.37 +/- 0.02, y2 = 0.49 +/- 0.01",
        abs(y1 - 13.37) <= 0.02 and abs(y2 - 0.49) <= 0.01,
        f"y1={y1:.4f}, y2={y2:.4f}",
    )


def fd_richardson(f, psi: float, h: float = 1e-3) -> float:
    """Sixth-order derivative oracle: twice-extrapolated central differences."""

    def central(step):
        return (f(psi + step) - f(psi - step)) / (2 * step)

    d1 = (4.0 * central(h / 2.0) - central(h)) / 3.0
    d2 = (4.0 * central(h / 4.0) - central(h / 2.0)) / 3.0
    return (16.0 * d2 - d1) / 15.0


def rel_err(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-30)


def test_c05_derivative_oracles(rng):
    worst = {"dpi": 0.0, "dy": 0.0, "dr": 0.0}
    counts = {"dpi": 0, "dy": 0, "dr": 0}
    while min(counts.values()) < 1000:
        base, params = random_baseline(rng)
        sigma = random_sigma(rng)
        psi = psi_of_sigma(sigma)
        sector = 1 if rng.random() < 0.5 else 2
        x_bar = base.effective_ratio(sector)
        x = off_baseline_ratio(rng, x_bar)
        w = x if sector == 1 else x * base.tau_bar
        tau = None if sector == 1 else base.tau_bar

        def sig(p):
            return 1.0 / (1.0 - p)

        # share derivative
        analytic = dpi_dpsi(sigma, base, sector, w, tau)
        fd = fd_richardson(lambda p: share_pi(sig(p), base, sector, w, tau), psi)
        worst["dpi"] = max(worst["dpi"], rel_err(analytic, fd))
        counts["dpi"] += 1

        # output derivative at a consistent physical point
        u = rng.uniform(0.2, 0.9)
        v = rng.uniform(0.1, 0.9)
        h_stock = rng.uniform(0.3, 3.0)
        k_stock = w * u / v * h_stock
        ratio = (k_stock * v / (h_stock * u)) / base.w_bar
        if abs(math.log(ratio)) > 0.01:
            analytic = dy_dpsi(sigma, base, 1, k_stock, h_stock, u, v)
            fd = fd_richardson(
                lambda p: normalized_y(sig(p), base, 1, k_stock, h_stock, u, v), psi
            )
            worst["dy"] = max(worst["dy"], rel_err(analytic, fd))
            counts["dy"] += 1

        # growth-rate derivative: total in psi at a fixed input ratio, so
        # the steady share inside the closed form varies with psi too
        x1 = off_baseline_ratio(rng, base.effective_ratio(1))

        def r_of_psi(p):
            s = sig(p)
            return r_star_closed_form(s, base, params, share_pi(s, base, 1, x1))

        analytic = dr_dpsi_at(sigma, base, params, share_pi(sigma, base, 1, x1))
        fd = fd_richardson(r_of_psi, psi)
        worst["dr"] = max(worst["dr"], rel_err(analytic, fd))
        counts["dr"] += 1
    check(
        5,
        "closed-form dpi/dpsi, dy/dpsi, dr*/dpsi1 match central differences "
        "to 1e-7 relative on 1000 random configurations each",
        all(v < 1e-7 for v in worst.values()),
        f"worst rel errors {worst}",
    )


def test_c06_share_identity_and_baseline_fixed_point(rng):
    worst_resid = 0.0
    for _ in range(1000):
        base, _ = random_baseline(rng)
        sigma = random_sigma(rng)
        for sector in (1, 2):
            x_bar = base.effective_ratio(sector)
            x = off_baseline_ratio(rng, x_bar)
            w = x if sector == 1 else x * base.tau_bar
            tau = None if sector == 1 else base.tau_bar
            worst_resid = max(
                worst_resid, abs(identity_wwb(sigma, base, sector, w, tau))
            )
    base, _ = random_baseline(rng)
    worst_fp = 0.0
    for sigma in np.concatenate([np.linspace(0.5, 0.95, 10), np.linspace(1.05, 2.0, 10)]):
        for sector, y_bar in ((1, base.y1_bar), (2, base.y2_bar)):
            y = normalized_y(
                sigma, base, sector, base.k_bar, base.h_bar, base.u_bar, base.v_bar
            )
            worst_fp = max(worst_fp, abs(y - y_bar) / y_bar)
    check(
        6,
        "share identity residual < 1e-12 (1000 configurations, both sectors) "
        "and baseline outputs reproduced to 1e-10 across the sigma grid",
        worst_resid < 1e-12 and worst_fp < 1e-10,
        f"residual {worst_resid:.2e}, fixed point {worst_fp:.2e}",
    )


def test_c07_output_monotone_in_elasticity(rng):
    base, _ = random_baseline(rng)
    k = 2.5 * base.k_bar
    h = base.h_bar
    u, v = base.u_bar, base.v_bar
    grid = np.concatenate([np.linspace(0.5, 0.95, 25), np.linspace(1.05, 2.0, 25)])
    y1 = [normalized_y(s, base, 1, k, h, u, v) for s in grid]
    y2 = [normalized_y(s, base, 2, k, h, u, v) for s in grid]
    check(
        7,
        "normalized outputs strictly increasing along the 50-point "
        "elasticity grid spanning both regimes",
        np.all(np.diff(y1) > 0) and np.all(np.diff(y2) > 0),
        f"min diffs {np.min(np.diff(y1)):.2e}, {np.min(np.diff(y2)):.2e}",
    )


def grid_scan_root(params, lo=1e-4, hi=1e4, n=10_000) -> float:
    """Independent oracle: sign-change scan on a log grid plus bisection."""
    ws = np.exp(np.linspace(math.log(lo), math.log(hi), n))
    vals = np.array([gap_P(w, params) for w in ws])
    idx = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert len(idx) == 1
    a, b = ws[idx[0]], ws[idx[0] + 1]
    fa = gap_P(a, params)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = gap_P(mid, params)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def test_c08_gap_monotone_and_root_agreement():
    ok = True
    detail = ""
    for case, psis in CASE_PSI.items():
        p = bench_params(*psis)
        ws = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 10_000))
        vals = np.array([gap_P(w, p) for w in ws])
        if not np.all(np.diff(vals) < 0):
            ok, detail = False, f"case {case}: gap not strictly decreasing"
            break
        w_scan = grid_scan_root(p)
        w_lib = solve_w(p)
        if abs(w_lib - w_scan) > 1e-6 * w_scan:
            ok, detail = False, f"case {case}: {w_lib} vs scan {w_scan}"
            break
    check(
        8,
        "gap strictly decreasing on a 10^4-point log grid and the solver "
        "root matches an independent grid-scan oracle to 1e-6 relative",
        ok,
        detail,
    )


def test_c09_saddle_path_convergence():
    p = bench_params(*CASE_PSI[1])
    ss = steady_state(p)
    x_star = np.array([ss.z_star, ss.q_star, ss.u_star, ss.v_star])
    t0 = time.monotonic()
    traj = saddle_path(p, z0=0.9 * ss.z_star)
    elapsed = time.monotonic() - t0
    dist = np.linalg.norm(traj.states - x_star, axis=1)
    tail = dist[len(dist) // 2:]
    check(
        9,
        "stable-manifold trajectory from z0 = 0.9 z* reaches the balanced "
        "path within 1e-4 with monotone tail, under 5 s",
        dist[-1] < 1e-4 and np.all(np.diff(tail) <= 1e-12) and elapsed < 5.0,
        f"terminal {dist[-1]:.2e}, elapsed {elapsed:.2f}s",
    )


def test_c10_fixed_point_residuals():
    worst = 0.0
    for psis in CASE_PSI.values():
        p = bench_params(*psis)
        ss = steady_state(p)
        s = ReducedState(z=ss.z_star, q=ss.q_star, u=ss.u_star, v=ss.v_star)
        worst = max(worst, float(np.linalg.norm(rhs_reduced(s, p))))
    check(
        10,
        "reduced-system residual below 1e-8 at every computed balanced path",
        worst < 1e-8,
        f"worst residual {worst:.2e}",
    )
