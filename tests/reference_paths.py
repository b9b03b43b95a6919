"""Reference saddle paths at 25 digits, independent of the package's seed
and stepper.

Each path is integrated in reversed time by mpmath's Taylor-series ODE
solver (mpmath.odefun) from a seed of its own: the balanced path solved at
25 digits, moved SEED_FRACTION |x*| along the stable eigenvector of a
Jacobian from mpmath.diff, by mpmath.eig; x* is the zero of the model
equations on F = 0 (see CORNER below), found by mpmath.findroot from the
closed forms. The model equations are the package's rhs_reduced_values,
run on mpmath numbers. The table holds, per start, (q, u, v) where z
crosses z0, and the clock: the time from z0 to |s| = SEED_SCALE |x*|,
where s is the stable manifold's linear coordinate. The seed lies
SEED_SCALE / SEED_FRACTION times closer to x* than that, so the clock is
the time to the seed less ln(SEED_SCALE / SEED_FRACTION) / |lambda|. The
seed's own offset from the manifold, of relative size SEED_FRACTION,
shifts it by about SEED_FRACTION |x*| |a_2| / |lambda|: 7.5e-9 for case 2
from 0.95 z* at a seed of 1e-8 |x*|, 7.5e-11 at 1e-10.

A start marked in CORNER passes the corner u = v = 1, where the last two
components of rhs_reduced_values divide by u - v. Its path is integrated
in (z, q) alone, on the plane w = w*, F = 0 where it lies: u and v are the
closed forms u = (tau0 z/w - 1)/(tau0 - 1) and v = (tau0 - w/z)/(tau0 - 1)
at the 25-digit w* and tau0*, and (zdot, qdot) are rhs_reduced_values' at
(z, q, u, v), neither of which divides by u - v.

The starts are the paper cases (1-5), STIFF_POOL's economies ("stiff35")
and economies of the benchmark's economy_scan pool ("pool10",
perfbench.workloads.draw_economies(default_rng(POOL_SEED), POOL_SIZE)[10]),
whose tau0* > 1, so that w moves along their paths.

    python tests/reference_paths.py          # add the missing starts to reference_paths.json
    python tests/reference_paths.py --check  # regenerate every start; exit 1 on drift

Writing keeps the stored rows as they are and computes only the starts
the table lacks. --check regenerates every stored row from its stored
z0, not from factor times the package's float z*, which a change may
move within the gap's rounding, and compares every figure with the
regenerated one to 1e-15 relative, far below the tests' bounds; it takes
about 33 minutes of one core, 24 of them for the two 50-digit rows.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from cesgrowth import ModelParams  # noqa: E402
from cesgrowth.dynamics import SEED_SCALE  # noqa: E402
from cesgrowth.stability import rhs_reduced_values  # noqa: E402
from cesgrowth.steady import closed_forms, gap_P, steady_state  # noqa: E402
from perfbench.model import PARAM_NAMES  # noqa: E402
from perfbench.workloads import POOL_SEED, POOL_SIZE, draw_economies  # noqa: E402

from conftest import CASE_PSI, STIFF_POOL, U_STAR_NEAR_ONE, bench_params  # noqa: E402

TABLE = Path(__file__).with_name("reference_paths.json")
# (economy, z0 / z*): the first nine are case 1 from above and cases 2-5
# from both sides. Then STIFF_POOL's economies from just below and just
# above z*, short of the corner, pool economies with tau0* > 1 from above,
# and those of them whose paths from below stay short of the corner, and
# case 1 from below, through the corner.
STARTS = ([(1, 1.05)] + [(c, f) for c in (2, 3, 4, 5) for f in (0.95, 1.05)]
          + [(f"stiff{i}", f) for i in STIFF_POOL for f in (0.9999, 1.0003)]
          + [(f"pool{i}", 1.1) for i in (10, 50, 60, 70)]
          + [(f"pool{i}", 0.9) for i in (60, 70)]
          + [(1, 0.9)]
          + [("u_star_near_one", f) for f in (0.9, 1.1)])
CORNER = {(1, 0.9)}
DPS = 25
ODE_TOL = 1e-18
# U_STAR_NEAR_ONE has 1 - u* = 3.2e-15, which 25 digits resolve only to
# about ten: its paths are computed at 50 digits, to a tolerance of 1e-40.
HIGH_PRECISION = {"u_star_near_one": (50, 1e-40)}
SEED_FRACTION = 1e-10
DRIFT_RTOL = 1e-15


def economy(case) -> ModelParams:
    """A paper case (1-5), a STIFF_POOL economy ("stiff35") or an economy of
    the economy_scan pool ("pool10")."""
    if isinstance(case, int):
        return bench_params(*CASE_PSI[case])
    if case == "u_star_near_one":
        return ModelParams(**U_STAR_NEAR_ONE)
    if case.startswith("stiff"):
        return ModelParams(**STIFF_POOL[int(case[5:])])
    pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
    return ModelParams(**{n: float(getattr(pool, n)[int(case[4:])]) for n in PARAM_NAMES})


def reference(case, factor: float, z0: float | None = None) -> dict:
    """One start's reference figures, as strings of 20 significant digits,
    from z0 (by default factor times the float z*)."""
    params = economy(case)
    ss = steady_state(params)
    if z0 is None:
        z0 = factor * ss.z_star
    dps, ode_tol = HIGH_PRECISION.get(case, (DPS, ODE_TOL))
    with mp.workdps(dps):
        w = mp.findroot(lambda w: gap_P(w, params), mp.mpf(ss.w_star))
        star = closed_forms(w, params)

        def allocations(z):
            return ((star.tau0 * z / w - 1) / (star.tau0 - 1),
                    (star.tau0 - w / z) / (star.tau0 - 1))

        def rhs(x):
            return rhs_reduced_values(*x, params)

        # closed_forms' x* is a zero of rhs_reduced_values in this
        # arithmetic: both write the consumption equation from the growth
        # rates, and at 50 digits it misses by at most 1.4e-38 in any
        # coordinate's rate. A miss of 1.7e-16, as with float constants in
        # q*, would be a 1e-7 share of a seed SEED_FRACTION |x*| out and
        # shift the clock by 2e-7; so the seed is still placed from the zero
        # findroot refines, and the table does not rest on closed_forms.
        z_star, q_star = mp.findroot(lambda z, q: rhs([z, q, *allocations(z)])[:2],
                                     (star.z_star, star.q_star))
        x_star = [z_star, q_star, *allocations(z_star)]

        jac = mp.matrix(4, 4)
        for j in range(4):
            for i in range(4):
                jac[i, j] = mp.diff(
                    lambda h: rhs([x + h if k == j else x for k, x in enumerate(x_star)])[i], 0)
        values, vectors = mp.eig(jac)
        k = min(range(4), key=lambda i: mp.re(values[i]))
        lam = mp.re(values[k])
        v = [mp.re(vectors[i, k]) for i in range(4)]
        norm = mp.sqrt(sum(c * c for c in v))
        sign = 1 if (v[0] > 0) == (z0 > ss.z_star) else -1
        eps = sign * SEED_FRACTION * mp.sqrt(sum(c * c for c in x_star)) / norm
        seed = [x + eps * c for x, c in zip(x_star, v)]
        if (case, factor) in CORNER:
            def plane(_t, x):
                zdot, qdot, _, _ = rhs(x + list(allocations(x[0])))
                return [-zdot, -qdot]

            plane_path = mp.odefun(plane, 0, seed[:2], tol=mp.mpf(ode_tol))

            def path(t):
                z, q = plane_path(t)
                return [z, q, *allocations(z)]
        else:
            path = mp.odefun(lambda _t, x: [-d for d in rhs(x)], 0, seed, tol=mp.mpf(ode_tol))
        # Walk out in steps of a tenth of the stable time scale until z passes z0.
        dt, t = 0.1 / abs(lam), mp.mpf(0)
        while (path(t + dt)[0] - z0) * (seed[0] - z0) > 0:
            t += dt
        t0 = mp.findroot(lambda s: path(s)[0] - z0, (t, t + dt), solver="anderson")
        _, q, u, v = path(t0)
        clock = t0 - mp.log(SEED_SCALE / SEED_FRACTION) / abs(lam)
        return {"case": case, "factor": factor, "z0": z0,
                **{name: mp.nstr(x, 20) for name, x in
                   (("q", q), ("u", u), ("v", v), ("clock", clock), ("lambda", lam))}}


def completed(rows: list) -> list:
    """rows, as stored, followed by the references of the starts they lack."""
    have = {(r["case"], r["factor"]) for r in rows}
    return rows + [reference(case, factor) for case, factor in STARTS
                   if (case, factor) not in have]


def regenerated(rows: list) -> list:
    """rows regenerated, each from its stored z0."""
    return [reference(r["case"], r["factor"], r["z0"]) for r in rows]


def drift(old: list, new: list) -> list:
    """Lines naming each figure of new that differs from old."""
    if [(r["case"], r["factor"]) for r in old] != STARTS:
        return ["the table's starts differ from STARTS"]
    lines = []
    for a, b in zip(old, new):
        for name in ("z0", "q", "u", "v", "clock", "lambda"):
            x, y = float(a[name]), float(b[name])
            if abs(x - y) > DRIFT_RTOL * abs(y):
                lines.append(f"case {a['case']} from {a['factor']} z*: {name} {x!r} -> {y!r}")
    return lines


def load() -> list:
    return json.loads(TABLE.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        rows = load()
        lines = drift(rows, regenerated(rows))
        print("\n".join(lines) or f"{TABLE.name}: no drift")
        sys.exit(1 if lines else 0)
    TABLE.write_text(json.dumps(completed(load() if TABLE.exists() else []), indent=1) + "\n")
    print(f"wrote {TABLE}")
