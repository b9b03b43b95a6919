"""Reference saddle paths at 25 digits, independent of the package's seed
and stepper.

Each path is integrated in reversed time by mpmath's Taylor-series ODE
solver (mpmath.odefun) from a seed of its own: the balanced path solved at
25 digits, moved SEED_FRACTION |x*| along the stable eigenvector of a
Jacobian from mpmath.diff, by mpmath.eig. The model equations are the
package's rhs_reduced_values, run on mpmath numbers. The table holds, per
start, (q, u, v) where z crosses z0, and the clock: the time from z0 to
|s| = SEED_SCALE |x*|, where s is the stable manifold's linear coordinate.
The seed lies SEED_SCALE / SEED_FRACTION times closer to x* than that, so
the clock is the time to the seed less ln(SEED_SCALE / SEED_FRACTION) /
|lambda|. The seed's own offset from the manifold, of relative size
SEED_FRACTION, shifts it by about SEED_FRACTION |x*| |a_2| / |lambda|:
7.5e-9 for case 2 from 0.95 z* at a seed of 1e-8 |x*|, 7.5e-11 at 1e-10.

    python tests/reference_paths.py          # write reference_paths.json
    python tests/reference_paths.py --check  # regenerate; exit 1 on drift

The run takes about three minutes. --check compares every stored figure with
the regenerated one to 1e-15 relative, far below the tests' bounds.
"""

import json
import sys
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cesgrowth.dynamics import SEED_SCALE  # noqa: E402
from cesgrowth.stability import rhs_reduced_values  # noqa: E402
from cesgrowth.steady import closed_forms, gap_P, steady_state  # noqa: E402

from conftest import CASE_PSI, bench_params  # noqa: E402

TABLE = Path(__file__).with_name("reference_paths.json")
# (case, z0 / z*): case 1 from above (from below its path passes near
# u = v = 1, where the rhs divides by u - v), cases 2-5 from both sides.
STARTS = [(1, 1.05)] + [(c, f) for c in (2, 3, 4, 5) for f in (0.95, 1.05)]
DPS = 25
ODE_TOL = 1e-18
SEED_FRACTION = 1e-10
DRIFT_RTOL = 1e-15


def reference(case: int, factor: float) -> dict:
    """One start's reference figures, as strings of 20 significant digits."""
    params = bench_params(*CASE_PSI[case])
    ss = steady_state(params)
    z0 = factor * ss.z_star
    with mp.workdps(DPS):
        w = mp.findroot(lambda w: gap_P(w, params), mp.mpf(ss.w_star))
        star = closed_forms(w, params)
        x_star = [star.z_star, star.q_star, star.u_star, star.v_star]

        def rhs(x):
            return rhs_reduced_values(*x, params)

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
        path = mp.odefun(lambda _t, x: [-d for d in rhs(x)], 0, seed, tol=mp.mpf(ODE_TOL))
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


def table() -> list:
    return [reference(case, factor) for case, factor in STARTS]


def drift(old: list, new: list) -> list:
    """Lines naming each figure of new that differs from old."""
    if [(r["case"], r["factor"]) for r in old] != [(r["case"], r["factor"]) for r in new]:
        return ["the table's starts changed"]
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
    rows = table()
    if sys.argv[1:] == ["--check"]:
        lines = drift(load(), rows)
        print("\n".join(lines) or f"{TABLE.name}: no drift")
        sys.exit(1 if lines else 0)
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {TABLE}")
