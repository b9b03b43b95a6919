"""Local dynamics around the balanced path: Jacobian spectra.

Linearizes the reduced system (z, q, u, v) at each configuration's fixed
point and prints the four eigenvalues. One strictly negative eigenvalue
against three non-negative ones is the saddle-path signature: one stable
direction, which the optimal trajectory must ride.
"""

import numpy as np

from cesgrowth import ModelParams, stability_report

BENCH = dict(
    A1=1.05, A2=0.20, alpha1=0.6, alpha2=0.8,
    delta_k=0.06, delta_h=0.05, eps=2.0, rho=0.06,
)

CASES = [
    (0.25, -0.10),
    (-0.10, -0.15),
    (0.15, 0.10),
    (0.10, 0.15),
    (-0.15, -0.10),
]


def main():
    for i, (psi1, psi2) in enumerate(CASES, start=1):
        p = ModelParams(psi1=psi1, psi2=psi2, **BENCH)
        rep = stability_report(p)
        ev = ", ".join(f"{e.real:9.4f}" for e in rep.eigenvalues)
        print(f"case {i}  psi=({psi1:+.2f},{psi2:+.2f})  [{ev}]  "
              f"-> {rep.classification}")
    print()
    p = ModelParams(psi1=0.25, psi2=-0.10, **BENCH)
    rep = stability_report(p)
    print("Jacobian at the case-1 fixed point (rows/cols z, q, u, v):")
    with np.printoptions(precision=4, suppress=True):
        print(np.array(rep.jacobian))


if __name__ == "__main__":
    main()
