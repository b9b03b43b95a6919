"""Two economies differing only in their elasticities of substitution.

Two pairings are examined. In the first, the goods-sector elasticity is
above one and the education-sector elasticity below one; in the second,
both are below one. In each pairing the economy with the higher
elasticities ends up ahead on every balanced-path quantity.
"""

from cesgrowth import ModelParams, compare_economies

BENCH = dict(
    A1=1.05, A2=0.20, alpha1=0.6, alpha2=0.8,
    delta_k=0.06, delta_h=0.05, eps=2.0, rho=0.06,
)

PAIRINGS = [
    ("mixed regimes", (0.25, -0.10), (0.20, -0.15)),
    ("both below one", (-0.10, -0.15), (-0.15, -0.20)),
]


def main():
    for label, psis_a, psis_b in PAIRINGS:
        a = ModelParams(psi1=psis_a[0], psi2=psis_a[1], **BENCH)
        b = ModelParams(psi1=psis_b[0], psi2=psis_b[1], **BENCH)
        print(f"{label}: A has psi = {psis_a}, B has psi = {psis_b}")
        print(f"  {'quantity':<8} {'A':>10} {'B':>10}  ahead")
        for row in compare_economies(a, b):
            print(f"  {row.name:<8} {row.value_a:>10.4f} {row.value_b:>10.4f}  "
                  f"{row.dominant}")
        print()


if __name__ == "__main__":
    main()
