"""The paper's parameter sets and tabled values.

These are the values tests/test_acceptance.py freezes from the paper's
tables; the benchmark keeps its own copy so that it depends on nothing of
the repository outside its directory but the program under test.
"""

# Common parameters of the five benchmark economies.
BENCH = dict(
    A1=1.05, A2=0.20, alpha1=0.6, alpha2=0.8,
    delta_k=0.06, delta_h=0.05, eps=2.0, rho=0.06,
)

# (psi1, psi2) of the five benchmark substitution configurations.
CASE_PSI = {
    1: (0.25, -0.10),
    2: (-0.10, -0.15),
    3: (0.15, 0.10),
    4: (0.10, 0.15),
    5: (-0.15, -0.10),
}

# (z*, u*, v*, q*) per case, to within 0.01.
CASE_TARGETS = {
    1: (10.73, 0.882, 0.866, 0.240),
    2: (5.18, 0.874, 0.759, 0.267),
    3: (7.56, 0.923, 0.818, 0.254),
    4: (6.73, 0.933, 0.799, 0.259),
    5: (4.87, 0.884, 0.745, 0.271),
}

# Real parts of the eigenvalues per case, ascending.
CASE_EV = {
    1: (-12.788, 0.0014, 0.173, 12.963),
    2: (-1.907, 0.000, 0.157, 2.064),
    3: (-2.104, 0.000, 0.174, 2.278),
    4: (-1.699, 0.000, 0.173, 1.872),
    5: (-1.615, 0.000, 0.158, 1.773),
}

# The two-economy tables: economy (psi1, psi2) -> {field: (value, tolerance)}.
TWO_ECONOMY = {
    (0.25, -0.10): {
        "r_star": (0.1150, 0.0005), "pi1k": (0.730, 0.002), "pi2k": (0.757, 0.002),
        "u_star": (0.8821, 0.001), "v_star": (0.8665, 0.001),
    },
    (0.20, -0.15): {"r_star": (0.1102, 0.0005), "u_star": (0.8723, 0.001)},
    (-0.10, -0.15): {"r_star": (0.0976, 0.0005)},
    (-0.15, -0.20): {"r_star": (0.0949, 0.0005)},
}

# The two alternatives compared in the paper: (economy A, economy B).
ALTERNATIVES = (
    ((0.25, -0.10), (0.20, -0.15)),
    ((-0.10, -0.15), (-0.15, -0.20)),
)

# The README scenario's initial point, which anchors its normalized family.
README_INITIAL = {"k0": 5.5, "h0": 1.0, "u0": 0.60, "v0": 0.50}
README_SWEEP = {"sigma": "1", "lo": 1.05, "hi": 1.45, "n": 9}


def case_params(psi1: float, psi2: float) -> dict:
    return dict(BENCH, psi1=psi1, psi2=psi2)


def eigenvalue_matches(computed: float, target: float) -> bool:
    """The acceptance suite's tolerance for one tabled eigenvalue's real part."""
    if abs(target) >= 1.0:
        return abs(computed - target) <= 0.02 * abs(target)
    if abs(target) >= 0.01:
        return abs(computed - target) <= 0.05
    return abs(computed) <= 0.01
