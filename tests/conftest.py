"""Shared fixtures: benchmark parameter sets and a seeded generator."""

import numpy as np
import pytest

from cesgrowth import ModelParams

BENCH = dict(
    A1=1.05,
    A2=0.20,
    alpha1=0.6,
    alpha2=0.8,
    delta_k=0.06,
    delta_h=0.05,
    eps=2.0,
    rho=0.06,
)

# (psi1, psi2) of the five benchmark substitution configurations.
CASE_PSI = {
    1: (0.25, -0.10),
    2: (-0.10, -0.15),
    3: (0.15, 0.10),
    4: (0.10, 0.15),
    5: (-0.15, -0.10),
}

# A validated economy whose u* rounds to 1.0, where the v* denominator
# 1 + (tau0 - 1) u* rounds to 0.
U_STAR_AT_ONE = {
    "A1": 17.20917814008648, "A2": 0.02859717664599676,
    "alpha1": 0.7286639076611194, "alpha2": 0.8005539540471218,
    "psi1": 0.3079030413027608, "psi2": 0.8514594034685632,
    "delta_k": 0.21328162163942577, "delta_h": 0.29316332170954645,
    "eps": 3.5123964792098006, "rho": 0.1569467022412699,
}

# Economy 26 of the wider draw of SLOW_SADDLE (default_rng(3), 20 000 draws):
# u* = 1 - 3.2e-15, so the (1 - u) Y2 term of the rhs, with Y2 about 8e13,
# is rounding noise at x*. It solves, with tau0* < 1, and is a saddle.
U_STAR_NEAR_ONE = {
    "A1": 2.4622863928727905, "A2": 0.07167977103005811,
    "alpha1": 0.8033745275638858, "alpha2": 0.9379722086176344,
    "psi1": -2.393688598405628, "psi2": 0.8621552968487101,
    "delta_k": 0.07391180311883483, "delta_h": 0.19757053924551665,
    "eps": 2.8103915597332536, "rho": 0.18230015177214529,
}

# A validated economy whose education output Y2 = A2 P2^{1/psi2} underflows
# to 0 at its root: A2 is the least subnormal double. Its sectors are
# identical, and r* + delta_h = -0.125 < 0, so u* = 1 - (r* + delta_h)/Y2
# is +inf.
Y2_UNDERFLOW = {
    "A1": 0.25, "A2": 5e-324, "alpha1": 0.5, "alpha2": 0.5, "psi1": 0.5, "psi2": 0.5,
    "delta_k": 0.25, "delta_h": 0.0, "eps": 2.0, "rho": 0.25,
}

# A validated economy (psi2 < 1) whose education share term overflows a
# double at w = 10, the second probe of the bracket search: the exponent
# of w in S2 is psi2 (1 - psi1) / (1 - psi2), about 393.
KERNEL_OVERFLOW = {
    "A1": 1.05, "A2": 0.31212136251889067,
    "alpha1": 0.6, "alpha2": 0.3246063214394669,
    "psi1": 0.25, "psi2": 0.9980952380952381,
    "delta_k": 0.06, "delta_h": 0.05, "eps": 2.0, "rho": 0.06,
}

# Validated economies where a float Newton step in ln w exceeds about 709,
# so that e**step overflows a double. The first has v* = 1.0, outside
# (0,1); the second solves.
NEWTON_OVERFLOW = (
    {"A1": 1.14, "A2": 0.31, "alpha1": 0.84, "alpha2": 0.13, "psi1": 0.9,
     "psi2": 0.76, "delta_k": 0.22, "delta_h": 0.17, "eps": 7.5, "rho": 0.13},
    {"A1": 0.93, "A2": 0.16, "alpha1": 0.75, "alpha2": 0.06, "psi1": 0.72,
     "psi2": 0.79, "delta_k": 0.16, "delta_h": 0.05, "eps": 6.8, "rho": 0.15},
)

# A validated economy whose gap near its root is rounding noise larger than
# a Newton step of NEWTON_RTOL: P1^{1/psi1} with psi1 = 2.6e-5 raises P1's
# rounding to the power 38 462. Newton's iterates alternated about the root.
NEWTON_CYCLE = {
    "A1": 3.088, "A2": 1.941, "alpha1": 0.706, "alpha2": 0.374, "psi1": 2.6e-5,
    "psi2": 0.0777, "delta_k": 0.154, "delta_h": 0.268, "eps": 1.744, "rho": 0.213,
}

# Stiff economies (|lambda| of 400-1 100) from the benchmark's economy_scan
# pool, perfbench.workloads.draw_economies(default_rng(12345), 3000)[i]:
# their structural zero eigenvalue sits within 1e-6 of zero.
STIFF_POOL = {
    35: {"A1": 1.0578694087171487, "A2": 0.2708142807980521,
         "alpha1": 0.4289210850690004, "alpha2": 0.3414802331456483,
         "psi1": -0.20149697315146053, "psi2": 0.10933769438879676,
         "delta_k": 1.731606670964947e-05, "delta_h": 0.06882508109547683,
         "eps": 3.301345376698999, "rho": 0.08893235548915267},
    420: {"A1": 1.082816709449165, "A2": 0.2583348720963845,
          "alpha1": 0.43635960555794673, "alpha2": 0.4765844661915637,
          "psi1": -0.26675849390054157, "psi2": -0.4529684387961928,
          "delta_k": 0.06090841609017175, "delta_h": 0.04171608841061456,
          "eps": 3.2093858708174876, "rho": 0.030641723575755057},
    1912: {"A1": 0.941544713661586, "A2": 0.36448437075011475,
           "alpha1": 0.4402059864167212, "alpha2": 0.5207642800843819,
           "psi1": 0.28046992704443025, "psi2": -0.26000004028404594,
           "delta_k": 0.09519232936013047, "delta_h": 0.020765307739183204,
           "eps": 3.650930361857076, "rho": 0.08609874690317172},
}

# A saddle from a wider seeded draw (default_rng(3); A1 U(0.2, 5), A2
# U(0.01, 2), alpha U(0.05, 0.95), psi U(-3, 0.9), delta U(0, 0.2), eps
# U(1.01, 6), rho U(0.001, 0.2)) whose stable root, -1.164e-4, lies closer
# to zero than 1e-3: no fixed band around zero tells it from the
# structural zero, at about 1e-14. Its other two roots are 0.3440 and 0.3441.
SLOW_SADDLE = {
    "A1": 0.5466271722543803, "A2": 1.4353586839941792,
    "alpha1": 0.8730669999199027, "alpha2": 0.2858043335412596,
    "psi1": -1.9098579949454202, "psi2": 0.45479612004861325,
    "delta_k": 0.06612804451377352, "delta_h": 0.1641665587619914,
    "eps": 2.8550533183258375, "rho": 0.016471613299089735,
}


def bench_params(psi1: float, psi2: float) -> ModelParams:
    return ModelParams(psi1=psi1, psi2=psi2, **BENCH)


@pytest.fixture
def params_case1() -> ModelParams:
    return bench_params(*CASE_PSI[1])


@pytest.fixture
def params_case2() -> ModelParams:
    return bench_params(*CASE_PSI[2])


@pytest.fixture(params=sorted(CASE_PSI))
def params_any_case(request) -> ModelParams:
    return bench_params(*CASE_PSI[request.param])


@pytest.fixture
def params_u_star_near_one() -> ModelParams:
    return ModelParams(**U_STAR_NEAR_ONE)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
