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
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
