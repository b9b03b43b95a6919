"""Validation behaviour of the parameter and state records."""

import math

import numpy as np
import pytest

from cesgrowth import LevelState, ModelParams, ParameterError, ReducedState
from cesgrowth.params import is_array

from conftest import BENCH, bench_params


def test_is_array_sends_numpy_scalars_down_the_scalar_path():
    for number in (1.0, 1 + 2j, np.float64(1.0), np.complex128(1j), np.bool_(True)):
        assert not is_array(number)
    assert is_array(np.array([1.0])) and is_array(np.ones((2, 2)))


def test_valid_construction():
    p = bench_params(0.25, -0.10)
    assert p.sigma1 == pytest.approx(1.0 / 0.75)
    assert p.sigma2 == pytest.approx(1.0 / 1.10)
    assert p.theta == pytest.approx(0.6 * 0.2 / (0.8 * 0.4))


@pytest.mark.parametrize(
    "field,value",
    [
        ("alpha1", 0.0),
        ("alpha1", 1.0),
        ("alpha2", -0.2),
        ("psi1", 1.0),
        ("psi1", 1.5),
        ("psi2", 0.0),
        ("psi1", 1e-12),
        ("A1", 0.0),
        ("A2", -0.1),
        ("delta_k", -0.01),
        ("rho", 0.0),
        ("eps", 1.0),
        ("eps", 0.5),
        ("delta_k", math.nan),
        ("delta_h", math.inf),
        ("A1", math.inf),
        ("A2", math.inf),
        ("rho", math.inf),
        ("eps", math.inf),
        ("A2", np.array([0.2, math.inf])),
    ],
)
def test_invalid_params_rejected(field, value):
    kwargs = dict(BENCH, psi1=0.25, psi2=-0.10)
    kwargs[field] = value
    with pytest.raises(ParameterError, match=field):
        ModelParams(**kwargs)


def test_a2_zero_is_constructible():
    kwargs = dict(BENCH, psi1=0.25, psi2=-0.10)
    kwargs["A2"] = 0.0
    ModelParams(**kwargs)


def test_with_psi_keeps_other_fields():
    p = bench_params(0.25, -0.10)
    p2 = p.with_psi(-0.15, -0.20)
    assert p2.psi1 == -0.15 and p2.psi2 == -0.20
    assert p2.A1 == p.A1 and p2.rho == p.rho


def test_reduced_state_roundtrip():
    s = ReducedState(z=10.7, q=0.24, u=0.88, v=0.87)
    arr = s.as_array()
    assert arr.shape == (4,)
    s2 = ReducedState.from_array(arr)
    assert s2 == s


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(z=0.0, q=0.2, u=0.5, v=0.4),
        dict(z=1.0, q=-0.2, u=0.5, v=0.4),
        dict(z=1.0, q=0.2, u=1.0, v=0.4),
        dict(z=1.0, q=0.2, u=0.5, v=0.0),
    ],
)
def test_reduced_state_rejects_out_of_range(kwargs):
    with pytest.raises(ParameterError):
        ReducedState(**kwargs)


def test_level_state_rejects_out_of_range():
    with pytest.raises(ParameterError):
        LevelState(k=-1.0, h=1.0, c=0.1, u=0.5, v=0.4)
    with pytest.raises(ParameterError):
        LevelState(k=1.0, h=1.0, c=0.1, u=0.5, v=1.2)
    LevelState(k=1.0, h=1.0, c=0.0, u=0.5, v=0.4)


def test_frozen():
    p = bench_params(0.25, -0.10)
    with pytest.raises(Exception):
        p.A1 = 2.0


def test_array_fields_validate_elementwise():
    """One record can hold a family of economies, valid when each one is."""
    kwargs = dict(BENCH, psi1=np.array([0.25, -0.3]), psi2=-0.10)
    family = ModelParams(**kwargs)
    assert np.allclose(family.sigma1, [1.0 / 0.75, 1.0 / 1.3])
    for field, value in (("psi1", [0.25, 1.0]), ("alpha2", [0.5, 1.0]),
                         ("A1", [1.0, 0.0]), ("psi2", [-0.1, 1e-12])):
        with pytest.raises(ParameterError, match=field):
            ModelParams(**dict(kwargs, **{field: np.array(value)}))
