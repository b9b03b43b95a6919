"""Validation behaviour of the records."""

import math

import numpy as np
import pytest

from cesgrowth import (
    ModelParams,
    ParameterError,
    baseline_from_point,
    compare_economies,
    normalized_params,
    parse_scenario,
    stability_report,
)
from cesgrowth.normalization import ComparisonRow
from cesgrowth.params import is_array

from conftest import BENCH, bench_params


def test_is_array_sends_numpy_scalars_down_the_scalar_path():
    for number in (1.0, 1 + 2j, np.float64(1.0), np.complex128(1j), np.bool_(True)):
        assert not is_array(number)
    assert is_array(np.array([1.0])) and is_array(np.ones((2, 2)))


def test_numpy_scalar_fields_are_stored_as_python_floats():
    """A numpy scalar field would run the float kernel in numpy-scalar
    arithmetic; ModelParams stores it as a float and leaves arrays alone."""
    fields = dict(BENCH, psi1=0.25, psi2=-0.10)
    p = ModelParams(**{name: np.float64(x) for name, x in fields.items()})
    assert all(type(x) is float for x in p)
    assert p == bench_params(0.25, -0.10)
    assert all(type(x) is float for x in ModelParams(*map(np.float64, p)))
    assert type(p._replace(rho=np.float64(0.05)).rho) is float
    family = ModelParams(**dict(fields, psi1=np.array([0.25, 0.3]), rho=np.float64(0.06)))
    assert isinstance(family.psi1, np.ndarray) and type(family.rho) is float


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
    p2 = p._replace(psi1=-0.15, psi2=-0.20)
    assert p2.psi1 == -0.15 and p2.psi2 == -0.20
    assert p2.A1 == p.A1 and p2.rho == p.rho


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


def _records():
    """One instance of every record type the package returns."""
    p = bench_params(0.25, -0.10)
    p.theta, p.rate_terms  # fill the cache, so that assigning cannot pass as filling it
    rep = stability_report(p)
    scn = parse_scenario({"params": dict(p._asdict()),
                          "sweep": {"lo": 0.5, "hi": 2.0, "n": 3}})
    return [
        p,
        rep.steady,
        rep,
        baseline_from_point(p, 5.5, 1.0, 0.6, 0.5),
        compare_economies(p, p)[0],
        scn,
        scn.sweep,
    ]


def test_records_refuse_every_assignment():
    """A field, a cached property or a new attribute: each raises
    AttributeError, as on the frozen records these replace."""
    records = _records()
    for record in records:
        names = [record._fields[0], "not_a_field"]
        if isinstance(record, ModelParams):
            names += ["theta", "rate_terms"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert records[0].theta == pytest.approx(0.6 * 0.2 / (0.8 * 0.4))


def test_records_are_named_tuples():
    p = bench_params(0.25, -0.10)
    assert tuple(p) == tuple(p._asdict().values()) and len(p) == 10
    row = ComparisonRow("z_star", 10.7, 5.2, "A")
    assert row == ("z_star", 10.7, 5.2, "A")
    assert hash(row) == hash(("z_star", 10.7, 5.2, "A"))


def test_changed_copies_are_validated():
    """normalized_params and _replace build through the validating
    constructor; a plain NamedTuple's _replace would skip it."""
    p = bench_params(0.25, -0.10)
    with pytest.raises(ParameterError, match="psi1"):
        p._replace(psi1=1.0)
    with pytest.raises(ParameterError, match="psi2"):
        p._replace(psi2=0.0)
    base = baseline_from_point(p, 5.5, 1.0, 0.6, 0.5)
    with pytest.raises(ParameterError, match="psi1 must be < 1, got 1.0"):
        normalized_params(1e16, 2.0, base, p)
    for record, change in (
        (p, {"alpha1": 0.0}),
        (p, {"eps": 1.0}),
        (base, {"w_bar": 0.0}),
        (base, {"tau_bar": 2.0 * base.tau_bar}),
    ):
        with pytest.raises(ParameterError):
            record._replace(**change)
        with pytest.raises(ParameterError):
            type(record)._make({**record._asdict(), **change}.values())
    assert p._replace(rho=0.07).rho == 0.07 and p._replace(psi1=-0.15).psi1 == -0.15
