"""Scenario document parsing and validation."""

import json
import math

import pytest

from cesgrowth import Scenario, ScenarioError, load_scenario, parse_scenario

VALID_PARAMS = {
    "A1": 1.05,
    "A2": 0.20,
    "alpha1": 0.6,
    "alpha2": 0.8,
    "psi1": 0.25,
    "psi2": -0.10,
    "delta_k": 0.06,
    "delta_h": 0.05,
    "eps": 2.0,
    "rho": 0.06,
}


def doc(**extra):
    d = {"params": dict(VALID_PARAMS)}
    d.update(extra)
    return d


def test_minimal_document():
    scn = parse_scenario(doc())
    assert isinstance(scn, Scenario)
    assert scn.params.A1 == 1.05
    assert scn.initial is None
    assert scn.baseline_source == "steady_state"
    assert scn.sweep is None
    assert scn.output_format == "table"


def test_full_document():
    scn = parse_scenario(
        doc(
            initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5},
            baseline={"source": "initial"},
            sweep={"sigma": "both", "lo": 0.5, "hi": 0.95, "n": 7},
            format="csv",
        )
    )
    assert scn.initial["k0"] == 5.5
    assert scn.baseline_source == "initial"
    assert scn.sweep.sigma == "both"
    assert scn.sweep.n == 7
    assert scn.output_format == "csv"


def test_initial_block_implies_initial_baseline():
    scn = parse_scenario(doc(initial={"k0": 5.0, "h0": 1.0, "u0": 0.5, "v0": 0.3}))
    assert scn.baseline_source == "initial"


def test_unknown_top_level_key():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc(settings={}))
    assert e.value.field == "$.settings"


def test_unknown_param_key():
    d = doc()
    d["params"]["gamma"] = 0.5
    with pytest.raises(ScenarioError) as e:
        parse_scenario(d)
    assert e.value.field == "$.params.gamma"


def test_missing_param():
    d = doc()
    del d["params"]["rho"]
    with pytest.raises(ScenarioError) as e:
        parse_scenario(d)
    assert e.value.field == "$.params.rho"


def test_non_numeric_param():
    d = doc()
    d["params"]["A1"] = "big"
    with pytest.raises(ScenarioError) as e:
        parse_scenario(d)
    assert e.value.field == "$.params.A1"


def test_boolean_is_not_a_number():
    d = doc()
    d["params"]["A1"] = True
    with pytest.raises(ScenarioError):
        parse_scenario(d)


@pytest.mark.parametrize("block, key, value", [
    ("params", "A1", math.inf),
    ("params", "psi1", math.nan),
    ("initial", "k0", -math.inf),
    ("initial", "h0", 10**400),
], ids=["A1-inf", "psi1-nan", "k0-minus-inf", "h0-huge-int"])
def test_non_finite_number_names_its_field(block, key, value):
    d = doc(initial={"k0": 5.5, "h0": 1.0, "u0": 0.6, "v0": 0.5})
    d[block][key] = value
    with pytest.raises(ScenarioError, match="finite") as e:
        parse_scenario(d)
    assert e.value.field == f"$.{block}.{key}"


def test_invalid_model_parameter_is_scenario_error():
    d = doc()
    d["params"]["eps"] = 0.5
    with pytest.raises(ScenarioError) as e:
        parse_scenario(d)
    assert e.value.field == "$.params"


def test_initial_allocation_range():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc(initial={"k0": 5.0, "h0": 1.0, "u0": 1.5, "v0": 0.3}))
    assert e.value.field == "$.initial.u0"


def test_baseline_initial_without_initial_block():
    with pytest.raises(ScenarioError) as e:
        parse_scenario(doc(baseline={"source": "initial"}))
    assert e.value.field == "$.baseline.source"


def test_bad_baseline_source():
    with pytest.raises(ScenarioError):
        parse_scenario(doc(baseline={"source": "midpoint"}))


def test_sweep_bounds_checked():
    with pytest.raises(ScenarioError):
        parse_scenario(doc(sweep={"lo": 2.0, "hi": 1.0, "n": 5}))
    with pytest.raises(ScenarioError):
        parse_scenario(doc(sweep={"lo": 1.0, "hi": 2.0, "n": 0}))
    with pytest.raises(ScenarioError):
        parse_scenario(doc(sweep={"sigma": "3", "lo": 1.0, "hi": 2.0, "n": 5}))


def test_sweep_defaults():
    scn = parse_scenario(doc(sweep={"lo": 1.1, "hi": 1.4}))
    assert scn.sweep.sigma == "1"
    assert scn.sweep.n == 21


def test_bad_format():
    with pytest.raises(ScenarioError):
        parse_scenario(doc(format="yaml"))


def test_non_object_document():
    with pytest.raises(ScenarioError):
        parse_scenario([1, 2, 3])


def test_load_scenario_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def test_load_scenario_integer_too_long_to_parse(tmp_path):
    path = tmp_path / "huge.json"
    text = json.dumps(doc()).replace("1.05", "1" + "0" * 5000)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ScenarioError) as e:
        load_scenario(str(path))
    assert e.value.field == "$"


def test_load_scenario_nested_past_the_recursion_limit(tmp_path):
    """A malformed file too deep for the decoder is a ScenarioError, not a
    RecursionError that would escape the CLI's exit codes."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ScenarioError) as e:
        load_scenario(str(path))
    assert e.value.field == "$"


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc()), encoding="utf-8")
    scn = load_scenario(str(path))
    assert scn.params.psi2 == -0.10
