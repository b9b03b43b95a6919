"""Scenario files: JSON in, validated records out.

A scenario is a single JSON document. Unknown keys anywhere are errors so
that typos in parameter names cannot pass silently.
"""

import json
import sys
from typing import NamedTuple

from .errors import ParameterError, ScenarioError
from .params import ModelParams

_PARAM_KEYS = (
    "A1",
    "A2",
    "alpha1",
    "alpha2",
    "psi1",
    "psi2",
    "delta_k",
    "delta_h",
    "eps",
    "rho",
)
_INITIAL_KEYS = ("k0", "h0", "u0", "v0")
_SWEEP_KEYS = ("sigma", "lo", "hi", "n")
_BASELINE_SOURCES = ("initial", "steady_state")
_FORMATS = ("table", "csv", "json")


class SweepSpec(NamedTuple):
    sigma: str  # "1", "2" or "both"
    lo: float
    hi: float
    n: int


class Scenario(NamedTuple):
    params: ModelParams
    initial: dict | None = None  # k0, h0, u0, v0
    baseline_source: str = "steady_state"
    baseline_k_bar: float | None = None
    sweep: SweepSpec | None = None
    output_format: str = "table"


def _require_number(obj, key, path, positive=False):
    field = f"{path}.{key}"
    if key not in obj:
        raise ScenarioError("missing required key", field=field)
    val = obj[key]
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max):  # inf, nan or a huge int
        raise ScenarioError(f"expected a finite number, got {val!r}", field=field)
    if positive and not val > 0:
        raise ScenarioError(f"must be positive, got {val}", field=field)
    return float(val)


def _reject_unknown(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ScenarioError(
                f"unknown key (allowed: {', '.join(allowed)})", field=f"{path}.{key}"
            )


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object", field="$")
    _reject_unknown(doc, ("params", "initial", "baseline", "sweep", "format"), "$")

    if "params" not in doc:
        raise ScenarioError("missing required key", field="$.params")
    raw = doc["params"]
    if not isinstance(raw, dict):
        raise ScenarioError("must be an object", field="$.params")
    _reject_unknown(raw, _PARAM_KEYS, "$.params")
    kwargs = {k: _require_number(raw, k, "$.params") for k in _PARAM_KEYS}
    try:
        params = ModelParams(**kwargs)
    except ParameterError as exc:
        raise ScenarioError(str(exc), field="$.params") from exc

    initial = None
    if "initial" in doc:
        raw = doc["initial"]
        if not isinstance(raw, dict):
            raise ScenarioError("must be an object", field="$.initial")
        _reject_unknown(raw, _INITIAL_KEYS, "$.initial")
        initial = {k: _require_number(raw, k, "$.initial", positive=True)
                   for k in _INITIAL_KEYS}
        for key in ("u0", "v0"):
            if not initial[key] < 1.0:
                raise ScenarioError(
                    f"must be in (0,1), got {initial[key]}", field=f"$.initial.{key}"
                )

    baseline_source = "steady_state" if initial is None else "initial"
    baseline_k_bar = None
    if "baseline" in doc:
        raw = doc["baseline"]
        if not isinstance(raw, dict):
            raise ScenarioError("must be an object", field="$.baseline")
        _reject_unknown(raw, ("source", "k_bar"), "$.baseline")
        if "source" in raw:
            if raw["source"] not in _BASELINE_SOURCES:
                raise ScenarioError(
                    f"must be one of {_BASELINE_SOURCES}, got {raw['source']!r}",
                    field="$.baseline.source",
                )
            baseline_source = raw["source"]
        if "k_bar" in raw:
            baseline_k_bar = _require_number(raw, "k_bar", "$.baseline", positive=True)
    if baseline_source == "initial" and initial is None:
        raise ScenarioError(
            "baseline source 'initial' needs an initial block", field="$.baseline.source"
        )

    sweep = None
    if "sweep" in doc:
        raw = doc["sweep"]
        if not isinstance(raw, dict):
            raise ScenarioError("must be an object", field="$.sweep")
        _reject_unknown(raw, _SWEEP_KEYS, "$.sweep")
        sigma = raw.get("sigma", "1")
        if sigma not in ("1", "2", "both"):
            raise ScenarioError(
                f"must be '1', '2' or 'both', got {sigma!r}", field="$.sweep.sigma"
            )
        lo = _require_number(raw, "lo", "$.sweep", positive=True)
        hi = _require_number(raw, "hi", "$.sweep", positive=True)
        if not hi > lo:
            raise ScenarioError(f"hi must exceed lo, got [{lo}, {hi}]", field="$.sweep")
        n = raw.get("n", 21)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ScenarioError(f"n must be a positive integer, got {n!r}",
                                field="$.sweep.n")
        sweep = SweepSpec(sigma=sigma, lo=lo, hi=hi, n=n)

    output_format = doc.get("format", "table")
    if output_format not in _FORMATS:
        raise ScenarioError(
            f"must be one of {_FORMATS}, got {output_format!r}", field="$.format"
        )

    return Scenario(
        params=params,
        initial=initial,
        baseline_source=baseline_source,
        baseline_k_bar=baseline_k_bar,
        sweep=sweep,
        output_format=output_format,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # malformed, a huge integer, or too deep
        raise ScenarioError(f"invalid JSON in {path}: {exc}", field="$") from exc
    return parse_scenario(doc)
