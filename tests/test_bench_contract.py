"""The names the benchmark's traced run wraps must stay where it looks for them.

perfbench.spans replaces each (module, attribute) in BOUNDARIES by a
recording wrapper, in the namespace its callers read it from. A refactor
that drops, renames or inlines one of them should fail here rather than
in a later `--trace 1` run.
"""

import importlib
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.spans import BOUNDARIES  # noqa: E402

from cesgrowth import steady  # noqa: E402

from conftest import bench_params  # noqa: E402


def test_every_boundary_resolves_to_a_callable():
    for module_name, attr, _ in BOUNDARIES:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_solve_w_looks_up_gap_p_at_call_time(monkeypatch):
    calls = []
    original = steady.gap_P

    def counting(w, params):
        calls.append(w)
        return original(w, params)

    monkeypatch.setattr(steady, "gap_P", counting)
    steady.solve_w(bench_params(0.25, -0.10))
    # The bracket search probes powers of ten; the root refinement in between,
    # at complex points w e^{ih} whose real part is the iterate.
    assert any(not math.log10(w.real).is_integer() for w in calls)
