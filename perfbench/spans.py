"""Spans at cesgrowth's module boundaries, recorded from outside the program.

install() replaces each public function named in BOUNDARIES, in the
namespace of the module that calls it, by a wrapper that records a span:
name, start, end, parent span, thread and operation. Spans stay in memory
in flat arrays and are written once, when the run ends. Per-layer figures
are self times: a span's duration minus the part of it its children cover.
"""

import importlib
import threading
import time
from array import array

import numpy as np

# (module whose namespace holds the name, attribute, span name). A function
# is replaced where its callers look it up, so calls inside the program
# are caught as well as the benchmark's own.
BOUNDARIES = (
    ("cesgrowth.cli", "main", "cli.main"),
    ("cesgrowth.cli", "load_scenario", "scenario.load_scenario"),
    ("cesgrowth.cli", "baseline_from_point", "normalization.baseline"),
    ("cesgrowth.cli", "baseline_from_steady_state", "normalization.baseline"),
    ("cesgrowth.cli", "normalized_params", "normalization.normalized_params"),
    ("cesgrowth.cli", "compare_economies", "normalization.compare_economies"),
    ("cesgrowth.cli", "steady_state", "steady.steady_state"),
    ("cesgrowth.cli", "stability_report", "stability.stability_report"),
    ("cesgrowth.cli", "eigen4", "stability.eigen4"),
    ("cesgrowth.cli", "saddle_path", "dynamics.saddle_path"),
    ("cesgrowth.cli", "reconstruct_levels", "dynamics.reconstruct_levels"),
    ("cesgrowth.normalization", "steady_state", "steady.steady_state"),
    ("cesgrowth.steady", "solve_w", "steady.solve_w"),
    ("cesgrowth.steady", "gap_P", "steady.gap_P"),
    ("cesgrowth.stability", "stability_report", "stability.stability_report"),
    ("cesgrowth.stability", "steady_state", "steady.steady_state"),
    ("cesgrowth.stability", "jacobian_fd", "stability.jacobian_fd"),
    ("cesgrowth.stability", "eigen4", "stability.eigen4"),
    ("cesgrowth.stability", "rhs_reduced_values", "stability.rhs_reduced_values"),
    ("cesgrowth.stability", "aux_from_wuv", "core.aux_from_wuv"),
    ("cesgrowth.core", "aux_from_wuv", "core.aux_from_wuv"),
    ("cesgrowth.dynamics", "saddle_path", "dynamics.saddle_path"),
    ("cesgrowth.dynamics", "reconstruct_levels", "dynamics.reconstruct_levels"),
    ("cesgrowth.dynamics", "steady_state", "steady.steady_state"),
    ("cesgrowth.dynamics", "jacobian_fd", "stability.jacobian_fd"),
    ("cesgrowth.dynamics", "rhs_reduced_values", "stability.rhs_reduced_values"),
)

OP = "op"  # the span the benchmark opens around each operation


class Tracer:
    """Span store shared by every thread of one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.thread = array("q")
        self.op = array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack = None  # stack of the thread that opened the current op
        self._op_id = -1
        self.enabled = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, nid: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to what the thread that
            # opened the operation is running.
            op_stack = self._op_stack
            parent = op_stack[-1] if op_stack else -1
        with self._lock:
            idx = len(self.start)
            self.name.append(nid)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(parent)
            self.thread.append(threading.get_ident())
            self.op.append(self._op_id)
        stack.append(idx)
        self.start[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack().pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def operation(self, call, *args, **kwargs):
        """Run call(*args, **kwargs) as one operation under an OP span."""
        if not self.enabled:
            return call(*args, **kwargs)
        self._op_id += 1
        self._op_stack = self._stack()
        idx = self._open(self.name_id(OP))
        try:
            return call(*args, **kwargs)
        finally:
            self._close(idx)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }



def install(tracer: Tracer):
    """Wrap every function in BOUNDARIES; returns a callable that undoes it."""
    saved = []
    for module_name, attr, span in BOUNDARIES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return uninstall


def save(data: dict, path):
    """Write a span set, as returned by Tracer.arrays or merge, to path (.npz)."""
    np.savez_compressed(path, **data)


def load(path) -> dict:
    with np.load(path) as f:
        return {k: f[k] for k in f.files}


# --- aggregation -------------------------------------------------------------------

def self_times(spans: dict) -> np.ndarray:
    """Self time of every span in ns.

    Children on the parent's own thread run one after another and are
    summed; children on pool threads may overlap, so their union is taken.
    """
    start, end, parent, thread = spans["start"], spans["end"], spans["parent"], spans["thread"]
    dur = end - start
    cover = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    same = has_parent.copy()
    same[has_parent] = thread[has_parent] == thread[parent[has_parent]]
    np.add.at(cover, parent[same], dur[same])
    cross = np.flatnonzero(has_parent & ~same)
    for p in np.unique(parent[cross]):
        kids = cross[parent[cross] == p]
        order = np.argsort(start[kids])
        covered, reach = 0, start[p]
        for s, e in zip(start[kids][order], end[kids][order]):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        cover[p] += covered
    return np.maximum(dur - cover, 0)


def layer_metrics(spans: dict) -> dict:
    """Per-layer figures from one run's spans; 0 where a layer was not reached."""
    names = list(spans["names"])
    name = spans["name"]
    parent = spans["parent"]
    selft = self_times(spans)

    def ids(span):
        return name == names.index(span) if span in names else np.zeros(len(name), bool)

    def mean_self(span, scale):
        sel = ids(span)
        return float(selft[sel].mean() / scale) if sel.any() else 0.0

    def per(child, parent_span):
        sel_parent = ids(parent_span)
        if not sel_parent.any():
            return 0.0
        sel_child = ids(child)
        under = sel_child & (parent >= 0)
        under[under] = sel_parent[parent[under]]
        return float(under.sum() / sel_parent.sum())

    n_ops = max(int(ids(OP).sum()), 1)
    return {
        "cli.self_ms": mean_self("cli.main", 1e6),
        "scenario.load_scenario_us": mean_self("scenario.load_scenario", 1e3),
        "normalization.normalized_params_us": mean_self("normalization.normalized_params", 1e3),
        "normalization.baseline_us": mean_self("normalization.baseline", 1e3),
        "steady.steady_state_us": mean_self("steady.steady_state", 1e3),
        "steady.solve_w_us": mean_self("steady.solve_w", 1e3),
        "steady.gap_P_us": mean_self("steady.gap_P", 1e3),
        "steady.gap_P_calls_per_solve": per("steady.gap_P", "steady.solve_w"),
        "stability.jacobian_fd_us": mean_self("stability.jacobian_fd", 1e3),
        "stability.eigen4_us": mean_self("stability.eigen4", 1e3),
        "stability.rhs_calls_per_jacobian": per("stability.rhs_reduced_values",
                                                "stability.jacobian_fd"),
        "stability.rhs_reduced_values_us": mean_self("stability.rhs_reduced_values", 1e3),
        "core.aux_from_wuv_us": mean_self("core.aux_from_wuv", 1e3),
        "core.aux_from_wuv_calls_per_op": float(ids("core.aux_from_wuv").sum() / n_ops),
        "dynamics.saddle_path_us": mean_self("dynamics.saddle_path", 1e3),
        "dynamics.reconstruct_levels_us": mean_self("dynamics.reconstruct_levels", 1e3),
        "dynamics.rhs_calls_per_path": per("stability.rhs_reduced_values",
                                           "dynamics.saddle_path"),
    }


def merge(parts) -> dict:
    """Concatenate span sets from several processes into one."""
    names = []
    out = {k: [] for k in ("name", "start", "end", "parent", "thread", "op")}
    offset = 0
    op_offset = 0
    for part in parts:
        for n in part["names"]:
            if n not in names:
                names.append(n)
        remap = np.array([names.index(n) for n in part["names"]], dtype=np.int32)
        n = len(part["start"])
        out["name"].append(remap[part["name"]] if n else part["name"])
        out["start"].append(part["start"])
        out["end"].append(part["end"])
        out["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        out["thread"].append(part["thread"])
        out["op"].append(np.where(part["op"] >= 0, part["op"] + op_offset, -1))
        offset += n
        op_offset += int(part["op"].max()) + 1 if n else 0
    merged = {k: np.concatenate(v) if v else np.zeros(0, np.int64) for k, v in out.items()}
    merged["names"] = np.array(names)
    return merged
