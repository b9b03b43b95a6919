"""The process that runs one workload against cesgrowth.

    python -m perfbench.worker --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Run from the root of a checkout with src/ on PYTHONPATH and CES_LAB_THREADS
unset; perfbench/run.py launches it so. Set-up (imports and inputs) ends at
the clock reading "ready"; with --setup-only the process stops there.
Otherwise the workload computes what its checks compare against and one
untimed warm-up follows, then whole rounds until S seconds have passed and,
untraced, until the run holds enough operations for its tail percentile.
The workload's yardstick, a fixed computation that runs no cesgrowth code,
is timed between operations (workloads.Yardstick), and each latency is
reported as a multiple of the yardstick's time beside it. With --trace 1,
traced and untraced rounds alternate, and the per-layer figures come from
the traced ones. The last line of standard output is one JSON object.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from array import array

HARD_STOP_S = 140.0  # leave room within the 180 s a run may take


class Phase:
    """Totals of the rounds run one way, traced or not."""

    def __init__(self):
        self.latencies_ns = array("q")  # flat, so that a long run holds no int objects
        self.relative = array("d")  # each latency over the yardstick's time beside it
        self.yardsticks_ns = array("d")
        self.round_ops = 0  # operations in a round; the same in every round
        self.attempted = 0
        self.failures = {}
        self.problems = []

    def add(self, rnd):
        self.round_ops = len(rnd.latencies_ns)
        self.latencies_ns.extend(rnd.latencies_ns)
        self.relative.extend(ns / y for ns, y in zip(rnd.latencies_ns, rnd.yardsticks_ns))
        self.yardsticks_ns.extend(rnd.yardsticks_ns)
        self.attempted += rnd.attempted
        for cause, n in rnd.failures.items():
            self.failures[cause] = self.failures.get(cause, 0) + n
        self.problems += rnd.problems

    def throughput(self) -> float:
        """Units of work per second of timed calls."""
        return self.attempted / (sum(self.latencies_ns) / 1e9)

    def relative_throughput(self) -> float:
        """Units of work per yardstick time of timed calls."""
        return self.attempted / sum(self.relative)


def percentile(values, q):
    """q-th percentile by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_latency(lat_ms, q, round_ops):
    """Median over blocks of consecutive rounds of each block's q-th percentile.

    A block holds the fewest whole rounds (of round_ops operations) that leave
    ten operations beyond the q-th percentile, so that every block holds the
    same kinds of operation; the last block takes the remainder. A run
    shorter than one block is one block.
    """
    size = math.ceil(round(10.0 / (1.0 - q / 100.0)) / round_ops) * round_ops
    starts = range(0, max(len(lat_ms) - size, 0) + 1, size)
    blocks = [lat_ms[i:i + size] for i in starts]
    blocks[-1] = lat_ms[starts[-1]:]
    return statistics.median(percentile(b, q) for b in blocks)


def end_to_end(workload, phase) -> dict:
    """The end-to-end metrics; times are in yardsticks (see the README)."""
    peak_mb = workload.peak_rss_mb()  # before the figures below take memory of their own
    tail = tail_latency(phase.relative, workload.tail_percentile, phase.round_ops)
    return {
        "latency_p50": {"value": percentile(phase.relative, 50.0), "unit": "yardstick"},
        "latency_tail": {"value": tail, "unit": "yardstick"},
        "throughput": {"value": phase.relative_throughput(), "unit": "1/yardstick"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def wall_clock(workload, phase) -> dict:
    """The same figures in wall-clock time, and the yardstick's median time, for reading."""
    lat_ms = [ns / 1e6 for ns in phase.latencies_ns]
    tail = tail_latency(lat_ms, workload.tail_percentile, phase.round_ops)
    return {
        "latency_p50_ms": {"value": percentile(lat_ms, 50.0), "unit": "ms"},
        "latency_tail_ms": {"value": tail, "unit": "ms"},
        "throughput_per_s": {"value": phase.throughput(), "unit": "1/s"},
        "yardstick_ms": {"value": statistics.median(phase.yardsticks_ns) / 1e6, "unit": "ms"},
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(.*)$")


IMPORT_REPEATS = 3


def import_metrics(root: str) -> dict:
    """Interpreter start and imports: medians over IMPORT_REPEATS fresh `python -X importtime`."""
    samples = {"import.total_ms": [], "import.scipy_ms": [], "import.numpy_ms": [],
               "import.cesgrowth_self_ms": []}
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cesgrowth.cli"],
                              cwd=root, capture_output=True, text=True, timeout=60,
                              check=True)
        samples["import.total_ms"].append((time.perf_counter() - t0) * 1e3)
        self_us = {"scipy": 0, "numpy": 0, "cesgrowth": 0}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                top = m.group(3).strip().split(".")[0]
                if top in self_us:
                    self_us[top] += int(m.group(1))
        samples["import.scipy_ms"].append(self_us["scipy"] / 1e3)
        samples["import.numpy_ms"].append(self_us["numpy"] / 1e3)
        samples["import.cesgrowth_self_ms"].append(self_us["cesgrowth"] / 1e3)
    return {name: {"value": statistics.median(v), "unit": "ms"} for name, v in samples.items()}


def per_layer(workload, tracer, phases, root) -> dict:
    from perfbench import spans

    if workload.name == "cli_session":
        data = spans.merge([spans.load(f) for f in workload.span_files])
    else:
        data = tracer.arrays()
    layers = spans.layer_metrics(data)
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layers.items()}
    metrics.update(import_metrics(root))
    plain = phases["untraced"].relative_throughput()
    traced = phases["traced"].relative_throughput()
    metrics["trace.overhead_pct"] = {"value": (plain - traced) / plain * 100.0, "unit": "%"}
    os.makedirs(os.path.join(root, "perfbench", "out"), exist_ok=True)
    spans.save(data, os.path.join(root, "perfbench", "out", f"spans-{workload.name}.npz"))
    return metrics


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import cesgrowth  # noqa: F401 - the program's import is part of set-up

    from perfbench import spans
    from perfbench.workloads import WORKLOADS

    root = os.getcwd()
    workdir = os.path.join(root, "perfbench", "out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = spans.Tracer()
        workload = WORKLOADS[args.workload](root, args.seed, workdir)
        workload.prepare()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        workload.references()
        workload.warm_up(tracer)
        started = time.monotonic()

        phases = {"untraced": Phase(), "traced": Phase()}
        n_round = 0
        workload.yardstick.start()
        while True:
            traced = bool(args.trace) and n_round % 2 == 1
            if traced:
                uninstall = spans.install(tracer)
                tracer.enabled = True
            try:
                rnd = workload.run_round(tracer)
            finally:
                if traced:
                    tracer.enabled = False
                    uninstall()
            workload.yardstick.close(rnd)
            phases["traced" if traced else "untraced"].add(rnd)
            n_round += 1
            elapsed = time.monotonic() - started
            enough = (phases["traced"].attempted > 0 if args.trace
                      else len(phases["untraced"].latencies_ns) >= workload.min_ops)
            if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and enough):
                break

        if args.trace:
            metrics = per_layer(workload, tracer, phases, root)
        else:
            metrics = end_to_end(workload, phases["untraced"])
        total = Phase()
        for phase in phases.values():
            total.attempted += phase.attempted
            total.problems += phase.problems
            for cause, n in phase.failures.items():
                total.failures[cause] = total.failures.get(cause, 0) + n
        print(json.dumps({
            "ready": ready,
            "rounds": n_round,
            "ops": sum(len(p.latencies_ns) for p in phases.values()),
            "tail_percentile": workload.tail_percentile,
            "attempted": total.attempted,
            "failures": total.failures,
            "problems": total.problems[:20],
            "n_problems": len(total.problems),
            "metrics": metrics,
            "wall": wall_clock(workload, phases["untraced"]),
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
