"""Benchmark of cesgrowth: one workload per run, or all four.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
Each workload runs in a process of its own (perfbench/worker.py), started
SETUPS times: the set-up time is the median, over those starts, of the time
from launching the process until its inputs are ready (interpreter start,
importing cesgrowth, generating the inputs). The last start goes on to run
the workload. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
wall-clock figures behind the end-to-end times go to standard error.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cli_session", "sigma_sweep", "economy_scan", "transition_paths")
SETUPS = 3
RUN_TIMEOUT_S = 170.0


def _launch(root, env, argv, timeout):
    """(set-up seconds, parsed last line) of one worker process.

    The worker gets a process group of its own, so that on a timeout or an
    interrupt the commands it started are stopped with it.
    """
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "perfbench.worker", *argv], cwd=root, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(argv)} exited with {proc.returncode}")
    doc = json.loads(out.strip().splitlines()[-1])
    return doc["ready"] - launched, doc


def run_workload(root, env, name, seed, seconds, trace) -> dict:
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setups = []
    if not trace:
        for _ in range(SETUPS - 1):
            setups.append(_launch(root, env, argv + ["--setup-only"], 60)[0])
    setup, doc = _launch(root, env, argv, deadline - time.monotonic())
    setups.append(setup)
    metrics = dict(doc["metrics"])
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    failed = sum(doc["failures"].values())
    for problem in doc["problems"]:
        print(f"[{name}] wrong: {problem}", file=sys.stderr)
    print(f"[{name}] {doc['rounds']} rounds, {doc['ops']} timed operations, "
          f"tail percentile p{doc['tail_percentile']:g}; attempted {doc['attempted']}, "
          f"failed {failed} {doc['failures']}; {doc['n_problems']} wrong outputs")
    for metric, m in metrics.items():
        print(f"[{name}] {metric:<40} {m['value']:>14.6g} {m['unit']}")
    for metric, m in doc["wall"].items():
        print(f"[{name}] wall-clock {metric:<29} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": doc["n_problems"] == 0, "attempted": doc["attempted"],
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cesgrowth", "__init__.py")):
        print(f"error: no cesgrowth sources under {src}", file=sys.stderr)
        return 2
    # The program runs in its default environment: no thread cap for the sweep pool.
    env = dict(os.environ)
    env.pop("CES_LAB_THREADS", None)
    env["PYTHONPATH"] = src + os.pathsep + root

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(root, env, n, args.seed, args.seconds, args.trace)
                   for n in names}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (out,) = results.values()
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
