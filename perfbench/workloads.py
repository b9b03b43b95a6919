"""The four workloads: their inputs, their operations and the checks of their outputs.

A workload runs in rounds. Every round attempts the same operations on
inputs drawn from the seed and on fixed inputs, and the program is known
to fail only on fixed inputs, so that the share of failed operations is
the same in every run. Only the call into the program is timed; inputs are
written and outputs checked between the timed calls.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import checks as C
from . import model as M
from . import paper

@dataclass
class Round:
    """What one round attempted, how long each timed call took, and what failed."""

    latencies_ns: list = field(default_factory=list)
    yardsticks_ns: list = field(default_factory=list)  # per latency, the yardstick's time beside it
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # cause -> count
    problems: list = field(default_factory=list)

    def fail(self, cause: str, kept: bool, what: str):
        self.failures[cause] = self.failures.get(cause, 0) + 1
        if not kept:
            self.problems.append(f"{what}: {cause} on an input chosen to succeed")


class Yardstick:
    """Times a workload's yardstick between its operations, at most every every_s seconds.

    Each operation is paired with the larger of the two samples taken just
    before and just after the stretch of operations it ran in, so that a
    change in the host's speed within a round is followed. Where the host
    changed speed within the stretch, the larger sample may read an
    operation as faster than it was, never as slower, so that the tail
    percentiles keep to the operations that were slow.
    """

    def __init__(self, measure, every_s):
        self.measure = measure
        self.every_ns = every_s * 1e9
        self.before = None  # the last sample, ns
        self.taken_at = 0
        self.waiting = 0  # operations run since the last sample

    def start(self):
        self.before = self.measure()
        self.taken_at = time.perf_counter_ns()

    def after_op(self, rnd):
        self.waiting += 1
        if time.perf_counter_ns() - self.taken_at >= self.every_ns:
            self.close(rnd)

    def close(self, rnd):
        """Take a sample and pair it with the operations waiting for one."""
        if not self.waiting:
            return
        after = self.measure()
        before = after if self.before is None else self.before
        rnd.yardsticks_ns += [max(before, after)] * self.waiting
        self.before, self.taken_at, self.waiting = after, time.perf_counter_ns(), 0


def _timed(tracer, call, *args):
    """(result, exception, ns) of one call into the program."""
    t0 = time.perf_counter_ns()
    try:
        out = tracer.operation(call, *args)
        exc = None
    except Exception as err:  # noqa: BLE001 - any failure is an outcome to count
        # Without its traceback the error holds no frame, so no reference
        # cycle keeps a round's outputs alive until the next collection.
        out, exc = None, err.with_traceback(None)
    return out, exc, time.perf_counter_ns() - t0


def _x_star(e: M.Economy):
    w, _ = M.scan_roots(e)
    bp = M.balanced_path(e, w)
    return np.array([bp["z_star"], bp["q_star"], bp["u_star"], bp["v_star"]], dtype=float)


def _case_economy(case: int) -> M.Economy:
    return M.economy_of(paper.case_params(*paper.CASE_PSI[case]))


class Workload:
    name = ""
    tail_percentile = 50.0  # the tail latency reported, as a percentile
    yardstick_every_s = 0.2

    @property
    def min_ops(self) -> int:
        """Operations a run needs for ten of them to lie beyond the tail percentile."""
        return round(10.0 / (1.0 - self.tail_percentile / 100.0))

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.yardstick = Yardstick(self.yardstick_ns, self.yardstick_every_s)

    def prepare(self):
        """Generate the inputs; part of the measured set-up."""

    def references(self):
        """Compute what the checks compare against; after set-up, untimed."""

    def warm_up(self, tracer):
        """One untimed operation."""

    def run_round(self, tracer) -> Round:
        """One round; each operation's latency goes in with record()."""
        raise NotImplementedError

    def record(self, rnd: Round, ns: int):
        rnd.latencies_ns.append(ns)
        self.yardstick.after_op(rnd)

    def yardstick_ns(self) -> float:
        """Time of the yardstick: the median of three root scans of case 3 in the benchmark's model.

        No cesgrowth code runs in it, so no change to the program moves it,
        while the host's changing speed moves it as it moves the program's
        numpy-bound calls.
        """
        e = _case_economy(3)
        times = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            M.scan_roots(e)
            times.append(time.perf_counter_ns() - t0)
        return statistics.median(times)

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- economy_scan ------------------------------------------------------------------

def draw_economies(rng, n):
    """n parameter sets from the acceptance suite's random-economy ranges."""
    sign1 = rng.choice([-1.0, 1.0], n)
    sign2 = rng.choice([-1.0, 1.0], n)
    return M.Economy(
        A1=rng.uniform(0.5, 2.0, n), A2=rng.uniform(0.1, 0.5, n),
        alpha1=rng.uniform(0.3, 0.8, n), alpha2=rng.uniform(0.3, 0.9, n),
        psi1=sign1 * rng.uniform(0.05, 0.5, n), psi2=sign2 * rng.uniform(0.05, 0.5, n),
        delta_k=rng.uniform(0.0, 0.1, n), delta_h=rng.uniform(0.0, 0.1, n),
        eps=rng.uniform(1.5, 4.0, n), rho=rng.uniform(0.01, 0.1, n),
    )


# economy_scan's pool: POOL_SIZE draws made from POOL_SEED, whatever the
# run's seed, so that the program's failures on it, and their share, are
# the same in every run. The run's seed sets the order a round visits it in.
POOL_SEED = 12345
POOL_SIZE = 3000


def economy_references(e: M.Economy) -> dict:
    """The model's verdict on each economy: root, starred values, spectrum."""
    w, roots = M.scan_roots(e)
    with np.errstate(all="ignore"):
        bp = M.balanced_path(e, w)
        has_path = (roots == 1) & M.admissible(bp)
        x = np.stack([bp["z_star"], bp["q_star"], bp["u_star"], bp["v_star"]], axis=-1)
        jac = M.jacobian(e, np.where(has_path[:, None], x, 0.5))
    jac = np.where(np.isfinite(jac) & has_path[:, None, None], jac, np.eye(4))
    return {"has_path": has_path, "eigenvalues": np.linalg.eigvals(jac)}


class EconomyScan(Workload):
    name = "economy_scan"
    tail_percentile = 99.0

    def prepare(self):
        from cesgrowth import ModelParams, stability

        self.stability = stability
        pool = draw_economies(np.random.default_rng(POOL_SEED), POOL_SIZE)
        self.econ = M.take(pool, self.rng.permutation(POOL_SIZE))
        self.params = [
            ModelParams(**{n: float(getattr(self.econ, n)[i]) for n in M.PARAM_NAMES})
            for i in range(POOL_SIZE)
        ]

    def references(self):
        self.ref = economy_references(self.econ)

    def warm_up(self, tracer):
        _timed(tracer, self.stability.stability_report, self.params[0])

    def run_round(self, tracer) -> Round:
        from cesgrowth import CesGrowthError

        rnd = Round()
        reports = []
        for p in self.params:
            out, exc, ns = _timed(tracer, self.stability.stability_report, p)
            self.record(rnd, ns)
            reports.append(exc if exc is not None else out)
        rnd.attempted = len(reports)

        solved = []
        for i, rep in enumerate(reports):
            if isinstance(rep, CesGrowthError):
                if self.ref["has_path"][i]:
                    rnd.problems.append(f"economy {i}: {rep!r}, but the model finds a balanced path")
            elif isinstance(rep, Exception):
                rnd.problems.append(f"economy {i}: untyped {rep!r}")
            elif not self.ref["has_path"][i]:
                rnd.problems.append(f"economy {i}: solved, but the model finds no balanced path")
            else:
                solved.append(i)
        idx = np.array(solved, dtype=int)
        fields = {name: np.array([getattr(reports[i].steady, name) for i in idx])
                  for name in ("w_star",) + C.STEADY_FIELDS}
        rnd.problems += C.steady_problems(M.take(self.econ, idx), fields, label="economy ")
        for i in idx:
            rep = reports[i]
            cause, problems = C.spectrum_outcome(
                rep.eigenvalues, rep.classification, self.ref["eigenvalues"][i])
            rnd.problems += [f"economy {i}: {p}" for p in problems]
            if cause:
                rnd.fail(cause, True, f"economy {i}")
        return rnd


# --- transition_paths ----------------------------------------------------------------

# z0 / z* ranges where today's saddle paths stay inside (0,1)^2: case 1 only
# above z*, cases 2-5 on either side.
CASE1_RANGE = (1.05, 1.10)
BELOW_RANGE = (0.90, 0.99)
ABOVE_RANGE = (1.01, 1.50)


def start_ratio(rng, case: int, above=None) -> float:
    """z0 / z* drawn from the case's range (either side when above is None)."""
    if case == 1:
        return rng.uniform(*CASE1_RANGE)
    if above is None:
        above = rng.random() < 0.5
    return rng.uniform(*(ABOVE_RANGE if above else BELOW_RANGE))


def spread_ratios(rng, bounds, n) -> list:
    """n ratios, one in each of n equal slices of bounds, at one drawn offset, shuffled.

    A path's cost grows with |z0/z* - 1|, so a round of spread starts costs
    about the same as the next, while no start repeats.
    """
    lo, hi = bounds
    u = rng.random()
    return [lo + (hi - lo) * (i + u) / n for i in rng.permutation(n)]


class TransitionPaths(Workload):
    name = "transition_paths"
    tail_percentile = 98.0

    def prepare(self):
        from cesgrowth import ModelParams, dynamics

        self.dynamics = dynamics
        self.cases = {c: _case_economy(c) for c in paper.CASE_PSI}
        self.params = {c: ModelParams(**e._asdict()) for c, e in self.cases.items()}
        self.x_star = {c: _x_star(e) for c, e in self.cases.items()}
        z1 = self.x_star[1][0]
        # Case 1 from the README's own start, and from 1.5 z*.
        self.fixed = [(1, paper.README_INITIAL["k0"] / paper.README_INITIAL["h0"], C.INFEASIBLE_PATH),
                      (1, 1.5 * z1, C.TARGET_NOT_REACHED)]

    def starts(self):
        """This round's (case, z0): two for case 1; one below z* and two above for cases 2-5."""
        out = [(1, r * self.x_star[1][0]) for r in spread_ratios(self.rng, CASE1_RANGE, 2)]
        below = spread_ratios(self.rng, BELOW_RANGE, 4)
        above = spread_ratios(self.rng, ABOVE_RANGE, 8)
        for i, c in enumerate((2, 3, 4, 5)):
            z = self.x_star[c][0]
            out += [(c, r * z) for r in (below[i], above[2 * i], above[2 * i + 1])]
        return out

    def _path(self, params, z0):
        traj = self.dynamics.saddle_path(params, z0)
        return self.dynamics.reconstruct_levels(traj, z0, params)

    def warm_up(self, tracer):
        _timed(tracer, self._path, self.params[2], 1.1 * self.x_star[2][0])

    def run_round(self, tracer) -> Round:
        from cesgrowth import TargetNotReachedError

        rnd = Round()
        todo = [(c, z0, None) for c, z0 in self.starts()] + self.fixed
        for c, z0, kept_cause in todo:
            out, exc, ns = _timed(tracer, self._path, self.params[c], z0)
            self.record(rnd, ns)
            rnd.attempted += 1
            what = f"case {c} from z0={z0!r}"
            if isinstance(exc, TargetNotReachedError):
                rnd.fail(C.TARGET_NOT_REACHED, kept_cause == C.TARGET_NOT_REACHED, what)
                continue
            if exc is not None:
                rnd.problems.append(f"{what}: {exc!r}")
                continue
            cause, problems = C.path_outcome(self.cases[c], z0, self.x_star[c], out.times,
                                             out.states, out.levels, z0)
            if cause:
                rnd.fail(cause, kept_cause == cause, what)
            rnd.problems += [f"{what}: {p}" for p in problems]
        return rnd


# --- sigma_sweep ---------------------------------------------------------------------

SWEEP_POINTS = 1000
SWEEP_SPAN = (0.5, 2.0)


def sweep_grid(phase: float):
    """lo:hi:n of SWEEP_POINTS over about SWEEP_SPAN, sigma = 1 at fraction phase of a step.

    With phase in [0.4, 0.6] exactly two points fall within 1e-3 of sigma = 1.
    """
    n = SWEEP_POINTS
    step = (SWEEP_SPAN[1] - SWEEP_SPAN[0]) / (n - 1)
    below = math.floor((1.0 - SWEEP_SPAN[0]) / step)
    lo = 1.0 - (below + phase) * step
    return f"{lo!r}:{lo + (n - 1) * step!r}:{n}"


class SigmaSweep(Workload):
    name = "sigma_sweep"
    tail_percentile = 75.0
    which = ("1", "2", "both")

    def prepare(self):
        from cesgrowth import cli

        self.cli = cli
        self.template = paper.case_params(*paper.CASE_PSI[1])
        self.scenario = os.path.join(self.workdir, "readme.json")
        with open(self.scenario, "w", encoding="utf-8") as fh:
            json.dump({"params": self.template, "initial": paper.README_INITIAL,
                       "baseline": {"source": "initial"}}, fh)
        self.out = os.path.join(self.workdir, "sweep.csv")

    def _argv(self, which, grid):
        return ["sweep", "--scenario", self.scenario, "--grid", grid, "--sigma", which,
                "--format", "csv", "--out", self.out]

    def warm_up(self, tracer):
        _timed(tracer, self.cli.main, self._argv("1", sweep_grid(0.5)))

    def run_round(self, tracer) -> Round:
        rnd = Round()
        for which in self.which:
            grid = sweep_grid(self.rng.uniform(0.4, 0.6))
            code, exc, ns = _timed(tracer, self.cli.main, self._argv(which, grid))
            self.record(rnd, ns)
            if exc is not None or code != 0:
                rnd.problems.append(f"sweep --sigma {which} --grid {grid}: exit {code}, {exc!r}")
                continue
            with open(self.out, encoding="utf-8") as fh:
                rows, _ = C.parse_sweep_csv(fh.read())
            causes, problems = C.sweep_outcomes(self.template, paper.README_INITIAL, which, rows)
            rnd.attempted += len(rows)
            for cause in filter(None, causes):
                rnd.fail(cause, True, f"sweep --sigma {which}")
            rnd.problems += [f"sweep --sigma {which}: {p}" for p in problems]
            if len(rows) != SWEEP_POINTS:
                rnd.problems.append(f"sweep --sigma {which}: {len(rows)} rows")
        return rnd


# --- cli_session ---------------------------------------------------------------------

class CliSession(Workload):
    name = "cli_session"
    tail_percentile = 75.0
    yardstick_every_s = 2.0  # after every second command: the yardstick takes 0.2 s
    sweep_cases = (1, 3, 4)  # anchored at the README point, y1* and pi1 rise with sigma1

    def prepare(self):
        self.cases = {c: _case_economy(c) for c in paper.CASE_PSI}
        self.x_star = {c: _x_star(e) for c, e in self.cases.items()}
        self.n_round = 0
        self.commands = self._write_round()
        self.span_files = []  # one per traced command

    def _scenario(self, name, params, initial=None):
        path = os.path.join(self.workdir, f"{name}.json")
        doc = {"params": params, "format": "json"}
        if initial is not None:
            doc.update(initial=initial, baseline={"source": "initial"}, sweep=paper.README_SWEEP)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _write_round(self):
        """This round's five commands as (argv, check) pairs, with their scenario files."""
        rng = self.rng
        tag = f"r{self.n_round}"
        self.n_round += 1
        cmds = []
        c = int(rng.integers(1, 6))
        f = self._scenario(f"{tag}-steady", paper.case_params(*paper.CASE_PSI[c]))
        cmds.append((["steady", "--scenario", f], lambda out, c=c: self._check_steady(c, out)))
        c = int(rng.integers(1, 6))
        f = self._scenario(f"{tag}-stability", paper.case_params(*paper.CASE_PSI[c]))
        cmds.append((["stability", "--scenario", f],
                     lambda out, c=c: self._check_stability(c, out)))
        a, b = paper.ALTERNATIVES[int(rng.integers(0, 2))]
        fa = self._scenario(f"{tag}-compare-a", paper.case_params(*a))
        fb = self._scenario(f"{tag}-compare-b", paper.case_params(*b))
        cmds.append((["compare", "--scenario", fa, "--scenario-b", fb],
                     lambda out, a=a, b=b: self._check_compare(a, b, out)))
        c = int(rng.choice(self.sweep_cases))
        params = paper.case_params(*paper.CASE_PSI[c])
        f = self._scenario(f"{tag}-sweep", params, paper.README_INITIAL)
        cmds.append((["sweep", "--scenario", f, "--format", "csv"],
                     lambda out, p=params: self._check_sweep(p, out)))
        c = int(rng.integers(1, 6))
        z0 = start_ratio(rng, c) * self.x_star[c][0]
        initial = dict(paper.README_INITIAL, k0=z0, h0=1.0)
        f = self._scenario(f"{tag}-trajectory", paper.case_params(*paper.CASE_PSI[c]), initial)
        cmds.append((["trajectory", "--scenario", f],
                     lambda out, c=c, z0=z0: self._check_trajectory(c, z0, out)))
        return cmds

    def _launch(self, argv, tracer):
        if tracer.enabled:
            spans = os.path.join(self.workdir, f"spans-{len(self.span_files)}.npz")
            self.span_files.append(spans)
            prog = ["-m", "perfbench.traced_cli", spans]
        else:
            prog = ["-m", "cesgrowth.cli"]
        t0 = time.perf_counter_ns()
        proc = subprocess.run([sys.executable, *prog, *argv], cwd=self.root,
                              capture_output=True, text=True, timeout=120)
        return proc, time.perf_counter_ns() - t0

    def yardstick_ns(self) -> float:
        """Time of a fresh interpreter that imports numpy: start-up and imports, as in a command."""
        t0 = time.perf_counter_ns()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.root, check=True,
                       timeout=60)
        return time.perf_counter_ns() - t0

    def warm_up(self, tracer):
        self._launch(self.commands[0][0], tracer)

    def run_round(self, tracer) -> Round:
        rnd = Round()
        for argv, check in self.commands:
            proc, ns = self._launch(argv, tracer)
            self.record(rnd, ns)
            rnd.attempted += 1
            if proc.returncode != 0:
                rnd.problems.append(f"{argv[0]}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            try:
                rnd.problems += [f"{argv[0]}: {p}" for p in check(proc.stdout)]
            except (ValueError, KeyError, IndexError) as err:
                rnd.problems.append(f"{argv[0]}: unreadable output ({err!r})")
        self.commands = self._write_round()
        return rnd

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    # The checks of each command's output.

    def _check_steady(self, case, out):
        doc = json.loads(out)
        return (C.paper_steady_problems(case, doc)
                + C.steady_problems(self.cases[case], doc, label=f"case {case} "))

    def _check_stability(self, case, out):
        doc = json.loads(out)
        steady = doc["steady"]
        ev = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
        problems = C.steady_problems(self.cases[case], steady, label=f"case {case} ")
        if doc["classification"] != "saddle_path":
            problems.append(f"case {case} classified {doc['classification']}")
        for got, target in zip(np.sort(ev.real), paper.CASE_EV[case]):
            if not paper.eigenvalue_matches(got, target):
                problems.append(f"case {case} eigenvalue {got} vs the paper's {target}")
        x = np.array([steady[k] for k in ("z_star", "q_star", "u_star", "v_star")])
        ref = np.linalg.eigvals(M.jacobian(self.cases[case], x))
        return problems + C.spectrum_problems(ev, doc["classification"], ref)

    def _check_compare(self, a, b, out):
        rows = {r["name"]: r for r in json.loads(out)}
        problems = []
        for side, psis in (("a", a), ("b", b)):
            e = M.economy_of(paper.case_params(*psis))
            fields = {k: rows[k][side] for k in ("w_star", "z_star", "u_star", "v_star",
                                                  "q_star", "r_star", "pi1k", "pi2k")}
            problems += C.steady_problems(e, fields, label=f"economy {psis} ")
            y1, y2 = M.outputs_at(e, fields["z_star"], 1.0, fields["u_star"], fields["v_star"])
            for name, ref in (("y1_star", y1), ("y2_star", y2)):
                if not abs(rows[name][side] - ref) <= C.VALUE_RTOL * abs(ref):
                    problems.append(f"economy {psis} {name} {rows[name][side]} vs {ref}")
            for name, (value, tol) in paper.TWO_ECONOMY[psis].items():
                if not abs(fields[name] - value) <= tol:
                    problems.append(f"economy {psis} {name} {fields[name]} vs the paper's {value}")
        for r in rows.values():
            expect = "=" if r["a"] == r["b"] else ("A" if r["a"] > r["b"] else "B")
            if abs(r["a"] - r["b"]) > 1e-12 * max(abs(r["a"]), abs(r["b"]), 1.0) \
                    and r["dominant"] != expect:
                problems.append(f"{r['name']}: dominant {r['dominant']}, expected {expect}")
        return problems

    def _check_sweep(self, params, out):
        rows, footer = C.parse_sweep_csv(out)
        causes, problems = C.sweep_outcomes(params, paper.README_INITIAL, "1", rows)
        problems += [f"row {i}: {c}" for i, c in enumerate(causes) if c]
        rising = footer.get("monotone_increasing", [])
        problems += [f"footer does not list {name} as increasing"
                     for name in ("r_star", "pi1", "y1_star") if name not in rising]
        if len(rows) != paper.README_SWEEP["n"]:
            problems.append(f"{len(rows)} rows")
        return problems

    def _check_trajectory(self, case, z0, out):
        lines = out.splitlines()
        if not lines[-1].startswith("# stop_reason=target_reached"):
            return [f"footer {lines[-1]!r}"]
        data = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
        times, states, levels = data[:, 0], data[:, 1:5], data[:, 5:8]
        # The samples are interpolated onto a uniform grid, so no step of
        # the integrator is checked here; transition_paths does that.
        cause, problems = C.path_outcome(self.cases[case], z0, self.x_star[case],
                                         times, states, levels, z0, check_steps=False)
        return problems + ([cause] if cause else [])


WORKLOADS = {w.name: w for w in (CliSession, SigmaSweep, EconomyScan, TransitionPaths)}
