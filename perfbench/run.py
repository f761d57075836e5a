"""Benchmark harness for kdiameter: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload composite --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from `src/`.  A run
times set-up (median of fresh interpreters, see `setup_probe.py`), then runs
whole passes over the workload's operations, one at a time in one thread,
until `--seconds` have passed and at least three passes are done.  Times are
reported in reference seconds (see `calibration.py`).  Every pass must give
the same answers as the first, and the first pass's answers go through the
independent checkers in `checks.py`.

With `--trace 1` the run is split: untraced passes, then passes with every
layer wrapped (`tracing.py`); it reports per-layer figures and the tracing
overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the run's details (seed, passes, kernel backend, Python version, git SHA and
per-phase times).  Exit code 0 on a correct run, 1 when an answer is wrong,
2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("composite", "sphere", "lp", "repro")
MIN_PASSES = 3
SETUP_SAMPLES = 9
CALIBRATE_EVERY_S = 0.5

# layer metric -> (tracer table, key, unit).  Tables: "self_s" = self time
# of a traced layer, "total_s" = inclusive time, "calls" = traced calls,
# "counts" = a counter the tracer keeps.  coloring.forall_s and the criteria
# are inclusive: they contain the searches and layers they run.
LAYER_METRICS = {
    "coloring.search_s": ("self_s", "coloring.search", "s"),
    "coloring.nodes": ("counts", "coloring.nodes", "count"),
    "coloring.calls": ("calls", "coloring.search", "count"),
    "coloring.forall_s": ("total_s", "coloring.forall", "s"),
    "coloring.enumerate_s": ("self_s", "coloring.enumerate", "s"),
    "geometry.pair_evals": ("calls", "geometry.distance", "count"),
    "geometry.distance_s": ("self_s", "geometry.distance", "s"),
    "sphere.threshold_s": ("self_s", "sphere.threshold", "s"),
    "sphere.threshold_builds": ("calls", "sphere.threshold", "count"),
    "clustering.threshold_s": ("self_s", "clustering.threshold", "s"),
    "clustering.distinct_s": ("self_s", "clustering.distinct", "s"),
    "clustering.steps": ("calls", "clustering.threshold", "count"),
    "clustering.ball_s": ("self_s", "clustering.ball", "s"),
    "gadgets.library_s": ("self_s", "gadgets.library", "s"),
    "gadgets.stitch_s": ("self_s", "gadgets.stitch", "s"),
    "hadamard.verify_s": ("self_s", "hadamard.verify", "s"),
    "lp.build_s": ("self_s", "lp.build", "s"),
    "lp.simplex_s": ("self_s", "lp.simplex", "s"),
    "lp.columns": ("counts", "lp.columns", "count"),
    "edgecolor.color_s": ("self_s", "edgecolor.color", "s"),
}
CRITERION_NUMBERS = (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12)
for _num in CRITERION_NUMBERS:
    LAYER_METRICS[f"acceptance.criterion_{_num:02d}_s"] = (
        "total_s", f"acceptance.criterion_{_num:02d}", "s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload, seed):
    """(wall, reference) set-up seconds measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    wall, reference = done.stdout.split()[-2:]
    return float(wall), float(reference)


def git_sha():
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Passes:
    """Runs whole passes over the operations and keeps the first answers.

    Each operation's time is kept twice: in wall seconds, and in reference
    seconds.  The speed factor is measured at most CALIBRATE_EVERY_S apart
    between operations and at the end of each pass; an operation is scaled
    by the mean of the factors measured just before and just after it."""

    def __init__(self, workload, ops, budget_exceeded):
        self.workload = workload
        self.ops = ops
        self.budget_exceeded = budget_exceeded
        self.first_answers = None
        self.first_summaries = None
        self.mismatched = []
        self.attempted = 0
        self.failed = 0

    def run(self, seconds, min_passes, tracer=None):
        """(wall, reference) per-pass lists of operation seconds, for at
        least `min_passes` passes and at least `seconds` of wall time."""
        runs = [op.run if tracer is None or op.span is None
                else tracer.wrap(op.run, op.span) for op in self.ops]
        wall, reference = [], []
        start = perf_counter()
        while len(wall) < min_passes or perf_counter() - start < seconds:
            times, scaled = self._one_pass(runs)
            wall.append(times)
            reference.append(scaled)
        return wall, reference

    def _one_pass(self, runs):
        times, answers = [], []
        factors = [speed_factor()]   # speed measurements of this pass
        before = []                  # per operation: index of the one before it
        calibrated_at = perf_counter()
        for run in runs:
            if perf_counter() - calibrated_at > CALIBRATE_EVERY_S:
                factors.append(speed_factor())
                calibrated_at = perf_counter()
            before.append(len(factors) - 1)
            self.attempted += 1
            begin = perf_counter()
            try:
                answer = run()
            except self.budget_exceeded:
                answer = None
                self.failed += 1
            times.append(perf_counter() - begin)
            answers.append(answer)
        factors.append(speed_factor())
        scaled = [t * (factors[i] + factors[i + 1]) / 2
                  for t, i in zip(times, before)]
        summaries = [None if a is None else self.workload.summary(a) for a in answers]
        if self.first_answers is None:
            self.first_answers, self.first_summaries = answers, summaries
        else:
            self.mismatched += [op.name for op, s, f in
                                zip(self.ops, summaries, self.first_summaries)
                                if s != f]
        return times, scaled


def op_medians(passes):
    """Each operation's median time over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def layer_values(setup_tracer, pass_tracer, traced_passes):
    """Per-layer metrics for one traced set-up plus one traced pass (the
    mean over the traced passes)."""
    n = len(traced_passes)
    out = {}
    for metric, (table, key, unit) in LAYER_METRICS.items():
        value = (getattr(setup_tracer, table).get(key, 0)
                 + getattr(pass_tracer, table).get(key, 0) / n)
        out[metric] = {"value": value, "unit": unit}
    search_s = out["coloring.search_s"]["value"]
    nodes = out["coloring.nodes"]["value"]
    out["coloring.nodes_per_s"] = {"value": nodes / search_s if search_s else 0.0,
                                   "unit": "1/s"}
    wall = sum(sum(p) for p in traced_passes) / n
    inside = sum(pass_tracer.self_s.values()) / n
    out["trace.unattributed_s"] = {"value": wall - inside, "unit": "s"}
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kdiameter" / "__init__.py").is_file():
        print(f"error: kdiameter sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_samples = [probe_setup(args.workload, args.seed)
                     for _ in range(SETUP_SAMPLES)]

    import checks
    import workloads
    from kdiameter.coloring import KERNEL_BACKEND, BudgetExceeded
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    setup_tracer = Tracer()
    if args.trace:
        with setup_tracer.installed(callers=[workloads]):
            state = workload.setup(args.seed)
    else:
        state = workload.setup(args.seed)
    ops = workload.operations(state)
    runner = Passes(workload, ops, BudgetExceeded)

    if args.trace:
        untraced_wall, untraced = runner.run(args.seconds / 2, 1)
        pass_tracer = Tracer()
        with pass_tracer.installed(callers=[workloads]):
            traced_wall, traced = runner.run(args.seconds / 2, 1, pass_tracer)
        metrics = layer_values(setup_tracer, pass_tracer, traced_wall)
        metrics["trace.overhead_s"] = {
            "value": sum(op_medians(traced)) - sum(op_medians(untraced)),
            "unit": "s"}
        wall, passes = untraced_wall, untraced
        detail_passes = {"untraced_passes": len(untraced),
                         "traced_passes": len(traced)}
    else:
        wall, passes = runner.run(args.seconds, MIN_PASSES)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(r for _, r in setup_samples),
                        "unit": "s"},
            "pass_s": {"value": sum(op_medians(passes)), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
        detail_passes = {"passes": len(passes)}

    problems = [f"answers changed between passes: {name}"
                for name in sorted(set(runner.mismatched))]
    for op, answer in zip(ops, runner.first_answers):
        if answer is None:  # failed operation: nothing to check
            continue
        try:
            op.check(answer)
        except checks.CheckFailed as e:
            problems.append(f"{op.name}: {e}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    phase_s = {}
    for op, t in zip(ops, op_medians(passes)):
        phase_s[op.kind] = phase_s.get(op.kind, 0.0) + t
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "operations_per_pass": len(ops),
              **detail_passes, "phase_s": phase_s,
              "pass_wall_s": sum(op_medians(wall)),
              "setup_wall_s": [w for w, _ in setup_samples],
              "kernel_backend": KERNEL_BACKEND,
              "python": platform.python_version(), "git_sha": git_sha()}
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
