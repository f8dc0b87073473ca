"""Benchmark runner for nijcalc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
checkout that holds this script; without it the script exits with code 2.

``--trace 0`` (end-to-end run): sets the workload up seven times (fresh
import of the package plus input generation) and reports the median as
``setup_s`` (inputs a workload picks by trial, ``workloads.pick``, are
picked once before that); then runs the workload's task cycle in a closed
loop, one task after another.  The run is a fixed number of whole cycles,
round(seconds / workloads.CYCLE_S[workload]), so that it lasts about
``--seconds`` on the reference host and every run times the same work: a
run that stopped on the clock would hold more tasks on a faster host, and
the percentile behind ``task_tail_s`` would move with the host's speed.
Outputs are checked afterwards, outside the timed region.

Times are reported in reference seconds.  The speed of a shared host drifts
by up to a factor of two within seconds, so a fixed pure-Python job (``probe``,
part of this script, not of the library) is timed before and after every task
and every set-up, and each wall time is scaled by PROBE_REF_S over the mean of
the two probe times before it and the two after it.  A slower library still reads slower; a slower host
reads much less slower (the correction is partial, see README.md).  The info
lines also print the raw wall-clock figures.

``--trace 1`` (per-layer run): runs one cycle untraced and the same cycle
traced (see tracer.py), reports per-task layer metrics and the tracing
overhead, and writes the spans to perfbench/out/.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
# a task-time percentile needs this many samples above it
TAIL_BEYOND = 10
# what the probe takes on the reference host when that runs fast
PROBE_REF_S = 0.005
_PROBE_POLY = {(i, k): Fraction(i - k, i + k + 1) for i in range(6) for k in range(6)}


def probe() -> float:
    """Seconds a fixed job takes now: the product of two sparse polynomials
    with Fraction coefficients, the kind of arithmetic nijcalc does."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        out = {}
        for (a, b), x in _PROBE_POLY.items():
            for (c, d), y in _PROBE_POLY.items():
                key = (a + c, b + d)
                out[key] = out.get(key, 0) + x * y
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(walls, probes):
    """Each wall time in reference seconds.  probes[k] was timed just before
    walls[k] and probes[k + 1] just after it; the host's speed during walls[k]
    is taken from the mean of the two probes before and the two after it,
    which halves the noise of a single probe pair."""
    out = []
    for k, wall in enumerate(walls):
        near = probes[max(0, k - 1):k + 3]
        out.append(wall * PROBE_REF_S * len(near) / sum(near))
    return out


def load_workloads():
    """Import the package and the workload module afresh; returns the module."""
    for name in list(sys.modules):
        if name == "nijcalc" or name.startswith("nijcalc.") or name == "workloads":
            del sys.modules[name]
    module = importlib.import_module("workloads")
    pkg_file = Path(sys.modules["nijcalc"].__file__).resolve()
    if SRC.resolve() not in pkg_file.parents:
        raise RuntimeError(f"nijcalc imported from {pkg_file}, not from {SRC}")
    return module


def setup(name: str, seed: int, repeats: int):
    """Import plus input generation, `repeats` times; the last set is used.
    Inputs the workload picks by trial are picked once, before the timing.
    Returns the module, the tasks, and the wall and scaled set-up times."""
    picks = load_workloads().pick(name, seed)
    walls, probes, labels = [], [probe()], None
    for _ in range(repeats):
        start = time.perf_counter()
        wl = load_workloads()
        tasks = wl.build(name, seed, picks=picks)
        walls.append(time.perf_counter() - start)
        probes.append(probe())
        cur = [(t.kind, t.label) for t in tasks]
        if labels is not None and cur != labels:
            raise RuntimeError("input generation is not deterministic")
        labels = cur
    return wl, tasks, walls, scaled(walls, probes)


class Outcomes:
    """Verdicts of a pass, checked after the timed region."""

    def __init__(self, wl, tasks):
        self.wl = wl
        self.tasks = tasks
        self.first = {}         # task index -> canonical output of its first run
        self.attempted = 0
        self.failed = 0         # exceptions, oracle rejections, changed repeats
        self.known_defects = 0  # calls ending in a documented library defect
        self.messages = []

    def record(self, index: int, out, err) -> None:
        task = self.tasks[index]
        self.attempted += 1
        if err is not None:
            self.failed += 1
            self.messages.append(f"{task.kind} [{task.label}] raised: {err!r}")
            return
        if self.wl.hits_known_defect(out):
            self.known_defects += 1
        text = self.wl.canon(out)
        if index in self.first:
            if text != self.first[index]:
                self.failed += 1
                self.messages.append(f"{task.kind} [{task.label}] output changed on repeat")
            return
        self.first[index] = text
        try:
            task.check(out)
        except self.wl.OracleError as exc:
            self.failed += 1
            self.messages.append(f"{task.kind} [{task.label}] oracle: {exc}")

    def digest(self) -> str:
        return self.wl.digest([self.first.get(i, "missing") for i in range(len(self.tasks))])

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(self.first) == len(self.tasks)

    @property
    def error_rate(self) -> float:
        """Failed plus defect-hit tasks over attempted tasks."""
        return (self.failed + self.known_defects) / self.attempted


def run_task(task):
    try:
        return task.call(), None
    except Exception as exc:  # a failed task is counted, the loop goes on
        return None, exc


def timed_loop(tasks, cycles: int, on_task=None):
    """Closed loop over `cycles` whole cycles, calling on_task(index) before
    each task if given; returns (index, output, error, wall seconds, scaled
    seconds) rows and the elapsed time."""
    rows, walls = [], []
    clock = time.perf_counter
    start = clock()
    probes = [probe()]
    for _ in range(cycles):
        for index, task in enumerate(tasks):
            if on_task is not None:
                on_task(index)
            t0 = clock()
            out, err = run_task(task)
            walls.append(clock() - t0)
            probes.append(probe())
            rows.append((index, out, err))
    elapsed = clock() - start
    return [row + (wall, ref) for row, wall, ref
            in zip(rows, walls, scaled(walls, probes))], elapsed


def tail(times):
    """Time at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(args) -> dict:
    wl, tasks, setup_wall, setup_times = setup(args.workload, args.seed, SETUP_REPEATS)
    cycles = max(1, round(args.seconds / wl.CYCLE_S[args.workload]))
    rows, elapsed = timed_loop(tasks, cycles)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outcomes = Outcomes(wl, tasks)
    for index, out, err, _, _ in rows:
        outcomes.record(index, out, err)
    times = [r[4] for r in rows]
    tail_s, tail_pct = tail(times)
    # each task of the cycle at its median time: robust to a slow stretch
    # of the host, and the median over them does not jump between the
    # clusters of a heavy-tailed cycle
    task_s = [statistics.median(r[4] for r in rows if r[0] == i)
              for i in range(len(tasks))]
    print(f"workload={args.workload} seed={args.seed} cycle={len(tasks)} tasks "
          f"ran={len(rows)} in {elapsed:.2f}s digest={outcomes.digest()}")
    print(f"task_tail_s is p{tail_pct:.1f} of {len(times)} samples; "
          f"error_rate={outcomes.error_rate:.4f} (failed={outcomes.failed}, "
          f"known_defects={outcomes.known_defects})")
    print(f"wall clock, unscaled: setup_s={statistics.median(setup_wall):.4f} "
          f"task_p50_s={statistics.median(r[3] for r in rows):.4f} "
          f"host speed={statistics.median(r[4] / r[3] for r in rows):.3f} of reference")
    return {
        "outcomes": outcomes,
        "metrics": {
            "setup_s": (statistics.median(setup_times), "s"),
            "tasks_per_s": (len(tasks) / sum(task_s), "1/s"),
            "task_p50_s": (statistics.median(task_s), "s"),
            "task_tail_s": (tail_s, "s"),
            "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
        },
    }


def traced_pass(wl, tasks) -> dict:
    """One untraced and one traced pass over the cycle; per-task layer metrics."""
    import tracer as tracing

    plain_rows, _ = timed_loop(tasks, 1)
    tr = tracing.Tracer()
    tr.install()
    try:
        rows, _ = timed_loop(tasks, 1, lambda i: setattr(tr, "task", i))
    finally:
        tr.uninstall()
    # both passes in reference seconds, so host drift between them cancels
    untraced_s = sum(r[4] for r in plain_rows)
    traced_s = sum(r[4] for r in rows)
    outcomes = Outcomes(wl, tasks)
    for i, out, err, _, _ in plain_rows + rows:  # traced outputs must repeat the untraced
        outcomes.record(i, out, err)
    metrics = {name: (value, unit_of(name))
               for name, value in tr.metrics(len(tasks)).items()}
    metrics["trace.overhead_ratio"] = (untraced_s / traced_s, "ratio")
    metrics["error_rate"] = (outcomes.error_rate, "ratio")
    return {"outcomes": outcomes, "metrics": metrics, "tracer": tr,
            "seconds": (untraced_s, traced_s)}


def traced(args) -> dict:
    wl, tasks, _, _ = setup(args.workload, args.seed, 1)
    result = traced_pass(wl, tasks)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz"
    spans = result["tracer"].write_spans(span_file)
    untraced_s, traced_s = result["seconds"]
    print(f"workload={args.workload} seed={args.seed} cycle={len(tasks)} tasks "
          f"untraced={untraced_s:.2f}s traced={traced_s:.2f}s (reference) spans={spans} "
          f"-> {span_file.relative_to(ROOT)} digest={result['outcomes'].digest()}")
    return result


def unit_of(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name == "trace.rebound_aliases":
        return "count"
    if name.endswith("_s"):
        return "s/task"
    return "count/task"


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (SRC / "nijcalc" / "__init__.py").is_file():
        print(f"error: no nijcalc package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.chdir(ROOT)
    try:
        import workloads
        if args.workload not in workloads.WORKLOADS:
            print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        result = traced(args) if args.trace else end_to_end(args)
    except Exception:
        traceback.print_exc()
        return 1
    outcomes = result["outcomes"]
    for message in outcomes.messages[:20]:
        print("FAIL", message)
    print(json.dumps({
        "correct": outcomes.correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
