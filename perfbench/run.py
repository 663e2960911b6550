"""modcat benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Without --workload (or with --workload all) it runs the four workloads one
after another, each in its own child process.

Run from a checkout of the repository; modcat is imported from its src/.
Workloads: fusion-tables, dy-sweep, module-search (in process) and
cli-examples (one `python -m modcat` child per command, one at a time).

--trace 0 measures the end-to-end metrics.  ``setup_s`` is the median of
five fresh interpreters importing modcat and building the workload's
inputs.  The task list is then run in passes, each in an order shuffled from
the seed, until S seconds and at least three passes have been measured;
every answer is checked after its pass.  Times are reference seconds: each
is scaled by the host speed measured just before and after it (see
probes.KERNEL_REF_S).  ``wall_s`` is the median pass, ``task_max_s`` the largest
per-task median and ``peak_rss_mb`` the peak RSS of the process that ran the
tasks (for cli-examples, of the largest child).

--trace 1 measures the per-layer metrics: child launches for ``cli.*``, the
field kernels, then one untraced and one traced pass (set-up included, so
ring validation is seen).  Spans are written to .bench_out/ when it ends.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Any wrong answer, or a traced layer that is missing or silent,
makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from math import ceil
from time import perf_counter

import probes
import tracing
import workloads

ROOT, SRC = workloads.ROOT, workloads.SRC
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_PASSES = 3
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "task_max_s": "s", "peak_rss_mb": "MB"}


class Record:
    """Timings (in reference seconds, see probes.KERNEL_REF_S) and failures
    of the passes of one run; raw_pass_walls keeps the seconds as measured."""

    def __init__(self):
        self.pass_walls: list[float] = []
        self.raw_pass_walls: list[float] = []
        self.task_times: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []


def run_pass(workload, rng: random.Random, record: Record, tracer=None) -> None:
    """Run every task once in a shuffled order, then check the answers."""
    order = list(workload.tasks)
    rng.shuffle(order)
    results, errors = {}, {}
    raw_wall = wall = 0.0
    before = probes.kernel_time()
    for task in order:
        t0 = perf_counter()
        try:
            results[task.name] = task.run()
        except Exception as exc:  # a task that raises is a failed answer
            errors[task.name] = f"raised {exc!r}"
        raw = perf_counter() - t0
        after = probes.kernel_time()
        scaled = probes.scale(raw, before, after)
        record.task_times[task.name].append(scaled)
        raw_wall += raw
        wall += scaled
        before = after
    record.pass_walls.append(wall)
    record.raw_pass_walls.append(raw_wall)

    if tracer is not None:
        tracer.enabled = False
    for task in order:
        if task.name in results:
            try:
                reason = task.check(results[task.name])
            except Exception as exc:
                reason = f"check raised {exc!r}"
            if reason:
                errors[task.name] = reason
    for name, reason in workload.cross_check(results).items():
        errors.setdefault(name, reason)
    if tracer is not None:
        tracer.enabled = True
    record.attempted += len(order)
    record.failures += [f"{name}: {why}" for name, why in errors.items()]


def tail(values) -> "tuple[float, float] | None":
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(values)
    usable = [q for q in (50, 90, 99, 99.9) if n * (100 - q) / 100 >= 10]
    if not usable:
        return None
    q = usable[-1]
    return q, sorted(values)[max(0, ceil(q / 100 * n) - 1)]


def timing_line(label: str, values, unit: str = "s") -> str:
    text = f"{label}: median {statistics.median(values):.4f} {unit}"
    pct = tail(values)
    if pct is None:
        return text + f" (n={len(values)}; too few samples for a tail percentile)"
    return text + f", p{pct[0]:g} {pct[1]:.4f} {unit} (n={len(values)})"


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Record, dict]:
    rng = random.Random(seed)
    probes.setup_time(name)  # compiles bytecode on a fresh checkout; discarded
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        before = probes.kernel_time()
        raw_setups.append(probes.setup_time(name))
        setups.append(probes.scale(raw_setups[-1], before, probes.kernel_time()))
    workload = workloads.WORKLOADS[name]()
    record = Record()
    start = perf_counter()
    while len(record.pass_walls) < MIN_PASSES or perf_counter() - start < seconds:
        run_pass(workload, rng, record)

    medians = {t: statistics.median(v) for t, v in record.task_times.items()}
    slowest = max(medians, key=medians.get)
    samples = [x for v in record.task_times.values() for x in v]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(record.pass_walls),
        "task_max_s": medians[slowest],
        "peak_rss_mb": peak_rss_mb(children=name not in workloads.IN_PROCESS),
    }
    print("times in reference seconds (see NOTES.md); raw seconds as measured in brackets")
    print(timing_line("setup_s (fresh set-ups)", setups)
          + f" [raw median {statistics.median(raw_setups):.4f} s]")
    print(timing_line(f"wall_s ({len(workload.tasks)} tasks per pass)", record.pass_walls)
          + f" [raw median {statistics.median(record.raw_pass_walls):.4f} s]")
    print(f"task_max_s: {metrics['task_max_s']:.4f} s, median of {slowest!r}")
    print(timing_line("task time", samples))
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
    return record, metrics


def traced(name: str, seed: int) -> tuple[Record, dict]:
    rng = random.Random(seed)
    metrics = probes.cli_metrics()
    metrics.update(probes.field_metrics())

    untraced = Record()
    run_pass(workloads.WORKLOADS[name](), rng, untraced)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        record = Record()
        run_pass(workloads.WORKLOADS[name](), rng, record, tracer)
    finally:
        tracer.uninstall()
    record.attempted += untraced.attempted
    record.failures += untraced.failures

    metrics.update(tracer.layer_metrics())
    base = untraced.pass_walls[0]
    metrics["trace.overhead_frac"] = (record.pass_walls[0] - base) / base
    for problem in tracing.check_layers(name, metrics):
        record.failures.append(problem)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed,
                                "fields": ["name", "start", "end", "parent"],
                                "spans": tracer.spans}))
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for key in sorted(metrics):
        print(f"{key}: {metrics[key]:.6g}")
    return record, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modcat" / "__init__.py").is_file():
        print(f"error: {SRC / 'modcat'} not found; run from a modcat checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    try:
        if args.trace:
            record, values = traced(args.workload, args.seed)
        else:
            record, values = end_to_end(args.workload, args.seed, args.seconds)
    except (probes.ProbeFailed, tracing.TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = len(record.failures)
    for failure in record.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"failed_frac: {failed / record.attempted:.4g} ({failed} of {record.attempted})")
    metrics = {k: {"value": v, "unit": E2E_UNITS.get(k) or layer_unit(k)}
               for k, v in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": record.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own child, one after another; the last line sums
    their results, with metrics named <workload>.<metric>."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        total["correct"] &= result["correct"] and done.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def layer_unit(name: str) -> str:
    if name.endswith("madd_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", ".yield")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
