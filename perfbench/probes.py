"""Measurements taken in fresh child interpreters, and the field kernels.

The set-up probe (``setup_probe.py``) is timed from process start to its
"ready" line, which it prints once its workload's inputs are built.  The
``cli.*`` probes time whole child launches.  The field kernels time a fixed
multiply-add loop through the public element operators, and the reference
kernel measures how fast the host runs plain Python right now.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from workloads import CHILD_TIMEOUT_S, ROOT, child_env

SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"


class ProbeFailed(RuntimeError):
    pass


def setup_time(workload: str) -> float:
    """Seconds from launching a fresh interpreter to its inputs being ready."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(SETUP_PROBE), workload], cwd=ROOT,
                            env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        ready = perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if line != b"ready\n" or code != 0:
        raise ProbeFailed(f"set-up probe for {workload} exited {code} after {line!r}")
    return ready - start


def launch_time(code: str) -> float:
    """Seconds for one `python -c code` child, start to exit."""
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)
    elapsed = perf_counter() - start
    if done.returncode != 0:
        raise ProbeFailed(f"python -c {code!r} exited {done.returncode}")
    return elapsed


CLI_PROBES = {
    "cli.interp_s": "pass",
    "cli.import_s": "import modcat.cli",
    "cli.sympy_import_s": "import sympy",
}


def cli_metrics(repeats: int = 3) -> dict:
    """Median launch time of each CLI probe; one discarded launch first
    compiles any missing bytecode."""
    out = {}
    for name, code in CLI_PROBES.items():
        launch_time(code)
        out[name] = statistics.median(launch_time(code) for _ in range(repeats))
    return out


# Host speed on a shared machine swings by up to a factor of two within tens
# of seconds, and no amount of repetition inside one run averages that out.
# So every task time is scaled by the speed of this fixed pure-Python kernel,
# timed just before and just after the task: times are reported in reference
# seconds, the seconds the task takes on a host where one kernel call takes
# KERNEL_REF_S.  The kernel touches no modcat code, so a change to modcat
# moves the scaled times exactly as it moves the raw ones.
KERNEL_REF_S = 0.0006


def _kernel():
    acc = Fraction(0)
    seen = {}
    rows = []
    for i in range(1, 120):
        acc += Fraction(i % 7 - 3, 1 + i % 5) * Fraction(1 + i % 3, 2)
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
        rows.append([i % 11, i % 5, key])
    rows.sort()
    return acc


def kernel_time(repeats: int = 5) -> float:
    """Median seconds of one call of the reference kernel, right now."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(raw: float, before: float, after: float) -> float:
    """Reference seconds of an interval of ``raw`` seconds, given the kernel
    times measured just before and just after it."""
    return raw * 2 * KERNEL_REF_S / (before + after)


def _madd_rate(zero, xs, ys, rounds: int, repeats: int = 5) -> float:
    """Multiply-adds per second of acc = acc + x * y over fixed vectors."""
    rates = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(rounds):
            acc = zero
            for x, y in zip(xs, ys):
                acc = acc + x * y
        rates.append(rounds * len(xs) / (perf_counter() - start))
    return statistics.median(rates)


def field_metrics() -> dict:
    """fields.{fp,q,cyclo}.madd_per_s: F_3 and Q as in the DY ranks, Q(zeta_5)
    as in the p = 5 braided products; 64-long vectors of small entries."""
    from modcat import QQ, CyclotomicField, PrimeField

    f3 = PrimeField(3)
    cyclo = CyclotomicField(5)
    n = range(64)
    return {
        "fields.fp.madd_per_s": _madd_rate(
            f3.zero(), [f3.from_int(i) for i in n], [f3.from_int(i + 1) for i in n], 400),
        "fields.q.madd_per_s": _madd_rate(
            QQ.zero(), [Fraction(i % 7 - 3, 1 + i % 4) for i in n],
            [Fraction(1 + i % 5, 1 + i % 3) for i in n], 100),
        "fields.cyclo.madd_per_s": _madd_rate(
            cyclo.zero(),
            [cyclo.from_fractions([i % 3 - 1, Fraction(1, 1 + i % 2), 0, i % 2]) for i in n],
            [cyclo.from_fractions([1, 0, i % 2, Fraction(-1, 2)]) for i in n], 6),
    }
