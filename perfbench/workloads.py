"""The four benchmark workloads: their set-up, their tasks and the checks.

Calling ``WORKLOADS[name]()`` is the set-up phase: for the in-process
workloads it imports modcat and builds every input (fields, module classes,
validated rings and their weak-based certificates), so ``setup_s`` measures
exactly this call in a fresh interpreter.  Each task is one call into
modcat's public API, and its check compares the answer with a closed form
from ``oracles`` -- never with modcat's own code.  Which cases are in each
list, and which were left out, is explained in NOTES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when the answer is right


@dataclass
class Workload:
    tasks: list[Task]
    # {task name: answer} of one pass -> {task name: reason} for answers that
    # are only wrong together (two caps finding different modules)
    cross_check: Callable[[dict], dict] = field(default=lambda results: {})


def _expect(what: str, actual, expected) -> "str | None":
    return None if actual == expected else f"{what}: got {actual!r}, expected {expected!r}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# -- fusion-tables -------------------------------------------------------------

POINTED_CASES = [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (5, 1)]
FFIELD_CASES = [(2, 2, 2), (2, 4, 2), (3, 3, 3), (2, 3, 2), (2, 4, 6), (3, 4, 6),
                (2, 6, 9), (2, 8, 12)]
# The 25-dimensional p = 5 Vect x Vect product (about 14 s alone) is left out
# so that one pass fits several times into a run; see NOTES.md.
POINTED_SKIPPED = {(5, 1, "Vect", "Vect")}


def fusion_tables() -> Workload:
    from modcat import (BASE, COMPLEXIFICATION, QUATERNION, BraidingParam,
                        FiniteAbelianGroup, alg_closed, finite_field_tensor,
                        module_classes, pointed_braided_product,
                        real_division_tensor)

    tasks = []
    for p, zeta in POINTED_CASES:
        braiding = BraidingParam(p, zeta)
        classes = module_classes(FiniteAbelianGroup((p,)), alg_closed(0))
        for a in classes:
            for b in classes:
                if (p, zeta, a.label, b.label) in POINTED_SKIPPED:
                    continue
                tasks.append(Task(
                    f"pointed p={p} zeta={zeta} {a.label}*{b.label}",
                    lambda p=p, z=braiding, a=a, b=b: pointed_braided_product(p, z, a, b),
                    lambda out, p=p, zeta=zeta, a=a.label, b=b.label: (
                        _expect("summands", out.summands, oracles.pointed_product(p, zeta, a, b))
                        or _expect("sum(block_dims)", sum(out.block_dims),
                                   oracles.pointed_dim(p, a) * oracles.pointed_dim(p, b)))))
    for d in (BASE, COMPLEXIFICATION, QUATERNION):
        for e in (BASE, COMPLEXIFICATION, QUATERNION):
            tasks.append(Task(
                f"real {d.name}*{e.name}",
                lambda d=d, e=e: real_division_tensor(d, e),
                lambda out, a=d.name, b=e.name: (
                    _expect("summands", out.summands, tuple(sorted(oracles.real_product(a, b))))
                    or _expect("sum(block_dims)", sum(out.block_dims),
                               oracles.REAL_DIMS[a] * oracles.REAL_DIMS[b]))))
    for p, q, r in FFIELD_CASES:
        # block_dims is deliberately not checked: it holds field cardinalities
        # p^(q d), not dimensions, a known defect whose fix must not read as a
        # benchmark failure.
        names, rule = oracles.finite_field_product(q, r)
        tasks.append(Task(
            f"ffield {p} {q} {r}",
            lambda p=p, q=q, r=r: finite_field_tensor(p, q, r),
            lambda out, names=names, rule=rule: (
                _expect("summands", out.summands, names)
                or _expect("r_copies_rule_holds", out.r_copies_rule_holds, rule))))
    return Workload(tasks)


# -- dy-sweep ------------------------------------------------------------------

# (cyclic orders, n_max, coefficient codes)
DY_CASES = [
    ((2,), 4, ("q", "fp2", "fp3")),
    ((3,), 4, ("q", "fp2", "fp3", "cyclo3")),
    ((4,), 4, ("q", "fp2", "fp3")),
    ((2, 2), 4, ("q", "fp2", "fp3")),
    ((5,), 3, ("q",)),
    ((6,), 3, ("q", "fp2", "fp3")),
    ((7,), 3, ("q",)),
    ((8,), 3, ("fp2",)),
    ((2, 4), 3, ("fp2",)),
    ((2, 2, 2), 3, ("fp2",)),
]


def _char(code: str) -> int:
    return int(code[2:]) if code.startswith("fp") else 0


def dy_sweep() -> Workload:
    from modcat import (FiniteAbelianGroup, PointedFunctorData, build_dy_complex,
                        dy_cohomology_dims, field_from_code)

    tasks = []
    for orders, n_max, codes in DY_CASES:
        group = FiniteAbelianGroup(orders)
        for code in codes:
            functor = PointedFunctorData.identity(group, field_from_code(code))
            tasks.append(Task(
                f"dy {'x'.join(map(str, orders))} {code} n_max={n_max}",
                lambda f=functor, n=n_max: dy_cohomology_dims(build_dy_complex(f, n)),
                lambda out, exp=oracles.dy_dims(orders, _char(code), n_max):
                    _expect("dims", out, exp)))
    return Workload(tasks)


# -- module-search -------------------------------------------------------------

# name -> (cyclic orders of the group, or None for the two non-group rings)
RINGS = {"Z2": (2,), "Z3": (3,), "Z4": (4,), "Z2xZ2": (2, 2), "Z6": (6,),
         "Fib": None, "Triv": None}
# (ring, cap_scale).  Z/4 and Z/2 x Z/2 at cap_scale 2 (about 6 s and 5 s,
# each one task) are left out so that a pass stays a few seconds long; Z/3 at
# cap_scale 3 is the enlarged-cap case of medium size.
MODULE_CASES = [("Z2", 1), ("Z2", 2), ("Z3", 1), ("Z3", 2), ("Z3", 3), ("Z4", 1),
                ("Z2xZ2", 1), ("Fib", 1), ("Fib", 2), ("Triv", 1), ("Triv", 2)]
HOM_CASES = [("Z2", "Z2"), ("Z3", "Z3"), ("Z2", "Z4"), ("Z4", "Z2"),
             ("Z2xZ2", "Z2"), ("Fib", "Triv"), ("Fib", "Fib"), ("Z6", "Z3")]
NON_GROUP_MODULES = {"Fib": 1, "Triv": 1}
NON_GROUP_HOMS = {("Fib", "Triv"): 0, ("Fib", "Fib"): 1}


def module_search() -> Workload:
    from modcat import (enumerate_irreducible_modules, enumerate_ring_homs,
                        fibonacci_ring, find_weak_based_involutions, group_ring,
                        trivial_ring, validate_zplus_ring)

    non_group = {"Fib": fibonacci_ring, "Triv": trivial_ring}
    certs = {}
    for name, orders in RINGS.items():
        data = group_ring(list(orders)) if orders else non_group[name]()
        certs[name] = find_weak_based_involutions(validate_zplus_ring(data))[0]

    tasks = []
    for ring, cap in MODULE_CASES:
        orders = RINGS[ring]
        expected = (oracles.subgroup_count(orders) if orders
                    else NON_GROUP_MODULES[ring])
        tasks.append(Task(
            f"modules {ring} cap={cap}",
            lambda c=certs[ring], s=cap: enumerate_irreducible_modules(c, cap_scale=s),
            lambda out, exp=expected: _expect("module count", len(out), exp)))
    for src, tgt in HOM_CASES:
        if RINGS[src] and RINGS[tgt]:
            expected = oracles.hom_count(RINGS[src], RINGS[tgt])
        else:
            expected = NON_GROUP_HOMS[(src, tgt)]
        tasks.append(Task(
            f"homs {src}->{tgt}",
            lambda a=certs[src], b=certs[tgt]: enumerate_ring_homs(a, b),
            lambda out, exp=expected: _expect("hom count", len(out), exp)))

    def caps_agree(results: dict) -> dict:
        """Enlarged caps must find exactly the same modules as cap_scale 1."""
        bad = {}
        for ring, cap in MODULE_CASES:
            base, big = f"modules {ring} cap=1", f"modules {ring} cap={cap}"
            if cap > 1 and base in results and big in results:
                keys = [{m.canonical_key() for m in results[t]} for t in (base, big)]
                if keys[0] != keys[1]:
                    bad[big] = (f"canonical keys differ from cap=1 "
                                f"({len(keys[1])} vs {len(keys[0])})")
        return bad

    return Workload(tasks, caps_agree)


# -- cli-examples --------------------------------------------------------------

def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """One `python -m modcat` child, from the checkout root."""
    proc = subprocess.run([sys.executable, "-m", "modcat", *argv], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout


def cli_examples() -> Workload:
    """The README's example commands; stdout must match the copy captured
    at the seed commit byte for byte, with exit code 0."""
    golden = json.loads(GOLDEN.read_text())
    return Workload([
        Task("cli " + " ".join(case["argv"]),
             lambda argv=case["argv"]: run_cli(argv),
             lambda out, want=case["stdout"].encode(): (
                 _expect("exit code", out[0], 0) or
                 (None if out[1] == want else "stdout differs from the golden copy")))
        for case in golden])


WORKLOADS = {
    "fusion-tables": fusion_tables,
    "dy-sweep": dy_sweep,
    "module-search": module_search,
    "cli-examples": cli_examples,
}
IN_PROCESS = ("fusion-tables", "dy-sweep", "module-search")
