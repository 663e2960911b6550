"""Spans around modcat's public functions, recorded from outside the package.

modcat binds its own functions by name (``from .linalg import rank``), so a
wrapper installed only on the defining module would miss every call made
inside the package.  ``Tracer.install`` therefore replaces the function in
every ``modcat.*`` namespace that holds the same object, and patches methods
on their class.  Each span records its name, start, end and the index of the
span that was open when it started; counts (shape, nonzeros, dimension,
results) are taken at the same boundary but outside the timed interval.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# metric prefix -> (defining module, attribute path)
TRACED = {
    "linalg.rref": ("modcat.linalg", "rref"),
    "linalg.rank": ("modcat.linalg", "rank"),
    "linalg.kernel_basis": ("modcat.linalg", "kernel_basis"),
    "linalg.solve": ("modcat.linalg", "solve"),
    "linalg.matmul": ("modcat.linalg", "Matrix.__mul__"),
    "poly.factor_list": ("modcat.poly", "factor_list"),
    "poly.xgcd": ("modcat.poly", "xgcd"),
    "algebras.validate": ("modcat.algebras", "StructureConstantAlgebra.validate"),
    "algebras.center_basis": ("modcat.algebras", "StructureConstantAlgebra.center_basis"),
    "algebras.split_commutative_algebra": ("modcat.algebras", "split_commutative_algebra"),
    "algebras.min_poly_of_matrix": ("modcat.algebras", "min_poly_of_matrix"),
    "fusion2.pointed_braided_product": ("modcat.fusion2", "pointed_braided_product"),
    "fusion2.braided_tensor_algebra": ("modcat.fusion2", "braided_tensor_algebra"),
    "fusion2.real_division_tensor": ("modcat.fusion2", "real_division_tensor"),
    "fusion2.finite_field_tensor": ("modcat.fusion2", "finite_field_tensor"),
    "dy.build_dy_complex": ("modcat.dy", "build_dy_complex"),
    "dy.dy_cohomology_dims": ("modcat.dy", "dy_cohomology_dims"),
    "basedring.validate_zplus_ring": ("modcat.basedring", "validate_zplus_ring"),
    "basedring.find_weak_based_involutions": ("modcat.basedring", "find_weak_based_involutions"),
    "zmodule.enumerate_irreducible_modules": ("modcat.zmodule", "enumerate_irreducible_modules"),
    "zmodule.enumerate_ring_homs": ("modcat.zmodule", "enumerate_ring_homs"),
    "zmodule.validate_module": ("modcat.zmodule", "validate_module"),
    "zmodule.canonical_key": ("modcat.zmodule", "ValidatedModule.canonical_key"),
}

# Which workload each layer must be seen working on, and where it must not
# run at all.  A layer with zero calls where it should work means a rename
# in src/ has silently emptied its metrics.
LAYER_EXPECTATIONS = {
    "linalg": ({"fusion-tables", "dy-sweep"}, {"module-search"}),
    "poly": ({"fusion-tables"}, {"dy-sweep", "module-search"}),
    "algebras": ({"fusion-tables"}, {"dy-sweep", "module-search"}),
    "fusion2": ({"fusion-tables"}, {"dy-sweep", "module-search", "cli-examples"}),
    "dy": ({"dy-sweep"}, {"fusion-tables", "module-search", "cli-examples"}),
    "basedring": ({"module-search"}, {"fusion-tables", "dy-sweep"}),
    "zmodule": ({"module-search"}, {"fusion-tables", "dy-sweep"}),
}

# Counters beyond calls and self time, in metric order.
EXTRA_COUNTS = ("linalg.rank.entries", "algebras.validate.triples",
                "algebras.split_commutative_algebra.blocks",
                "dy.build_dy_complex.cochain_entries",
                "zmodule.enumerate_irreducible_modules.results",
                "zmodule.enumerate_ring_homs.results")


class TraceError(RuntimeError):
    """The traced API no longer matches the benchmark's list."""


def _nonzeros(rows, zero) -> int:
    return sum(1 for row in rows for c in row if c != zero)


def _count_rank(counts, args, result):
    m = args[0]
    counts["linalg.rank.entries"] += m.nrows * m.ncols
    counts["linalg.rank.nnz"] += _nonzeros(m.rows, m.field.zero())


def _count_validate(counts, args, result):
    algebra = args[0]
    counts["algebras.validate.triples"] += algebra.dim ** 3
    counts["algebras.validate.nnz"] += _nonzeros(
        (cell for row in algebra.mult for cell in row), algebra.field.zero())


def _count_split(counts, args, result):
    counts["algebras.split_commutative_algebra.blocks"] += len(result)


def _count_dy(counts, args, result):
    counts["dy.build_dy_complex.cochain_entries"] += sum(
        m.nrows * m.ncols for m in result.deltas)


def _count_results(name):
    def count(counts, args, result):
        counts[name + ".results"] += len(result)
    return count


COUNTERS = {
    "linalg.rank": _count_rank,
    "algebras.validate": _count_validate,
    "algebras.split_commutative_algebra": _count_split,
    "dy.build_dy_complex": _count_dy,
    "zmodule.enumerate_irreducible_modules":
        _count_results("zmodule.enumerate_irreducible_modules"),
    "zmodule.enumerate_ring_homs": _count_results("zmodule.enumerate_ring_homs"),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` holds (name, start, end, parent index or -1) tuples.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for s, e in sorted(children[i]):
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if run_end is not None and s <= run_end:
                run_end = max(run_end, e)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list = []
        self.enabled = True  # off while answers are checked

    def _wrap(self, name, fn, count):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counts, args, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED; raise TraceError if one is gone."""
        import modcat  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items()
                   if n == "modcat" or n.startswith("modcat.")]
        for name, (module_name, path) in TRACED.items():
            owner = sys.modules.get(module_name)
            *class_path, attr = path.split(".")
            for part in class_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.uninstall()
                raise TraceError(f"{module_name}.{path} no longer exists")
            wrapper = self._wrap(name, original, COUNTERS.get(name))
            holders = [owner] if class_path else [
                m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key in [k for k, v in vars(holder).items() if v is original]:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def layer_metrics(self) -> dict:
        """calls and self_s per traced function, plus the derived counts."""
        calls, self_s = Counter(), defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_s[span[0]] += own
        out = {}
        for name in TRACED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for name in EXTRA_COUNTS:
            out[name] = self.counts[name]
        c = self.counts
        out["linalg.rank.nnz_frac"] = _ratio(c["linalg.rank.nnz"], c["linalg.rank.entries"])
        out["algebras.validate.nnz_frac"] = _ratio(c["algebras.validate.nnz"],
                                                   c["algebras.validate.triples"])
        out["zmodule.enum.yield"] = _ratio(c["zmodule.enumerate_irreducible_modules.results"],
                                           calls["zmodule.validate_module"])
        return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def check_layers(workload: str, metrics: dict) -> list[str]:
    """Layers with no calls where they must work, or calls where they must not."""
    problems = []
    for layer, (works, flat) in LAYER_EXPECTATIONS.items():
        calls = sum(v for k, v in metrics.items()
                    if k.startswith(layer + ".") and k.endswith(".calls"))
        if workload in works and calls == 0:
            problems.append(f"layer {layer} recorded no calls on {workload}")
        if workload in flat and calls != 0:
            problems.append(f"layer {layer} recorded {calls} calls on {workload}")
    return problems
