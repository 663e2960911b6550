"""Self-tests of the benchmark harness: `python3 -m pytest -q perfbench`."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("c", 8.0, 12.0, 0),  # overlaps b and outlives root: clipped to 8..10
    ]
    assert tracing.self_times(spans) == [2.0, 2.0, 1.0, 4.0, 4.0]


def test_times_scale_to_the_reference_host_speed():
    ref = probes.KERNEL_REF_S
    assert probes.scale(2.0, ref, ref) == 2.0
    assert probes.scale(2.0, 2 * ref, 2 * ref) == 1.0     # host at half speed
    assert probes.scale(2.0, ref, 3 * ref) == 1.0         # speed averaged over the interval


def test_dy_oracle_on_hand_worked_groups():
    assert oracles.dy_dims((2,), 2, 4) == [1, 1, 1, 1]        # H^n(Z/2; F_2) = F_2
    assert oracles.dy_dims((2, 2), 2, 4) == [1, 2, 3, 4]      # 1 / (1 - t)^2
    assert oracles.dy_dims((2, 2, 2), 2, 3) == [1, 3, 6]      # 1 / (1 - t)^3
    assert oracles.dy_dims((2, 4), 2, 3) == [1, 2, 3]
    assert oracles.dy_dims((6,), 3, 3) == [1, 1, 1]
    assert oracles.dy_dims((3,), 2, 4) == [1, 0, 0, 0]        # p does not divide |G|
    assert oracles.dy_dims((5,), 0, 4) == [1, 0, 0, 0]        # characteristic 0


def test_subgroup_oracle_on_hand_worked_groups():
    assert [oracles.subgroup_count((n,)) for n in (1, 2, 3, 4, 6, 8)] == [1, 2, 2, 3, 4, 4]
    assert oracles.subgroup_count((2, 2)) == 5                # 1 + 3 lines + 1
    assert oracles.subgroup_count((3, 3)) == 6                # p + 3
    assert oracles.subgroup_count((2, 4)) == 8


def test_hom_oracle_on_hand_worked_groups():
    assert oracles.hom_count((2,), (4,)) == 2
    assert oracles.hom_count((4,), (4,)) == 4
    assert oracles.hom_count((6,), (3,)) == 3
    assert oracles.hom_count((2, 2), (2,)) == 4
    assert oracles.hom_count((2, 2), (2, 2)) == 16
    assert oracles.hom_count((3,), (2,)) == 1


def test_fusion_oracles():
    assert oracles.finite_field_product(2, 3) == (("FINITE_EXT(6)",), False)
    assert oracles.finite_field_product(4, 2) == (("FINITE_EXT(4)",) * 2, True)
    assert oracles.real_product("QUATERNION", "COMPLEXIFICATION") == ("COMPLEXIFICATION",)
    assert oracles.pointed_product(3, 0, "Vect", "Vect") == ("Vect",) * 3
    assert oracles.pointed_product(3, 2, "Vect", "Vect") == ("Vect(Z/3)",)


def test_wrong_expected_answer_makes_failed_frac_nonzero():
    from modcat import enumerate_ring_homs, group_ring, validate_zplus_ring

    z2 = validate_zplus_ring(group_ring([2]))

    def homs():
        return enumerate_ring_homs(z2, z2)

    right = workloads.Task("homs right", homs, lambda out: workloads._expect(
        "hom count", len(out), oracles.hom_count((2,), (2,))))
    wrong = workloads.Task("homs wrong", homs, lambda out: workloads._expect(
        "hom count", len(out), oracles.hom_count((2,), (2,)) + 1))
    record = run.Record()
    run.run_pass(workloads.Workload([right, wrong]), random.Random(0), record)
    assert record.attempted == 2
    assert [f.split(":")[0] for f in record.failures] == ["homs wrong"]


def test_tracer_sees_calls_made_inside_the_package_and_restores():
    import modcat
    from modcat import PointedFunctorData, QQ, FiniteAbelianGroup

    original = modcat.dy.rank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        functor = PointedFunctorData.identity(FiniteAbelianGroup((2,)), QQ)
        modcat.dy_cohomology_dims(modcat.build_dy_complex(functor, 2))
    finally:
        tracer.uninstall()
    assert modcat.dy.rank is original
    metrics = tracer.layer_metrics()
    assert metrics["dy.build_dy_complex.calls"] == 1
    assert metrics["linalg.rank.calls"] == 2      # bound in dy as `rank`
    assert metrics["linalg.rref.calls"] == 2      # called by rank
    assert metrics["linalg.rank.entries"] == 2 * 1 + 4 * 2
    assert tracing.check_layers("dy-sweep", metrics) == []
    assert "layer linalg recorded 4 calls on module-search" in tracing.check_layers(
        "module-search", metrics)
    assert "layer zmodule recorded no calls on module-search" in tracing.check_layers(
        "module-search", {k: 0 for k in metrics})


def test_missing_traced_function_fails_loudly(monkeypatch):
    import modcat

    original = modcat.linalg.rank
    monkeypatch.setitem(tracing.TRACED, "linalg.gone", ("modcat.linalg", "gone"))
    with pytest.raises(tracing.TraceError, match="modcat.linalg.gone"):
        tracing.Tracer().install()
    assert modcat.linalg.rank is original


def test_reported_metrics_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = (set(tracing.Tracer().layer_metrics()) | set(probes.CLI_PROBES)
                | set(probes.field_metrics()) | {"trace.overhead_frac"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in reported}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
