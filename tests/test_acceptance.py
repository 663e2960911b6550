"""Acceptance suite: one test per criterion, one printed line per criterion.

Every expectation is exact (integer counts, exact matrix identities); there
are no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from modcat.algebras import StructureConstantAlgebra, split_commutative_algebra
from modcat.basedring import (fibonacci_ring, find_weak_based_involutions,
                              group_ring, tau, trivial_ring, validate_zplus_ring)
from modcat.dy import PointedFunctorData, build_dy_complex, dy_cohomology_dims
from modcat.fieldprofile import COMPLEXIFICATION, QUATERNION, alg_closed, finite_ext
from modcat.fields import CyclotomicField, PrimeField, QQ
from modcat.fusion2 import (finite_field_tensor, pointed_braided_product,
                            real_division_tensor)
from modcat.pointed import (BraidingParam, FiniteAbelianGroup, h2_of_abelian,
                            module_classes, square_class_witnesses)
from modcat.skeleton import (TwoCatSkeleton, compactness_report,
                             mod_pointed_skeleton, mod_real_skeleton, pi0,
                             truncated_family_2vect_fp, validate_skeleton)
from modcat.zmodule import enumerate_irreducible_modules, enumerate_ring_homs

ROOT = Path(__file__).resolve().parent.parent


def _report(number: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_module_enumeration_counts():
    def body():
        expectations = [
            (group_ring([2]), 2),
            (group_ring([3]), 2),
            (fibonacci_ring(), 1),
        ]
        for data, count in expectations:
            ring = validate_zplus_ring(data)
            modules = enumerate_irreducible_modules(ring)
            assert len(modules) == count
            doubled = enumerate_irreducible_modules(ring, cap_scale=2)
            assert {m.canonical_key() for m in modules} == \
                {m.canonical_key() for m in doubled}

    _report(1, "irreducible module counts 2/2/1, stable under doubled caps", body)


def test_criterion_2_hom_finiteness():
    def body():
        z2 = validate_zplus_ring(group_ring([2]))
        fib = validate_zplus_ring(fibonacci_ring())
        unit = validate_zplus_ring(trivial_ring())
        assert len(enumerate_ring_homs(z2, z2)) == 2
        assert len(enumerate_ring_homs(fib, unit)) == 0
        assert [h.matrix for h in enumerate_ring_homs(z2, z2)] == \
            [h.matrix for h in enumerate_ring_homs(z2, z2, cap_scale=2)]
        assert enumerate_ring_homs(fib, unit, cap_scale=2) == []

    _report(2, "ring hom counts 2 and 0, stable under doubled caps", body)


def test_criterion_3_pi0_tables():
    def body():
        real = compactness_report(mod_real_skeleton())
        assert (real.num_components, real.num_simples, real.is_connected) == (1, 3, True)
        for p in (2, 3, 5):
            pointed_report = compactness_report(mod_pointed_skeleton(p, 0))
            assert (pointed_report.num_components, pointed_report.num_simples) == (1, 2)
        sizes = []
        for depth in (3, 5, 8):
            report = compactness_report(truncated_family_2vect_fp(2, depth))
            assert report.num_components == 1
            sizes.append(report.num_simples)
        assert sizes == [3, 5, 8]  # simples grow while components stay at one

    _report(3, "pi0 tables: 3-simple connected, 2-simple connected, growing family", body)


def test_criterion_4_module_class_counts():
    def body():
        for p in (2, 3, 5):
            char_zero = module_classes(FiniteAbelianGroup((p,)), alg_closed(0))
            assert len(char_zero) == 2
            assert all(c.separable for c in char_zero)
            char_p = module_classes(FiniteAbelianGroup((p,)), alg_closed(p))
            assert sum(1 for c in char_p if c.separable) == 1
        klein = module_classes(FiniteAbelianGroup((2, 2)), alg_closed(0))
        assert len(klein) == 6
        h2 = h2_of_abelian((2, 2), alg_closed(0))
        assert h2.order == 2
        from tests.test_pointed import oracle_h2_count
        assert oracle_h2_count(FiniteAbelianGroup((2, 2))) == 2

    _report(4, "module classes 2/1-separable/6 with Klein cocycle oracle at 2", body)


def test_criterion_5_dy_dimensions():
    def body():
        for p in (2, 3, 5):
            group = FiniteAbelianGroup((p,))
            modular = build_dy_complex(
                PointedFunctorData.identity(group, PrimeField(p)), 4)
            assert dy_cohomology_dims(modular) == [1, 1, 1, 1]
            rational = build_dy_complex(PointedFunctorData.identity(group, QQ), 4)
            assert dy_cohomology_dims(rational) == [1, 0, 0, 0]
        fields = [QQ, PrimeField(2), PrimeField(3), CyclotomicField(3)]
        groups = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]
        for orders in groups:
            group = FiniteAbelianGroup(orders)
            n_max = 3 if group.order <= 4 else 2
            for field in fields:
                complex_ = build_dy_complex(
                    PointedFunctorData.identity(group, field), n_max)
                for n in range(n_max - 1):
                    assert (complex_.deltas[n + 1] * complex_.deltas[n]).is_zero()

    _report(5, "DY dims 1,1,1,1 and 1,0,0,0; d after d = 0 through order 8", body)


def test_criterion_6_fusion_tables():
    def body():
        assert real_division_tensor(COMPLEXIFICATION, COMPLEXIFICATION).summands == \
            ("COMPLEXIFICATION", "COMPLEXIFICATION")
        assert real_division_tensor(COMPLEXIFICATION, QUATERNION).summands == \
            ("COMPLEXIFICATION",)
        assert real_division_tensor(QUATERNION, QUATERNION).summands == ("BASE",)
        for p in (2, 3, 5):
            classes = {c.label: c
                       for c in module_classes(FiniteAbelianGroup((p,)), alg_closed(0))}
            vect = classes["Vect"]
            trivial = pointed_braided_product(p, BraidingParam(p, 0), vect, vect)
            assert trivial.summands == tuple(["Vect"] * p)
            primitive = pointed_braided_product(p, BraidingParam(p, 1), vect, vect)
            assert primitive.summands == (f"Vect(Z/{p})",)
        for (p, q, r) in [(2, 2, 2), (2, 4, 2), (3, 3, 3)]:
            product = finite_field_tensor(p, q, r)
            assert product.summands == tuple([finite_ext(max(q, r)).name] * min(q, r))
            assert product.r_copies_rule_holds
        odd = finite_field_tensor(2, 3, 2)
        assert odd.summands == (finite_ext(6).name,)
        assert odd.r_copies_rule_holds is False

    _report(6, "fusion tables: real rules, braided Z/p rules, field towers with flag", body)


def test_criterion_7_square_class_witnesses():
    def body():
        witnesses = square_class_witnesses(10)
        assert witnesses == [1, 2, 3, 5, 6, 7, 10]
        assert len(witnesses) == 7
        counts = [len(square_class_witnesses(b)) for b in range(1, 101)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] > counts[9] > counts[0]
        for a, b in itertools.combinations(square_class_witnesses(25), 2):
            product = a * b
            root = int(product ** 0.5 + 0.5)
            assert root * root != product

    _report(7, "square-class witnesses: 7 below 10, monotone unbounded growth", body)


def _property_field_axioms() -> int:
    rng = random.Random(917)
    cases = 0
    f7 = PrimeField(7)
    cyclo = CyclotomicField(4)

    def random_elem(field):
        if field is QQ:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if field is f7:
            return field.from_int(rng.randint(-20, 20))
        return field.from_fractions(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(2)])

    for field in (QQ, f7, cyclo):
        for _ in range(340):
            a, b, c = (random_elem(field) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            zero = a - a
            if b != zero:
                assert (a / b) * b == a
            cases += 1
    return cases


def _property_tau_condition() -> int:
    checks = 0
    for orders in [[2], [3], [4], [2, 2], [5], [6], [2, 4], [7], [8], [2, 2, 2],
                   [9], [3, 3], [10], [11], [12], [2, 6], [13], [2, 2, 2, 2]]:
        ring = validate_zplus_ring(group_ring(orders))
        certs = find_weak_based_involutions(ring)
        assert len(certs) == 1
        cert = certs[0]
        for i in range(ring.rank):
            for j in range(ring.rank):
                value = tau(ring, ring.basis_product(i, j))
                if j == cert.involution[i]:
                    assert value == cert.t_values[i] > 0
                else:
                    assert value == 0
                checks += 1
    return checks


def _group_algebra(field, orders):
    elements = list(itertools.product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            k = index[tuple((a + b) % m for a, b, m in zip(g, h, orders))]
            mult[i][j][k] = 1
    unit = [0] * n
    unit[index[tuple(0 for _ in orders)]] = 1
    return StructureConstantAlgebra.from_int_constants(field, mult, unit)


def _property_idempotent_completeness() -> int:
    checks = 0
    cheap_fields = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
    cyclo_fields = [CyclotomicField(3), CyclotomicField(4)]
    cases = [(field, [n]) for field in cheap_fields + cyclo_fields
             for n in range(1, 7)]
    cases += [(field, orders) for field in cheap_fields
              for orders in ([2, 2], [2, 4], [3, 3], [2, 2, 2], [7], [8], [2, 6],
                             [9], [10])]
    for field, orders in cases:
        algebra = _group_algebra(field, orders)
        blocks = split_commutative_algebra(algebra)
        zero = [field.zero()] * algebra.dim
        total = list(zero)
        for _, e in blocks:
            assert algebra.mul_vec(e, e) == list(e)
            checks += 1
            total = [x + y for x, y in zip(total, e)]
        for (_, e1), (_, e2) in itertools.permutations(blocks, 2):
            assert algebra.mul_vec(e1, e2) == zero
            checks += 1
        assert total == list(algebra.unit)
        assert sum(d for d, _ in blocks) == algebra.dim
        checks += 1
    return checks


def _property_schur_closure() -> int:
    rng = random.Random(40_417)
    cases = 0
    for _ in range(1000):
        n = rng.randint(1, 7)
        labels = [f"X{i}" for i in range(n)]
        # random partition into components, then the full clique relation
        assignment = [rng.randrange(1 + rng.randrange(n)) for _ in range(n)]
        hom = [[assignment[i] == assignment[j] for j in range(n)] for i in range(n)]
        validated = validate_skeleton(TwoCatSkeleton.build(labels, hom))
        for comp in pi0(validated):
            for i in comp:
                for j in comp:
                    assert validated.hom_nonzero[i][j]
        cases += 1
    return cases


def _property_cli_determinism() -> int:
    commands = [
        ["ring", "validate", "data/fib.ring.json"],
        ["zmod", "enumerate", "data/z2.ring.json"],
        ["pointed", "classes", "--group", "2,2", "--field", "ac0"],
        ["pointed", "squareclasses", "--bound", "30"],
        ["dy", "dims", "--group", "2", "--coeff", "fp2", "--nmax", "3"],
        ["fusion2", "ffield", "2", "3", "2"],
    ]
    for command in commands:
        full = [sys.executable, "-m", "modcat"] + command
        first = subprocess.run(full, capture_output=True, cwd=ROOT)
        second = subprocess.run(full, capture_output=True, cwd=ROOT)
        assert first.returncode == 0
        assert first.stdout == second.stdout and first.stdout
    return len(commands)


def test_criterion_8_property_suites():
    def body():
        assert _property_field_axioms() >= 1000
        assert _property_tau_condition() >= 1000
        assert _property_idempotent_completeness() >= 100
        assert _property_schur_closure() >= 1000
        assert _property_cli_determinism() == 6

    _report(8, "property suites: field axioms, tau, idempotents, Schur, CLI bytes", body)
