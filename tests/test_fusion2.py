"""Fusion product tables for the three worked families."""

import itertools
from math import gcd

import pytest

from modcat.algebras import StructureConstantAlgebra
from modcat.errors import SizeGuardExceeded
from modcat.fieldprofile import (BASE, COMPLEXIFICATION, QUATERNION, alg_closed,
                                 finite_ext)
from modcat.fields import QQ
from modcat.fusion2 import (GradingMismatch, UnsupportedPrime, _center_block_is_imaginary,
                            braided_tensor_algebra, coefficient_field,
                            finite_field_tensor, graded_group_algebra,
                            irreducible_polynomial,
                            pointed_braided_product, rational_division_algebra,
                            real_division_tensor, realize_module_class,
                            tensor_algebra, unit_algebra_object)
from modcat.pointed import BraidingParam, FiniteAbelianGroup, module_classes


def classes_for(p):
    by_label = {c.label: c for c in
                module_classes(FiniteAbelianGroup((p,)), alg_closed(0))}
    return by_label[f"Vect(Z/{p})"], by_label["Vect"]


# -- braided tensor algebra ---------------------------------------------------

def test_trivial_twist_gives_product_group_algebra():
    p = 3
    field = coefficient_field(p)
    a = graded_group_algebra(p, field)
    product = braided_tensor_algebra(p, BraidingParam(p, 0), a, a)
    assert product.dim == 9
    # untwisted: the center is everything
    assert len(product.algebra.center_basis()) == 9


@pytest.mark.parametrize("p", [2, 3])
def test_primitive_twist_gives_central_simple_algebra(p):
    field = coefficient_field(p)
    a = graded_group_algebra(p, field)
    product = braided_tensor_algebra(p, BraidingParam(p, 1), a, a)
    assert product.dim == p * p
    # vu = zeta uv forces a one-dimensional center: the matrix algebra M_p
    assert len(product.algebra.center_basis()) == 1


def test_braided_tensor_checks_fields():
    a = graded_group_algebra(2, coefficient_field(2))
    b = graded_group_algebra(2, coefficient_field(3))
    with pytest.raises(GradingMismatch):
        braided_tensor_algebra(2, BraidingParam(2, 1), a, b)


def test_grading_respected_in_product():
    p = 2
    field = coefficient_field(p)
    a = unit_algebra_object(p, field)
    b = graded_group_algebra(p, field)
    prod = braided_tensor_algebra(p, BraidingParam(p, 1), a, b)
    assert prod.degrees == ((0,), (1,))


def test_dimension_bookkeeping():
    for p in (2, 3):
        field = coefficient_field(p)
        a = graded_group_algebra(p, field)
        for e in range(p):
            product = pointed_braided_product(p, BraidingParam(p, e), *_vect_pair(p))
            assert sum(product.block_dims) == p * p


def _vect_pair(p):
    _, vect = classes_for(p)
    return vect, vect


# -- pointed braided products -------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5])
def test_vect_times_vect_trivial_braiding(p):
    unit_class, vect = classes_for(p)
    product = pointed_braided_product(p, BraidingParam(p, 0), vect, vect)
    assert product.summands == tuple(["Vect"] * p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_vect_times_vect_primitive_braiding(p):
    unit_class, vect = classes_for(p)
    product = pointed_braided_product(p, BraidingParam(p, 1), vect, vect)
    assert product.summands == (f"Vect(Z/{p})",)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("exponent", [0, 1])
def test_unit_class_is_monoidal_unit(p, exponent):
    unit_class, vect = classes_for(p)
    zeta = BraidingParam(p, exponent)
    assert pointed_braided_product(p, zeta, unit_class, vect).summands == ("Vect",)
    assert pointed_braided_product(p, zeta, vect, unit_class).summands == ("Vect",)
    assert pointed_braided_product(p, zeta, unit_class, unit_class).summands == \
        (f"Vect(Z/{p})",)


@pytest.mark.parametrize("p", [2, 3])
def test_braided_table_commutative(p):
    unit_class, vect = classes_for(p)
    for e in range(p):
        zeta = BraidingParam(p, e)
        for x in (unit_class, vect):
            for y in (unit_class, vect):
                assert pointed_braided_product(p, zeta, x, y).summands == \
                    pointed_braided_product(p, zeta, y, x).summands


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("exponent", [0, 1])
def test_associativity_spot_check(p, exponent):
    # (Vect * Vect) * Vect == Vect * (Vect * Vect) as multisets of classes:
    # expand one factor of the outer product along the inner decomposition
    unit_class, vect = classes_for(p)
    zeta = BraidingParam(p, exponent)
    classes = {f"Vect(Z/{p})": unit_class, "Vect": vect}
    inner = pointed_braided_product(p, zeta, vect, vect)

    left_assoc = []
    for label in inner.summands:
        left_assoc.extend(
            pointed_braided_product(p, zeta, classes[label], vect).summands)
    right_assoc = []
    for label in inner.summands:
        right_assoc.extend(
            pointed_braided_product(p, zeta, vect, classes[label]).summands)
    assert sorted(left_assoc) == sorted(right_assoc)
    # at the algebra level the nested products agree on the nose: both
    # bracketings produce identical structure constants under the flat
    # ordering of triple indices
    field = coefficient_field(p)
    a = graded_group_algebra(p, field)
    left_nested = braided_tensor_algebra(p, zeta, braided_tensor_algebra(p, zeta, a, a), a)
    right_nested = braided_tensor_algebra(p, zeta, a, braided_tensor_algebra(p, zeta, a, a))
    assert left_nested.algebra.mult == right_nested.algebra.mult
    assert left_nested.degrees == right_nested.degrees


def test_unsupported_prime():
    with pytest.raises(UnsupportedPrime):
        unit_class, vect = classes_for(5)
        pointed_braided_product(7, BraidingParam(7, 1), vect, vect)


def test_nontrivial_cocycle_index_rejected():
    unit_class, vect = classes_for(3)
    fake = type(vect)(subgroup=vect.subgroup, cocycle_class_index=1, separable=True)
    with pytest.raises(Exception):
        realize_module_class(fake, coefficient_field(3))


# -- real closed family -------------------------------------------------------

def test_real_table_matches_three_rules():
    assert real_division_tensor(COMPLEXIFICATION, COMPLEXIFICATION).summands == \
        ("COMPLEXIFICATION", "COMPLEXIFICATION")
    assert real_division_tensor(COMPLEXIFICATION, QUATERNION).summands == \
        ("COMPLEXIFICATION",)
    assert real_division_tensor(QUATERNION, COMPLEXIFICATION).summands == \
        ("COMPLEXIFICATION",)
    assert real_division_tensor(QUATERNION, QUATERNION).summands == ("BASE",)


def test_real_table_unit_laws():
    for cls in (BASE, COMPLEXIFICATION, QUATERNION):
        assert real_division_tensor(BASE, cls).summands == (cls.name,)
        assert real_division_tensor(cls, BASE).summands == (cls.name,)


@pytest.mark.parametrize("square,imaginary", [(-1, True), (-3, True), (2, False), (5, False)])
def test_quadratic_center_block_is_imaginary_by_its_discriminant(square, imaginary):
    # Q(s) with s^2 = square on the basis 1, s; the unit is skipped, and 1 + s
    # has minimal polynomial x^2 - 2x + 1 - square, of discriminant 4 * square
    q_of_s = StructureConstantAlgebra.from_int_constants(
        QQ, [[[1, 0], [0, 1]], [[0, 1], [square, 0]]], [1, 0])
    assert _center_block_is_imaginary(q_of_s, [[QQ.one(), QQ.zero()], [QQ.one(), QQ.one()]],
                                      q_of_s.unit) is imaginary


def test_real_dimension_bookkeeping():
    # dim D * dim E = sum over blocks of m_i^2 * dim(class_i)
    cases = [
        (COMPLEXIFICATION, COMPLEXIFICATION),
        (COMPLEXIFICATION, QUATERNION),
        (QUATERNION, QUATERNION),
        (BASE, QUATERNION),
    ]
    dims = {"BASE": 1, "COMPLEXIFICATION": 2, "QUATERNION": 4}
    for d, e in cases:
        product = real_division_tensor(d, e)
        total = d.dim_over_base * e.dim_over_base
        assert sum(product.block_dims) == total
        for label, block_dim in zip(product.summands, product.block_dims):
            m2 = block_dim // dims[label]
            assert m2 * dims[label] == block_dim
            root = int(m2 ** 0.5 + 0.5)
            assert root * root == m2


def test_quaternion_model_is_associative():
    algebra = rational_division_algebra(QUATERNION)
    # i * j = k and j * i has the opposite sign
    i = [0, 1, 0, 0]
    j = [0, 0, 1, 0]
    field = algebra.field
    fi = [field.from_int(x) for x in i]
    fj = [field.from_int(x) for x in j]
    assert algebra.mul_vec(fi, fj) == [field.from_int(x) for x in [0, 0, 0, 1]]
    assert algebra.mul_vec(fj, fi) == [field.from_int(x) for x in [0, 0, 0, -1]]


def test_complex_times_complex_center_splits_by_ts():
    # independent check of the splitting element: t = i (x) 1, s = 1 (x) i,
    # and (ts)^2 = 1 gives the two idempotents (1 +- ts)/2
    tensor = tensor_algebra(rational_division_algebra(COMPLEXIFICATION),
                            rational_division_algebra(COMPLEXIFICATION))
    field = tensor.field
    ts = [field.from_int(x) for x in [0, 0, 0, 1]]
    assert tensor.mul_vec(ts, ts) == [field.from_int(x) for x in [1, 0, 0, 0]]


# -- prime field family -------------------------------------------------------

@pytest.mark.parametrize("p,q,r,copies,ext", [
    (2, 2, 2, 2, 2),
    (2, 4, 2, 2, 4),
    (3, 2, 2, 2, 2),
    (2, 6, 3, 3, 6),
    (2, 1, 5, 1, 5),
    (5, 1, 1, 1, 1),
])
def test_finite_field_tensor_divisible_cases(p, q, r, copies, ext):
    product = finite_field_tensor(p, q, r)
    assert product.summands == tuple([finite_ext(ext).name] * copies)
    assert product.r_copies_rule_holds


@pytest.mark.parametrize("p,q,r,copies,ext", [
    (2, 3, 2, 1, 6),
    (2, 4, 6, 2, 12),
    (3, 2, 3, 1, 6),
])
def test_finite_field_tensor_non_divisible_cases(p, q, r, copies, ext):
    product = finite_field_tensor(p, q, r)
    assert product.summands == tuple([finite_ext(ext).name] * copies)
    assert not product.r_copies_rule_holds


def test_finite_field_tensor_symmetry():
    a = finite_field_tensor(2, 3, 2)
    b = finite_field_tensor(2, 2, 3)
    assert a.summands == b.summands


def test_finite_field_guard():
    # the guard is on p * r, the size of the degree-r search and orbit loop;
    # q enters only through q mod r
    with pytest.raises(SizeGuardExceeded):
        finite_field_tensor(2, 1, 33)
    product = finite_field_tensor(2, 40, 2)
    assert product.summands == ("FINITE_EXT(40)",) * 2


def _primes_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


@pytest.mark.slow
@pytest.mark.parametrize("p", _primes_to(64))
def test_finite_field_guard_corners_finish(p):
    # the largest r the guard admits for p, with q mod r = r - 1: the most
    # orbit steps (r) of the largest Frobenius power (p^(r-1))
    r = 64 // p
    product = finite_field_tensor(p, 2 * r - 1, r)
    assert product.summands == (finite_ext((2 * r - 1) * r).name,)


def test_finite_field_tensor_against_group_algebra_blocks():
    # independent route: F_4 arises inside F_2[Z/3], so the block count of
    # F_2[Z/3 x Z/3] implies F_4 (x) F_4 = F_4 + F_4 (see test_algebras);
    # the orbit count must agree
    product = finite_field_tensor(2, 2, 2)
    assert product.summands == ("FINITE_EXT(2)", "FINITE_EXT(2)")


@pytest.mark.parametrize("p,q,r", [
    (p, q, r) for p in (2, 3, 5, 7) for q in range(1, 5) for r in range(1, 5)
] + [(2, 12, 16), (7, 9, 8), (2, 16, 32)])
def test_finite_field_tensor_oracle(p, q, r):
    # F_{p^q} (x) F_{p^r} = gcd(q, r) copies of F_{p^lcm(q, r)}; the last three
    # inputs are large cases inside the guard
    product = finite_field_tensor(p, q, r)
    lcm = q * r // gcd(q, r)
    assert product.summands == (finite_ext(lcm).name,) * gcd(q, r)
    assert product.r_copies_rule_holds == (q % r == 0 or r % q == 0)
    assert sum(product.block_dims) == q * r


def _trial_division_irreducible(p, coeffs):
    """Monic coeffs (ascending) over F_p has no monic factor of degree 1..n/2."""
    n = len(coeffs) - 1
    for k in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=k):
            divisor = list(tail) + [1]
            rem = list(coeffs)
            for shift in range(n - k, -1, -1):
                c = rem[shift + k]
                for i, b in enumerate(divisor):
                    rem[shift + i] = (rem[shift + i] - c * b) % p
            if not any(rem[:k]):
                return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("degree", range(1, 7))
def test_irreducible_polynomial_is_lex_first(p, degree):
    expected = next(list(tail) + [1] for tail in itertools.product(range(p), repeat=degree)
                    if _trial_division_irreducible(p, list(tail) + [1]))
    assert [c.v for c in irreducible_polynomial(p, degree).coeffs] == expected
