"""Deformation cochain complexes: differential identities and dimensions."""

import math

import pytest

from modcat.dy import (NMAX_GUARD, SIZE_GUARD, PointedFunctorData, SeparabilityDiagnostic,
                       build_dy_complex, dy_cohomology_dims,
                       separability_diagnostic)
from modcat.errors import SizeGuardExceeded, ValidationError
from modcat.fields import CyclotomicField, PrimeField, QQ
from modcat.linalg import Matrix, rank
from modcat.pointed import FiniteAbelianGroup


def identity_complex(orders, field, n_max=4):
    group = FiniteAbelianGroup(orders)
    return build_dy_complex(PointedFunctorData.identity(group, field), n_max)


def test_cochain_dimensions():
    c = identity_complex((2,), PrimeField(2), n_max=2)
    assert c.cochain_dims == (1, 2, 4)


def test_delta0_is_zero():
    # at n = 0 the outer terms cancel: (d f)(g0) = f() - f() = 0
    c = identity_complex((2,), QQ, n_max=2)
    assert c.deltas[0].is_zero()


def test_delta1_matrix_by_hand_over_q():
    # basis of C^1: (f(e), f(g)); rows (e,e), (e,g), (g,e), (g,g) give
    # (1,0), (1,0), (1,0), (-1,2)
    c = identity_complex((2,), QQ, n_max=2)
    expected = Matrix.from_ints(QQ, [[1, 0], [1, 0], [1, 0], [-1, 2]])
    assert c.deltas[1] == expected
    assert rank(c.deltas[1]) == 2


def test_delta1_rank_over_f2_is_one():
    c = identity_complex((2,), PrimeField(2), n_max=2)
    assert rank(c.deltas[1]) == 1


def test_trivial_group_complex():
    # one simple object: every cochain space is one-dimensional, the
    # telescoping sums make the differentials alternate between zero and the
    # identity, and the cohomology is a single class in degree zero
    c = identity_complex((), QQ, n_max=3)
    assert c.cochain_dims == (1, 1, 1, 1)
    assert dy_cohomology_dims(c) == [1, 0, 0]
    assert c.deltas[0].is_zero()
    assert not c.deltas[1].is_zero()
    assert c.deltas[2].is_zero()


@pytest.mark.parametrize("p", [2, 3])
def test_modular_dims_one_one_one_one(p):
    c = identity_complex((p,), PrimeField(p), n_max=4)
    assert dy_cohomology_dims(c) == [1, 1, 1, 1]


@pytest.mark.parametrize("p", [2, 3])
def test_char_zero_dims_one_zero_zero_zero(p):
    c = identity_complex((p,), QQ, n_max=4)
    assert dy_cohomology_dims(c) == [1, 0, 0, 0]


def test_coefficient_field_independence_char_zero():
    over_q = dy_cohomology_dims(identity_complex((3,), QQ, n_max=3))
    over_cyclo = dy_cohomology_dims(identity_complex((3,), CyclotomicField(3), n_max=3))
    assert over_q == over_cyclo


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,),
                                    (2, 4), (2, 2, 2)])
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), CyclotomicField(3)])
def test_delta_after_delta_vanishes(orders, field):
    group = FiniteAbelianGroup(orders)
    n_max = 3 if group.order <= 4 else 2
    c = build_dy_complex(PointedFunctorData.identity(group, field), n_max)
    for n in range(n_max - 1):
        assert (c.deltas[n + 1] * c.deltas[n]).is_zero()


def test_euler_characteristic_on_exact_truncation():
    # for Z/3 over Q the complex is exact beyond degree 0, so the alternating
    # sums of cochain and cohomology dimensions agree on the truncation
    c = identity_complex((3,), QQ, n_max=4)
    dims = dy_cohomology_dims(c)
    euler_h = sum((-1) ** n * d for n, d in enumerate(dims))
    ranks = [rank(delta) for delta in c.deltas]
    # chi of the truncated complex, corrected by the image escaping the top:
    # the telescoping rank sums leave (-1)^n_max rank(delta_top)
    euler_c = sum((-1) ** n * d for n, d in enumerate(c.cochain_dims[:-1]))
    assert euler_h == euler_c + (-1) ** c.n_max * ranks[-1]


def test_separability_diagnostics():
    assert separability_diagnostic(FiniteAbelianGroup((3,)), QQ) == \
        SeparabilityDiagnostic(0, 0, True)
    assert separability_diagnostic(FiniteAbelianGroup((2,)), PrimeField(2)) == \
        SeparabilityDiagnostic(1, 1, False)
    assert separability_diagnostic(FiniteAbelianGroup((2,)), PrimeField(3)) == \
        SeparabilityDiagnostic(0, 0, True)


def test_char_zero_vanishing_above_degree_zero():
    for orders in [(2,), (3,), (2, 2)]:
        c = identity_complex(orders, QQ, n_max=4)
        assert dy_cohomology_dims(c)[1:] == [0, 0, 0]


def test_size_guard():
    with pytest.raises(SizeGuardExceeded):
        identity_complex((32,), QQ, n_max=4)
    with pytest.raises(SizeGuardExceeded) as info:
        identity_complex((2,), QQ, n_max=9)
    assert (info.value.size, info.value.guard) == (9, NMAX_GUARD)
    with pytest.raises(ValidationError):
        identity_complex((2,), QQ, n_max=0)


# size = sum over n < n_max of |G|^(n+1) rows times (|G|^n entries + 7)
@pytest.mark.parametrize("orders,n_max,size", [
    ((17,), 3, 1_461_320),
    ((8,), 4, 2_163_200),       # admitted by the old |G|^(n_max+1) proxy
    ((137_501,), 1, 1_100_008),  # one entry per row: the row headers dominate
])
def test_size_guard_counts_dense_rows_and_entries(orders, n_max, size):
    with pytest.raises(SizeGuardExceeded) as info:
        identity_complex(orders, QQ, n_max=n_max)
    assert (info.value.size, info.value.guard) == (size, SIZE_GUARD)


@pytest.mark.slow
def test_size_guard_boundary_finishes():
    # Z/16 at n_max 3 holds 1,052,688 entries in 4,368 rows: size 1,083,264
    assert dy_cohomology_dims(identity_complex((16,), QQ, n_max=3)) == [1, 0, 0]


# every abelian group of order at most 8, by invariant factors
SMALL_GROUPS = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (2, 4), (2, 2, 2)]


def closed_form_dims(orders, char, n_max):
    """dim H^n in characteristic p is the t^n coefficient of (1 - t)^(-k), k the
    number of cyclic factors of order divisible by p; 1, 0, 0, ... in characteristic 0."""
    k = sum(1 for m in orders if char and m % char == 0)
    if k == 0:
        return [1] + [0] * (n_max - 1)
    return [math.comb(n + k - 1, k - 1) for n in range(n_max)]


@pytest.mark.parametrize("orders,field,n_max",
                         [(orders, field, 3) for orders in SMALL_GROUPS
                          for field in (QQ, PrimeField(2), PrimeField(3))]
                         + [((5,), QQ, 4)])
def test_dims_match_p_rank_closed_form(orders, field, n_max):
    dims = dy_cohomology_dims(identity_complex(orders, field, n_max=n_max))
    assert dims == closed_form_dims(orders, field.char, n_max)
    # only nonzero entries are stored, such as no 2 over F_2, each in a column
    for delta in identity_complex(orders, field, n_max=n_max).deltas:
        for row in delta.rows:
            assert all(c != field.zero() and col in range(delta.ncols)
                       for col, c in row.items())


def test_hand_built_invalid_complex_is_rejected():
    from modcat.dy import ComplexNotValid, DYComplex
    good = identity_complex((2,), QQ, n_max=2)
    with pytest.raises(ComplexNotValid):
        DYComplex(n_max=2, cochain_dims=good.cochain_dims,
                  deltas=(Matrix.from_ints(QQ, [[1], [0]]),
                          Matrix.from_ints(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]])))


def test_functor_hom_well_definedness():
    src = FiniteAbelianGroup((4,))
    tgt = FiniteAbelianGroup((2,))
    # generator of order 4 can map onto the order-2 generator
    PointedFunctorData(source=src, target=tgt, hom=((1,),), field=QQ)
    with pytest.raises(ValidationError):
        # order-2 generator cannot map to an order-4 element
        PointedFunctorData(source=FiniteAbelianGroup((2,)), target=src,
                           hom=((1,),), field=QQ)
    with pytest.raises(ValidationError):
        # an image needs one coordinate per cyclic factor of the target
        PointedFunctorData(source=tgt, target=tgt, hom=((1, 5),), field=QQ)
