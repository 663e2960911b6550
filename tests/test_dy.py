"""Deformation cochain complexes: differential identities and dimensions."""

import itertools
import math

import pytest

from modcat.dy import (SIZE_GUARD, DYComplex, PointedFunctorData,
                       SeparabilityDiagnostic, build_dy_complex, dy_cohomology_dims,
                       separability_diagnostic)
from modcat.errors import SizeGuardExceeded, UsageError, ValidationError
from modcat.fields import CyclotomicField, PrimeField, QQ, field_from_code
from modcat.linalg import Matrix, rank
from modcat.pointed import FiniteAbelianGroup


def identity_complex(orders, field, n_max=4):
    group = FiniteAbelianGroup(orders)
    return build_dy_complex(PointedFunctorData.identity(group, field), n_max)


def full_delta_rows(group, n):
    """The rows of the full bar differential d^n over Z, on all |G|^(n+1)
    tuples; the reference the normalized complex is checked against.

    Row r is the (n+1)-tuple whose base-|G| digits (in the order of
    ``group.elements()``) are the element indices of g_0, ..., g_n, and each
    face is an n-tuple indexed the same way: face i carries the sign (-1)^i,
    faces that coincide are summed, and sums of 0 are dropped.
    """
    elements = group.elements()
    index = {g: i for i, g in enumerate(elements)}
    add = [[index[group.add(g, h)] for h in elements] for g in elements] if n else []
    order = len(elements)
    merges = [(order ** (n - i + 2), order ** (n - i + 1), order ** (n - i), (-1) ** i)
              for i in range(1, n + 1)]
    last_sign = (-1) ** (n + 1)
    cols = order ** n
    rows = []
    for r, digits in enumerate(itertools.product(range(order), repeat=n + 1)):
        terms = {r % cols: 1}
        for i, (above, shift, below, sign) in enumerate(merges, start=1):
            col = r // above * shift + add[digits[i - 1]][digits[i]] * below + r % below
            terms[col] = terms.get(col, 0) + sign
        col = r // order
        terms[col] = terms.get(col, 0) + last_sign
        rows.append({c: v for c, v in terms.items() if v})
    return rows


def test_cochain_dimensions():
    c = identity_complex((2,), PrimeField(2), n_max=2)
    assert c.cochain_dims == (1, 2, 4)


def test_delta0_is_zero():
    # at n = 0 the outer terms cancel: (d f)(g0) = f() - f() = 0
    c = identity_complex((2,), QQ, n_max=2)
    assert c.deltas[0].is_zero()


def test_delta1_matrix_by_hand_over_q():
    # Z/2 = {e, g}: the normalized cochains are f(g) in degree 1 and f(g, g)
    # in degree 2, where (d f)(g, g) = f(g) - f(e) + f(g) with f(e) = 0; the
    # degenerate quotient Q^1 is spanned by [f(e)], and d sends it to the
    # first basis vector of Q^2, followed by the two others of Q^2
    c = identity_complex((2,), QQ, n_max=2)
    expected = Matrix.from_ints(QQ, [[2, 0], [0, 1], [0, 0], [0, 0]])
    assert c.deltas[1] == expected
    assert rank(c.deltas[1]) == 2


def test_delta1_rank_over_f2_is_one():
    # the full d^1 of Z/2 in the basis of tuples has rows (e,e), (e,g), (g,e),
    # (g,g) equal to (1,0), (1,0), (1,0), (-1,2), of rank one over F_2, as is
    # the built one, whose normalized entry 2 vanishes; both leave H^1 = F_2
    f2 = PrimeField(2)
    full = Matrix.from_int_rows(f2, full_delta_rows(FiniteAbelianGroup((2,)), 1), 2)
    assert full.rows == Matrix.from_ints(f2, [[1, 0], [1, 0], [1, 0], [-1, 2]]).rows
    assert rank(full) == 1
    c = identity_complex((2,), f2, n_max=2)
    assert c.deltas[1] == Matrix.from_ints(f2, [[0, 0], [0, 1], [0, 0], [0, 0]])
    assert rank(c.deltas[1]) == 1
    assert dy_cohomology_dims(c) == [1, 1]


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
    # the sum for Z/2 first passes the guard in degree 13, at n_max 14, so a
    # huge n_max is refused after 14 degrees are counted
    with pytest.raises(SizeGuardExceeded) as info:
        identity_complex((2,), QQ, n_max=10 ** 9)
    assert (info.value.size, info.value.guard) == (458_752, SIZE_GUARD)
    # one past the largest n_max admitted, run in test_dims_match_p_rank_closed_form
    for orders, n_max in [((2,), 14), ((3,), 9), ((2, 2), 8), ((2, 2, 2), 6)]:
        with pytest.raises(SizeGuardExceeded):
            identity_complex(orders, QQ, n_max=n_max)
    with pytest.raises(UsageError):
        identity_complex((2,), QQ, n_max=0)


# size = sum over n < n_max of |G|^(n+1) rows times n + 2 nonzero entries
@pytest.mark.parametrize("orders,n_max,size", [
    ((16,), 4, 344_864),       # order 16 at n_max 4 is refused
    ((2, 2, 2, 2), 4, 344_864),
    ((41,), 3, 280_809),
    ((133_666,), 1, 267_332),  # two entries per row of d^0, both cancelling
], ids=["Z16-nmax4", "Z2^4-nmax4", "Z41-nmax3", "Z133666-nmax1"])
def test_size_guard_counts_integer_nonzeros(orders, n_max, size):
    with pytest.raises(SizeGuardExceeded) as info:
        identity_complex(orders, QQ, n_max=n_max)
    assert (info.value.size, info.value.guard) == (size, SIZE_GUARD)


@pytest.mark.slow
def test_size_guard_boundary_finishes():
    # Z/15 at n_max 4 is the boundary case: size 267,330, exactly the guard
    assert SIZE_GUARD == 267_330
    assert dy_cohomology_dims(identity_complex((15,), PrimeField(5), n_max=4)) == [1, 1, 1, 1]


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
                         + [((5,), QQ, 4)]
                         # beyond order 7 at n_max 4, one group and field each
                         + [((8,), PrimeField(2), 4), ((2, 2, 2), QQ, 4),
                            ((3, 3), PrimeField(3), 4), ((9,), CyclotomicField(3), 4)]
                         # the largest n_max the guard admits for the group
                         + [((2,), PrimeField(2), 13), ((2,), QQ, 13), ((3,), PrimeField(3), 8),
                            ((2, 2), PrimeField(2), 7), ((2, 2, 2), PrimeField(2), 5)])
def test_dims_match_p_rank_closed_form(orders, field, n_max):
    complex_ = identity_complex(orders, field, n_max=n_max)
    assert dy_cohomology_dims(complex_) == closed_form_dims(orders, field.char, n_max)
    # only nonzero entries are stored, such as no 2 over F_2, each in a column
    for delta in complex_.deltas:
        for row in delta.rows:
            assert all(c != field.zero() and col in range(delta.ncols)
                       for col, c in row.items())


@pytest.mark.slow
@pytest.mark.parametrize("orders", SMALL_GROUPS + [(9,), (3, 3)])
@pytest.mark.parametrize("code", ["q", "fp2", "fp3", "cyclo3"])
def test_dims_match_closed_form_up_to_order_nine(orders, code):
    field = field_from_code(code)
    dims = dy_cohomology_dims(identity_complex(orders, field, n_max=4))
    assert dims == closed_form_dims(orders, field.char, 4)


@pytest.mark.parametrize("orders,field,n_max",
                         [(orders, field, 3) for orders in SMALL_GROUPS
                          for field in (QQ, PrimeField(2), PrimeField(3))]
                         + [((3,), CyclotomicField(3), 4)])
def test_normalized_dims_match_the_full_complex(orders, field, n_max):
    group = FiniteAbelianGroup(orders)
    order, m = group.order, group.order - 1
    complex_ = identity_complex(orders, field, n_max=n_max)
    full = tuple(Matrix.from_int_rows(field, full_delta_rows(group, n), order ** n)
                 for n in range(n_max))
    # the full differentials compose to zero over Z, which DYComplex checks
    DYComplex(n_max=n_max, cochain_dims=complex_.cochain_dims, deltas=full)
    # and give the same cohomology dimensions
    ranks = [rank(delta) for delta in full]
    assert dy_cohomology_dims(complex_) == [
        order ** n - ranks[n] - (ranks[n - 1] if n else 0) for n in range(n_max)]
    # and so do they as matrices of field entries, which rank sends to rref
    by_rref = DYComplex(n_max=n_max, cochain_dims=complex_.cochain_dims,
                        deltas=tuple(Matrix.from_sparse(field, d.rows, d.ncols) for d in full))
    assert dy_cohomology_dims(by_rref) == dy_cohomology_dims(complex_)
    # each normalized d^n is the full one on the tuples of non-identity
    # elements: digit d of base |G| - 1 is element index d + 1 of base |G|
    def full_index(tuple_):
        return sum((d + 1) * order ** k for k, d in enumerate(reversed(tuple_)))

    for n, delta in enumerate(complex_.deltas):
        # the same map in another basis: same shape, same rank
        assert (delta.nrows, delta.ncols) == (full[n].nrows, full[n].ncols)
        assert rank(delta) == ranks[n]
        columns = {full_index(t): j for j, t in
                   enumerate(itertools.product(range(m), repeat=n))}
        restricted = [{columns[col]: v for col, v in full[n].int_rows[full_index(t)].items()
                       if col in columns}
                      for t in itertools.product(range(m), repeat=n + 1)]
        assert delta.int_rows[:m ** (n + 1)] == restricted
        # then, on Q, a partial identity: single 1s in distinct columns past N's
        rest = delta.int_rows[m ** (n + 1):]
        ones = [col for row in rest for col, v in row.items() if v == 1]
        assert sum(map(len, rest)) == len(ones) == len(set(ones))
        assert all(col >= m ** n for col in ones)


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2)])
@pytest.mark.parametrize("code", ["q", "fp2", "fp3", "cyclo3"])
def test_dims_never_build_field_entries(orders, code):
    # the differentials are ranked on their integer rows alone
    complex_ = identity_complex(orders, field_from_code(code), n_max=4)
    dy_cohomology_dims(complex_)
    assert all("rows" not in delta.__dict__ for delta in complex_.deltas)


def test_hand_built_invalid_complex_is_rejected():
    from modcat.dy import ComplexNotValid, DYComplex
    good = identity_complex((2,), QQ, n_max=2)
    with pytest.raises(ComplexNotValid):
        DYComplex(n_max=2, cochain_dims=good.cochain_dims,
                  deltas=(Matrix.from_ints(QQ, [[1], [0]]),
                          Matrix.from_ints(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]])))


def test_integer_rows_are_composed_over_z():
    # d d = 2 vanishes over F_2 but not over Z, where integer rows are composed
    from modcat.dy import ComplexNotValid, DYComplex
    f2 = PrimeField(2)
    with pytest.raises(ComplexNotValid):
        DYComplex(n_max=2, cochain_dims=(1, 1, 1),
                  deltas=(Matrix.from_int_rows(f2, [{0: 1}], 1),
                          Matrix.from_int_rows(f2, [{0: 2}], 1)))


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


def test_differentials_of_the_wrong_shape_are_rejected():
    from modcat.dy import ComplexShapeMismatch
    # d^0 must be 5 x 3; read as it stands, a 1 x 1 one gives H = [3, 4]
    with pytest.raises(ComplexShapeMismatch, match="degree 0: d\\^0 is 1x1, not 5x3") as err:
        DYComplex(n_max=2, cochain_dims=(3, 5, 7),
                  deltas=(Matrix.from_ints(QQ, [[0]]), Matrix.from_ints(QQ, [[1]])))
    assert err.value.degree == 0
    # d^1 reads a column past d^0's rows, so d d cannot even be composed
    with pytest.raises(ComplexShapeMismatch, match="degree 1: d\\^1 is 2x2, not 2x1") as err:
        DYComplex(n_max=2, cochain_dims=(1, 1, 2),
                  deltas=(Matrix.from_int_rows(QQ, [{0: 1}], 1),
                          Matrix.from_int_rows(QQ, [{1: 1}, {}], 2)))
    assert err.value.degree == 1


# the degree named is the first one that is missing or extra
@pytest.mark.parametrize("n_max,dims,count,degree", [(2, (1, 1, 1), 1, 1), (1, (1, 1), 2, 1),
                                                     (2, (1, 1), 2, 2), (1, (1, 1, 1), 1, 2)])
def test_complex_needs_one_differential_and_dimension_per_degree(n_max, dims, count, degree):
    from modcat.dy import ComplexShapeMismatch
    deltas = tuple(Matrix.from_int_rows(QQ, [{}], 1) for _ in range(count))
    with pytest.raises(ComplexShapeMismatch) as err:
        DYComplex(n_max=n_max, cochain_dims=dims, deltas=deltas)
    assert isinstance(err.value, ValidationError) and err.value.degree == degree
