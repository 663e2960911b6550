"""Exact rank, kernel and echelon conventions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modcat.fields import CyclotomicField, PrimeField, QQ
from modcat.linalg import Matrix, kernel_basis, rank, rref, solve


def test_rank_equal_rows_rational():
    assert rank(Matrix.from_ints(QQ, [[1, 1], [1, 1]])) == 1


def test_rank_two_mod_two_is_zero():
    assert rank(Matrix.from_ints(PrimeField(2), [[2]])) == 0


def _dy_delta1_matrix(field):
    # (d f)(g0, g1) = f(g1) - f(g0 g1) + f(g0) on Z/2 = {e, g}, written by
    # hand on the basis (f(e), f(g)); rows ordered (e,e), (e,g), (g,e), (g,g)
    return Matrix.from_ints(field, [[1, 0], [1, 0], [1, 0], [-1, 2]])


def test_dy_delta1_rank_over_f2():
    # over F_2 the last row becomes (1, 0) as well
    assert rank(_dy_delta1_matrix(PrimeField(2))) == 1


def test_dy_delta1_rank_over_q():
    # over Q the rows (1,0) and (-1,2) are independent
    assert rank(_dy_delta1_matrix(QQ)) == 2


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_zero_matrix_full():
    basis = kernel_basis(Matrix.zero(QQ, 2, 3))
    assert len(basis) == 3
    assert basis[0] == [Fraction(1), Fraction(0), Fraction(0)]


def test_kernel_one_relation_canonical_form():
    # documented convention: the free column carries 1, pivot columns carry
    # the negated echelon entries, so [[1, 1]] gives (-1, 1)
    basis = kernel_basis(Matrix.from_ints(QQ, [[1, 1]]))
    assert basis == [[Fraction(-1), Fraction(1)]]


def test_rref_pivots_normalized():
    reduced, pivots = rref(Matrix.from_ints(QQ, [[2, 4], [1, 3]]))
    assert pivots == [0, 1]
    assert reduced.rows[0][0] == Fraction(1)
    assert reduced.rows[1][1] == Fraction(1)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), CyclotomicField(4)])
def test_rank_nullity_random(field):
    rng = random.Random(hash(getattr(field, "tag", "q")) % 10_000)
    for _ in range(60):
        nrows = rng.randint(0, 5)
        ncols = rng.randint(1, 5)
        m = Matrix(field, [[field.from_int(rng.randint(-4, 4)) for _ in range(ncols)]
                           for _ in range(nrows)], ncols=ncols)
        assert rank(m) + len(kernel_basis(m)) == ncols
        for vec in kernel_basis(m):
            image = [sum((a * x for a, x in zip(row, vec)), field.zero())
                     for row in m.dense_rows()]
            assert all(entry == field.zero() for entry in image)


def test_solve_consistent_and_inconsistent():
    m = Matrix.from_ints(QQ, [[1, 1], [0, 1]])
    x = solve(m, [QQ.from_int(3), QQ.from_int(1)])
    assert x == [Fraction(2), Fraction(1)]
    m2 = Matrix.from_ints(QQ, [[1, 1], [1, 1]])
    assert solve(m2, [QQ.from_int(0), QQ.from_int(1)]) is None


def test_solve_rejects_a_target_of_the_wrong_length():
    # zipping rows with the target would drop the missing or extra equations
    m = Matrix.from_ints(QQ, [[1, 0], [0, 1]])
    for target in ([3], [3, 1, 4]):
        with pytest.raises(ValueError):
            solve(m, [QQ.from_int(t) for t in target])


def test_matrix_product_shapes_and_values():
    a = Matrix.from_ints(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_ints(QQ, [[0, 1], [1, 0]])
    assert (a * b).rows == Matrix.from_ints(QQ, [[2, 1], [4, 3]]).rows
    with pytest.raises(ValueError):
        _ = a * Matrix.from_ints(QQ, [[1, 2, 3]])


def test_transpose_of_empty_matrices_keeps_the_swapped_shape():
    t = Matrix.zero(QQ, 0, 3).transpose()
    assert (t.nrows, t.ncols) == (3, 0)
    t = Matrix.zero(QQ, 3, 0).transpose()
    assert (t.nrows, t.ncols) == (0, 3)
    assert Matrix.zero(QQ, 0, 3) != Matrix.zero(QQ, 0, 5)
    assert Matrix.zero(QQ, 2, 3) != Matrix.zero(QQ, 2, 4)


def test_product_through_an_empty_inner_dimension_is_zero():
    product = Matrix.zero(QQ, 2, 0) * Matrix.zero(QQ, 0, 3)
    assert (product.nrows, product.ncols) == (2, 3)
    assert product == Matrix.zero(QQ, 2, 3)
    product = Matrix.zero(QQ, 2, 3) * Matrix.zero(QQ, 3, 0)
    assert (product.nrows, product.ncols) == (2, 0)


def assert_sparse_storage(m):
    """Every stored entry is nonzero and sits in a column of the matrix."""
    assert len(m.rows) == m.nrows
    for row in m.rows:
        assert all(c != m.field.zero() for c in row.values())
        assert all(j in range(m.ncols) for j in row)


# -- dense Gauss-Jordan oracle ---------------------------------------------------

def dense_rref(m):
    """Leftmost-pivot Gauss-Jordan on whole dense rows, zeros included."""
    field = m.field
    zero = field.zero()
    rows = [list(r) for r in m.dense_rows()]
    pivots = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = next((r for r in range(pr, len(rows)) if rows[r][pc] != zero), None)
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = field.one() / rows[pr][pc]
        rows[pr] = [inv * a for a in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != zero:
                factor = rows[r][pc]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return Matrix(field, rows, ncols=m.ncols), pivots


ORACLE_FIELDS = [QQ, PrimeField(2), PrimeField(3), CyclotomicField(4)]
SMALL_INTS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])


@st.composite
def entries(draw, field):
    """Mostly zero; over Q a small fraction, over Q(zeta_4) a + b i."""
    if field == QQ:
        return Fraction(draw(SMALL_INTS), draw(st.sampled_from([1, 1, 2, 3])))
    if isinstance(field, CyclotomicField):
        return field.from_fractions([draw(SMALL_INTS), draw(SMALL_INTS)])
    return field.from_int(draw(SMALL_INTS))


@st.composite
def matrices(draw):
    """Random, redundant (zero, duplicate and scaled rows, zero columns) or
    tall and very sparse, like the DY differentials; 0 x n included."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    zero = field.zero()
    kind = draw(st.sampled_from(["random", "redundant", "sparse-tall"]))
    if kind == "sparse-tall":
        ncols = draw(st.integers(1, 8))
        rows = []
        for _ in range(draw(st.integers(ncols, 5 * ncols))):
            row = [zero] * ncols
            for col in draw(st.lists(st.integers(0, ncols - 1), min_size=0, max_size=3)):
                row[col] = row[col] + field.from_int(draw(st.sampled_from([1, -1, 2])))
            rows.append(row)
        return Matrix(field, rows, ncols=ncols)
    ncols = draw(st.integers(0, 6))
    row = st.lists(entries(field), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=0, max_size=6))
    if kind == "redundant" and rows:
        for _ in range(draw(st.integers(1, 6))):
            source = rows[draw(st.integers(0, len(rows) - 1))]
            scale = draw(st.sampled_from([zero, field.one(), field.from_int(-1),
                                          field.from_int(2)]))
            rows.append([scale * a for a in source])
        zero_cols = draw(st.sets(st.integers(0, ncols - 1))) if ncols else set()
        rows = [[zero if j in zero_cols else a for j, a in enumerate(r)] for r in rows]
        rows = draw(st.permutations(rows))
    return Matrix(field, rows, ncols=ncols)


@settings(max_examples=400, deadline=None)
@given(m=matrices())
def test_rref_matches_dense_oracle(m):
    before = [dict(row) for row in m.rows]
    reduced, pivots = rref(m)
    assert m.rows == before
    expected, expected_pivots = dense_rref(m)
    assert pivots == expected_pivots
    assert (reduced.nrows, reduced.ncols) == (expected.nrows, expected.ncols) == (m.nrows, m.ncols)
    assert reduced.rows == expected.rows
    for built in (m, reduced, m.transpose(), m * m.transpose(), m.transpose() * m,
                  Matrix.identity(m.field, m.ncols), Matrix.zero(m.field, m.nrows, m.ncols)):
        assert_sparse_storage(built)
    assert Matrix(m.field, m.dense_rows(), ncols=m.ncols) == m
