"""Structure-constant algebras and commutative splitting."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modcat.algebras import (NoUnit, NotAssociative, NotCommutative,
                             StructureConstantAlgebra, split_commutative_algebra)
from modcat.fields import CyclotomicField, PrimeField, QQ
from modcat.linalg import Matrix, kernel_basis


def cyclic_group_algebra(field, n):
    mult = [[[1 if k == (i + j) % n else 0 for k in range(n)] for j in range(n)]
            for i in range(n)]
    return StructureConstantAlgebra.from_int_constants(field, mult, [1] + [0] * (n - 1))


def test_validation_catches_broken_associativity():
    # e1 * e1 = e1, e1 * e0 = e0 but e0 * anything = 0: no unit, and the
    # constants below are also non-associative
    mult = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
    with pytest.raises((NotAssociative, NoUnit)):
        StructureConstantAlgebra.from_int_constants(QQ, mult, [1, 0])


def test_validation_catches_bad_unit():
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]  # e1*e1 = e1: associative
    with pytest.raises(NoUnit):
        StructureConstantAlgebra.from_int_constants(QQ, mult, [1, 1])


def test_not_commutative_reported():
    # 2x2 upper triangular matrices: associative, unital, not commutative
    # basis: E11, E12, E22
    mult = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
    ]
    algebra = StructureConstantAlgebra.from_int_constants(QQ, mult, [1, 0, 1])
    with pytest.raises(NotCommutative):
        split_commutative_algebra(algebra)


def test_split_z3_over_cyclotomic_matches_fourier_idempotents():
    field = CyclotomicField(3)
    algebra = cyclic_group_algebra(field, 3)
    blocks = split_commutative_algebra(algebra)
    assert [d for d, _ in blocks] == [1, 1, 1]
    # independent oracle: the Fourier idempotents (1/3) sum_k zeta^{-jk} g^k
    third = Fraction(1, 3)
    expected = set()
    for j in range(3):
        vec = []
        for k in range(3):
            z = field.zeta((-j * k) % 3)
            vec.append(field.from_fractions([third * c for c in z.coeffs]))
        expected.add(tuple(vec))
    assert {tuple(e) for _, e in blocks} == expected


def test_split_z3_over_q_gives_two_blocks():
    blocks = split_commutative_algebra(cyclic_group_algebra(QQ, 3))
    assert sorted(d for d, _ in blocks) == [1, 2]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_split_modular_group_algebra_is_local(p):
    blocks = split_commutative_algebra(cyclic_group_algebra(PrimeField(p), p))
    assert [d for d, _ in blocks] == [p]
    # the only idempotent is the unit
    assert blocks[0][1] == list(cyclic_group_algebra(PrimeField(p), p).unit)


@pytest.mark.parametrize("field,n,expected_dims", [
    (QQ, 4, [1, 1, 2]),            # x^4 - 1 = (x-1)(x+1)(x^2+1)
    (CyclotomicField(4), 4, [1, 1, 1, 1]),
    (QQ, 6, [1, 1, 2, 2]),         # factors of x^6 - 1 over Q
    (PrimeField(3), 4, [1, 1, 2]),  # x^4 - 1 = (x-1)(x+1)(x^2+1) over F_3
    (PrimeField(2), 6, [2, 4]),     # F_2[Z/2] (x) (F_2 x F_4): two local blocks
    (PrimeField(5), 4, [1, 1, 1, 1]),
])
def test_split_cyclic_group_algebras(field, n, expected_dims):
    blocks = split_commutative_algebra(cyclic_group_algebra(field, n))
    assert sorted(d for d, _ in blocks) == sorted(expected_dims)


def idempotent_properties(algebra, blocks):
    zero = [algebra.field.zero()] * algebra.dim
    total = list(zero)
    for _, e in blocks:
        square = algebra.mul_vec(e, e)
        assert square == list(e)
        total = [a + b for a, b in zip(total, e)]
    assert total == list(algebra.unit)
    for i, (_, e1) in enumerate(blocks):
        for j, (_, e2) in enumerate(blocks):
            if i != j:
                assert algebra.mul_vec(e1, e2) == zero
    assert sum(d for d, _ in blocks) == algebra.dim


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3), PrimeField(2), PrimeField(3)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_idempotent_completeness_on_group_algebras(field, n):
    algebra = cyclic_group_algebra(field, n)
    idempotent_properties(algebra, split_commutative_algebra(algebra))


def test_split_nonsemisimple_truncated_polynomials():
    # Q[x]/(x^2): local, one block, despite the nilpotent
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    algebra = StructureConstantAlgebra.from_int_constants(QQ, mult, [1, 0])
    blocks = split_commutative_algebra(algebra)
    assert [d for d, _ in blocks] == [2]


def test_split_product_of_truncated_polynomials():
    # Q[x]/(x^2) x Q[y]/(y^2): two local blocks, each with a nilpotent
    mult = [
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
    ]
    # basis: 1, x, f, fy where f is the idempotent of the second factor
    algebra = StructureConstantAlgebra.from_int_constants(QQ, mult, [1, 0, 0, 0])
    blocks = split_commutative_algebra(algebra)
    assert sorted(d for d, _ in blocks) == [2, 2]
    idempotent_properties(algebra, blocks)


def test_split_f4_style_extension_field_stays_simple():
    # F_2[t]/(t^2 + t + 1) = F_4: no splitting over F_2
    mult = [[[1, 0], [0, 1]], [[0, 1], [1, 1]]]
    algebra = StructureConstantAlgebra.from_int_constants(PrimeField(2), mult, [1, 0])
    blocks = split_commutative_algebra(algebra)
    assert [d for d, _ in blocks] == [2]


def test_split_f4_x_f4_over_f2():
    # F_2[Z/3 x Z/3] = (F_2 x F_4) (x) (F_2 x F_4), and F_4 (x) F_4 is two
    # copies of F_4, so the blocks are 1, 2, 2, 2, 2
    field = PrimeField(2)
    n = 9
    elements = [(a, b) for a in range(3) for b in range(3)]
    index = {g: i for i, g in enumerate(elements)}
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            k = index[((g[0] + h[0]) % 3, (g[1] + h[1]) % 3)]
            mult[i][j][k] = 1
    unit = [0] * n
    unit[index[(0, 0)]] = 1
    algebra = StructureConstantAlgebra.from_int_constants(field, mult, unit)
    blocks = split_commutative_algebra(algebra)
    assert sorted(d for d, _ in blocks) == [1, 2, 2, 2, 2]
    idempotent_properties(algebra, blocks)


# -- dense oracle: the full d x d x d scan, kept here in test code only -------

def dense_product(field, c, x, y):
    d = len(c)
    out = [field.zero()] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] = out[k] + x[i] * y[j] * c[i][j][k]
    return out


def dense_first_failure(field, mult, unit):
    """The first failing axiom in the order validate checks them: the lex-first
    triple with (e_i e_j) e_k != e_i (e_j e_k), else the first unit-law
    message, else None."""
    c = [[[field.from_int(x) for x in cell] for cell in row] for row in mult]
    u = [field.from_int(x) for x in unit]
    d = len(c)
    basis = [[field.one() if i == j else field.zero() for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if (dense_product(field, c, c[i][j], basis[k])
                        != dense_product(field, c, basis[i], c[j][k])):
                    return ("associativity", (i, j, k))
    for i in range(d):
        if dense_product(field, c, u, basis[i]) != basis[i]:
            return ("unit", f"1 * e{i} != e{i}")
        if dense_product(field, c, basis[i], u) != basis[i]:
            return ("unit", f"e{i} * 1 != e{i}")
    return None


def dense_center(field, mult):
    """Kernel of the dense commutator matrix: row (j, k), column i holds the
    e_k coordinate of e_j e_i - e_i e_j."""
    d = len(mult)
    rows = [[field.from_int(mult[j][i][k] - mult[i][j][k]) for i in range(d)]
            for j in range(d) for k in range(d)]
    return kernel_basis(Matrix(field, rows, ncols=d))


# associative unital algebras with integer constants: (mult, unit)
ASSOCIATIVE_BASES = [
    ([[[1]]], [1]),
    ([[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [1, 0]),                  # Z/2
    ([[[1 if k == (i + j) % 3 else 0 for k in range(3)] for j in range(3)]
      for i in range(3)], [1, 0, 0]),                                 # Z/3
    ([[[1 if k == i + j else 0 for k in range(3)] for j in range(3)]
      for i in range(3)], [1, 0, 0]),                                 # x^3 = 0
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 0]],                              # upper
      [[0, 0, 0], [0, 0, 0], [0, 1, 0]],                              # triangular
      [[0, 0, 0], [0, 0, 0], [0, 0, 1]]], [1, 0, 1]),                 # 2 x 2
    ([[[1 if (b == c and k == 2 * a + d) else 0 for k in range(4)]    # 2 x 2
       for c, d in ((0, 0), (0, 1), (1, 0), (1, 1))]                  # matrices,
      for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))], [1, 0, 0, 1]),   # E_ab E_cd
]

SMALL = st.sampled_from([0, 0, 0, 1, -1, 2])
FIELDS = st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)])


def in_unimodular_basis(draw, mult, unit, steps):
    """The constants and unit in the basis f = P e, with P a product of up to
    ``steps`` random elementary integer row operations (so P^-1 is integral)."""
    d = len(mult)
    p = [[int(a == b) for b in range(d)] for a in range(d)]
    q = [row[:] for row in p]  # q = p^-1, kept in step
    for _ in range(draw(st.integers(0, steps)) if d > 1 else 0):
        a, b = draw(st.permutations(range(d)))[:2]
        t = draw(st.integers(-2, 2))
        p[a] = [x + t * y for x, y in zip(p[a], p[b])]  # row a += t row b
        for row in q:
            row[b] -= t * row[a]                         # column b -= t column a
    # f_a f_b = sum p[a][i] p[b][j] c[i][j][k] e_k with e_k = sum q[k][c] f_c,
    # contracted one index at a time
    out = [[[sum(c_ij[k] * q[k][c] for k in range(d)) for c in range(d)]
            for c_ij in row] for row in mult]
    out = [[[sum(p[b][j] * out[i][j][c] for j in range(d)) for c in range(d)]
            for b in range(d)] for i in range(d)]
    out = [[[sum(p[a][i] * out[i][b][c] for i in range(d)) for c in range(d)]
            for b in range(d)] for a in range(d)]
    return out, [sum(unit[k] * q[k][c] for k in range(d)) for c in range(d)]


@st.composite
def associative_tables(draw):
    """A base algebra in a random unimodular integer basis f = P e."""
    mult, unit = draw(st.sampled_from(ASSOCIATIVE_BASES))
    return in_unimodular_basis(draw, mult, unit, 4)


@st.composite
def tables(draw):
    """Associative, perturbed-associative, or random integer tables."""
    kind = draw(st.sampled_from(["associative", "perturbed", "random"]))
    if kind == "random":
        d = draw(st.integers(1, 3))
        cell = st.lists(SMALL, min_size=d, max_size=d)
        mult = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=d, max_size=d))
        return mult, draw(cell)
    mult, unit = draw(associative_tables())
    if kind == "perturbed":
        d = len(mult)
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        mult[i][j][k] += draw(st.sampled_from([-1, 1, 2]))
    return mult, unit


@settings(max_examples=200, deadline=None)
@given(table=tables(), field=FIELDS)
def test_validate_matches_dense_oracle(table, field):
    mult, unit = table
    expected = dense_first_failure(field, mult, unit)
    try:
        StructureConstantAlgebra.from_int_constants(field, mult, unit)
    except NotAssociative as exc:
        assert expected == ("associativity", exc.indices)
    except NoUnit as exc:
        assert expected is not None and expected[0] == "unit"
        assert str(exc).endswith(": " + expected[1])
    else:
        assert expected is None


@settings(max_examples=100, deadline=None)
@given(table=associative_tables(), field=FIELDS)
def test_center_basis_matches_dense_commutator_kernel(table, field):
    mult, unit = table
    algebra = StructureConstantAlgebra.from_int_constants(field, mult, unit)
    assert algebra.center_basis() == dense_center(field, mult)


# -- closed forms for the blocks of K[Z/n], written out here --------------------

def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def multiplicative_order(p, d):
    k, x = 1, p % d
    while x != 1 % d:
        k, x = k + 1, x * p % d
    return k


def expected_cyclic_block_dims(field, n):
    """Block dimensions of K[Z/n] = K[x]/(x^n - 1).

    In characteristic 0, x^n - 1 is the product of Phi_d over d | n, and Phi_d
    stays irreducible over Q and splits over Q(zeta_m) into phi(d)/c factors
    of degree c = [Q(zeta_lcm(m, d)) : Q(zeta_m)].  Over F_p with n = p^a n'
    and p not dividing n', x^n - 1 is the product of Phi_d^(p^a) over d | n',
    and Phi_d splits into phi(d)/ord_d(p) factors of degree ord_d(p)."""
    if field == QQ:
        return sorted(euler_phi(d) for d in range(1, n + 1) if n % d == 0)
    if isinstance(field, CyclotomicField):
        m = field.n
        dims = []
        for d in range(1, n + 1):
            if n % d == 0:
                c = euler_phi(m * d // gcd(m, d)) // euler_phi(m)
                dims += [c] * (euler_phi(d) // c)
        return sorted(dims)
    p, local, rest = field.p, 1, n
    while rest % p == 0:
        local, rest = local * p, rest // p
    dims = []
    for d in range(1, rest + 1):
        if rest % d == 0:
            order = multiplicative_order(p, d)
            dims += [local * order] * (euler_phi(d) // order)
    return sorted(dims)


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3), CyclotomicField(4),
                                   PrimeField(2), PrimeField(3), PrimeField(5)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_split_cyclic_group_algebras_matches_closed_form(field, data):
    n = data.draw(st.integers(1, 12), label="n")
    mult = [[[1 if k == (i + j) % n else 0 for k in range(n)] for j in range(n)]
            for i in range(n)]
    mult, unit = in_unimodular_basis(data.draw, mult, [1] + [0] * (n - 1), n)
    algebra = StructureConstantAlgebra.from_int_constants(field, mult, unit)
    blocks = split_commutative_algebra(algebra)
    assert sorted(d for d, _ in blocks) == expected_cyclic_block_dims(field, n)
    idempotent_properties(algebra, blocks)
