"""Factorization over Q(zeta_n): exact conversion to and from sympy's number field."""

from fractions import Fraction

import pytest

from modcat.fields import CyclotomicField
from modcat.poly import Poly, factor_list


def _linear(field, root):
    """x - root."""
    return Poly(field, [field.zero() - root, field.one()])


def _product(field, factors):
    acc = Poly(field, [field.one()])
    for f, mult in factors:
        for _ in range(mult):
            acc = acc * f
    return acc


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_x_to_the_n_minus_one_splits_into_the_n_roots_of_unity(n):
    field = CyclotomicField(n)
    poly = Poly(field, [field.from_int(-1)] + [field.zero()] * (n - 1) + [field.one()])
    roots = sorted((field.zeta(k) for k in range(n)),
                   key=lambda z: field.sort_key(field.zero() - z))
    expected = [(_linear(field, z), 1) for z in roots]
    assert factor_list(poly) == expected
    assert factor_list(poly) == expected  # the number field is reused


def test_factors_with_fractions_and_multiplicities_over_q_zeta_3():
    field = CyclotomicField(3)
    z = field.zeta()
    sqrt_minus_3 = field.one() + z + z  # (1 + 2 zeta_3)^2 = -3
    half, third_z = field.from_fractions([Fraction(1, 2)]), field.from_fractions([0, Fraction(1, 3)])
    # irreducible: i is not in Q(zeta_3)
    x_squared_plus_1 = Poly(field, [field.one(), field.zero(), field.one()])
    factors = [(_linear(field, sqrt_minus_3), 2), (_linear(field, field.zero() - sqrt_minus_3), 2),
               (x_squared_plus_1, 1), (_linear(field, half), 3), (_linear(field, third_z), 1)]
    # a non-monic multiple: the constant content is dropped
    poly = _product(field, factors) * Poly(field, [field.from_fractions([Fraction(-5, 7), 2])])
    expected = sorted(factors, key=lambda fm: (fm[0].degree, [field.sort_key(c) for c in fm[0].coeffs]))
    result = factor_list(poly)
    assert result == expected
    assert [f.degree for f, _ in result] == [1, 1, 1, 1, 2]
