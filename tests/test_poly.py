"""Factorization: Cantor-Zassenhaus over F_p, Zassenhaus over Q and Trager's
norms over Q(zeta_n), all inside modcat.

sympy is the oracle here; the tests import it and modcat never does.
Random products of random factors, with multiplicities and a non-monic
constant, must factor exactly as sympy factors them.  The fixed cases cover the inputs
each algorithm gets wrong first: a Swinnerton-Dyer polynomial and a product
of two (recombination of several modular factors), Phi_12 over subfields of
Q(zeta_12) (the norm of a rational polynomial is never squarefree unshifted),
the Trager norms of x^p - 1 over Q(zeta_p) for p = 7 and 11 (many modular
factors of one degree), products of many irreducibles of one degree over F_p
(equal-degree splitting, and the trace map for p = 2) and multiplicities
divisible by p (the p-th root branch).
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.polyclasses import ANP

from modcat.fields import QQ, CyclotomicField, CycElem, PrimeField, cyclotomic_polynomial
from modcat.poly import NORM_TEST_PRIME, Poly, _split_q, _test_prime, factor_list

X = sympy.symbols("x")


def _linear(field, root):
    """x - root."""
    return Poly(field, [field.zero() - root, field.one()])


def _product(field, factors):
    acc = Poly(field, [field.one()])
    for f, mult in factors:
        for _ in range(mult):
            acc = acc * f
    return acc


def _canonical(field, factors):
    return sorted(factors, key=lambda fm: (fm[0].degree, [field.sort_key(c) for c in fm[0].coeffs]))


@lru_cache(maxsize=None)
def _number_field(n):
    K = sympy.QQ.algebraic_field(sympy.CRootOf(sympy.cyclotomic_poly(n, X), 0))
    return K, K.mod.to_list()


def sympy_factor_list(p):
    """factor_list of p computed by sympy: GF(p), QQ, or QQ(alpha) with alpha
    a root of Phi_n, converted back exactly."""
    field = p.field
    if isinstance(field, PrimeField):
        sp = sympy.Poly([c.v for c in reversed(p.coeffs)], X, modulus=field.p)
        convert = field.from_int
    elif field == QQ:
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                        X, domain=sympy.QQ)
        convert = lambda c: Fraction(int(c.p), int(c.q))  # noqa: E731
    else:
        K, mod = _number_field(field.n)
        sp = sympy.Poly([ANP([sympy.QQ(a, el.den) for a in reversed(el.num)], mod, sympy.QQ)
                         for el in reversed(p.coeffs)], X, domain=K)

        def convert(c):
            rep = c.to_list()
            den = lcm(*(q.denominator for q in rep))
            return CycElem(field.n, [q.numerator * (den // q.denominator) for q in reversed(rep)], den)
    factors = []
    for f, mult in sp.factor_list()[1]:
        coeffs = f.rep.to_list() if isinstance(field, CyclotomicField) else f.all_coeffs()
        factors.append((Poly(field, [convert(c) for c in reversed(coeffs)]).monic(), mult))
    return _canonical(field, factors)


def elements(field):
    if isinstance(field, PrimeField):
        return st.integers(0, field.p - 1).map(field.from_int)
    small = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    if field == QQ:
        return small
    return st.lists(small, min_size=field.degree, max_size=field.degree).map(field.from_fractions)


@st.composite
def products(draw, field, max_factors, max_degree, max_mult):
    """A nonzero constant times random factors, each to a random power."""
    nonzero = elements(field).filter(bool)
    acc = Poly(field, [draw(nonzero)])
    for _ in range(draw(st.integers(1, max_factors))):
        coeffs = [draw(elements(field)) for _ in range(draw(st.integers(1, max_degree)))]
        f = Poly(field, coeffs + [draw(nonzero)])
        for _ in range(draw(st.integers(1, max_mult))):
            acc = acc * f
    return acc


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65537, 2 ** 61 - 1])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_factor_list_matches_sympy_over_fp(p, data):
    # multiplicities up to 3 reach the p-th root branch for p = 2 and 3
    poly = data.draw(products(PrimeField(p), 3, 3, 3), label="poly")
    assert factor_list(poly) == sympy_factor_list(poly)


@settings(max_examples=25, deadline=None)
@given(poly=products(QQ, 4, 3, 2))
def test_factor_list_matches_sympy_over_q(poly):
    assert factor_list(poly) == sympy_factor_list(poly)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 12])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_factor_list_matches_sympy_over_cyclotomic_fields(n, data):
    poly = data.draw(products(CyclotomicField(n), 2, 2, 2), label="poly")
    assert factor_list(poly) == sympy_factor_list(poly)


def test_swinnerton_dyer_polynomials_split_mod_every_prime_but_not_over_q():
    # the minimal polynomials of sqrt 2 + sqrt 3 and of sqrt 2 + sqrt 6
    f = Poly.from_ints(QQ, [1, 0, -10, 0, 1])
    g = Poly.from_ints(QQ, [16, 0, -16, 0, 1])
    for p in [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]:
        assert len(factor_list(Poly.from_ints(PrimeField(p), [1, 0, -10, 0, 1]))) > 1
    assert factor_list(f) == [(f, 1)]
    # each factor is a product of several modular factors
    assert factor_list(f * g * Poly.from_ints(QQ, [3])) == _canonical(QQ, [(f, 1), (g, 1)])


def test_phi_12_splits_into_two_quadratics_over_q_zeta_3_and_q_i():
    for n in (3, 4):
        field = CyclotomicField(n)
        z, zero, one = field.zeta(), field.zero(), field.one()
        if n == 3:
            # (x^2 - zeta_6)(x^2 - zeta_6^-1), zeta_6 = 1 + zeta_3
            quadratics = [Poly(field, [zero - one - z, zero, one]), Poly(field, [z, zero, one])]
        else:
            # (x^2 - i x - 1)(x^2 + i x - 1)
            quadratics = [Poly(field, [zero - one, zero - z, one]), Poly(field, [zero - one, z, one])]
        phi12 = Poly(field, [field.from_fractions([c]) for c in cyclotomic_polynomial(12)])
        factors = [(q, 1) for q in quadratics]
        assert _product(field, factors) == phi12
        assert factor_list(phi12) == _canonical(field, factors)


@pytest.mark.parametrize("p,factors", [
    (2, [([0, 1], 4), ([1, 1], 3), ([1, 1, 1], 2)]),
    # x^3 - x + 1 is irreducible over F_3
    (3, [([1, 1], 6), ([1, -1, 0, 1], 3), ([0, 1], 1)]),
])
def test_multiplicities_divisible_by_p(p, factors):
    field = PrimeField(p)
    factors = [(Poly.from_ints(field, f), mult) for f, mult in factors]
    assert factor_list(_product(field, factors)) == _canonical(field, factors)


def test_norm_test_falls_back_to_q_when_its_prime_divides_the_discriminant():
    # modulo NORM_TEST_PRIME this is x^2, so no shift makes the norm
    # squarefree there and only the test over Q ends the shift search
    field = CyclotomicField(3)
    poly = Poly.from_ints(field, [0, -NORM_TEST_PRIME, 1])
    assert factor_list(poly) == sympy_factor_list(poly)
    assert factor_list(poly) == _canonical(field, [(Poly.from_ints(field, [0, 1]), 1),
                                                   (Poly.from_ints(field, [-NORM_TEST_PRIME, 1]), 1)])


@pytest.mark.parametrize("n", [3, 4, 5, 7, 8])
def test_x_to_the_n_minus_one_splits_into_the_n_roots_of_unity(n):
    field = CyclotomicField(n)
    poly = Poly(field, [field.from_int(-1)] + [field.zero()] * (n - 1) + [field.one()])
    roots = sorted((field.zeta(k) for k in range(n)),
                   key=lambda z: field.sort_key(field.zero() - z))
    expected = [(_linear(field, z), 1) for z in roots]
    assert factor_list(poly) == expected
    assert factor_list(poly) == expected  # repeatable: the random splitting is seeded


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


def _trager_norm(p, s):
    """The norm to Q of (x - s zeta_p)^p - 1, Res_y(Phi_p(y), (x - s y)^p - 1):
    for s = 2 the first squarefree norm met when factoring x^p - 1 over
    Q(zeta_p), computed by sympy."""
    y = sympy.symbols("y")
    norm = sympy.Poly(sympy.resultant(sympy.cyclotomic_poly(p, y), (X - s * y) ** p - 1, y), X)
    return Poly.from_ints(QQ, [int(c) for c in reversed(norm.all_coeffs())])


def test_p_7_trager_norm_splits_into_seven_sextics():
    norm = _trager_norm(7, 2)
    assert norm.degree == 42
    result = factor_list(norm)
    assert [(f.degree, mult) for f, mult in result] == [(6, 1)] * 7
    assert result == sympy_factor_list(norm)


def test_p_11_trager_norm_splits_into_eleven_factors_of_degree_10():
    # _split_q takes the norm as _split_cyclo hands it over, known squarefree;
    # factor_list proves it squarefree modulo NORM_TEST_PRIME first, where
    # Musser's decomposition over Q would take minutes at degree 110
    norm = _trager_norm(11, 2)
    assert norm.degree == 110
    result = _split_q(norm)
    assert [f.degree for f in result] == [10] * 11
    assert _product(QQ, [(f, 1) for f in result]) == norm
    assert factor_list(norm) == _canonical(QQ, [(f, 1) for f in result])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 11, 12, 21])
def test_test_prime_maps_zeta_to_a_root_of_phi_n(n):
    q, r = _test_prime(n)
    assert q <= NORM_TEST_PRIME and (q - 1) % n == 0 and sympy.isprime(q)
    assert not any(sympy.isprime(t) for t in range(q + n, NORM_TEST_PRIME + 1, n))
    # Phi_n(r) = 0 modulo a prime q not dividing n: r has order exactly n
    phi = cyclotomic_polynomial(n)
    assert sum(int(c) * pow(r, i, q) for i, c in enumerate(phi)) % q == 0


def _irreducibles(p, degree, count):
    """The first count monic irreducibles of the degree over F_p in lex order,
    as sympy finds them."""
    found = []
    for tail in itertools.product(range(p), repeat=degree):
        coeffs = list(tail) + [1]
        if sympy.Poly(coeffs[::-1], X, modulus=p).is_irreducible:
            found.append((Poly.from_ints(PrimeField(p), coeffs), 1))
            if len(found) == count:
                return found
    raise AssertionError(f"fewer than {count} irreducibles of degree {degree} over F_{p}")


@pytest.mark.parametrize("p,degree,count", [(2, 5, 6), (2, 6, 9), (3, 3, 8), (7, 2, 10)])
def test_products_of_irreducibles_of_one_degree_match_sympy(p, degree, count):
    # one distinct-degree part, so equal-degree splitting (the trace map for
    # p = 2) has to separate all count factors, which takes count - 1 splits
    field = PrimeField(p)
    factors = _irreducibles(p, degree, count)
    poly = _product(field, factors)
    assert factor_list(poly) == sympy_factor_list(poly)
    assert factor_list(poly) == _canonical(field, factors)
