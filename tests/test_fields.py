"""Field arithmetic: canonical representations and field axioms."""

import random
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from modcat.errors import SizeGuardExceeded
from modcat.fields import (CYCLOTOMIC_INVERSE_GUARD, PRIME_TEST_GUARD, CyclotomicField,
                           CycElem, PrimeField, QQ, _is_prime, cyclotomic_polynomial,
                           field_from_code)


def test_cyclotomic_polynomial_small_cases():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_3 = x^2 + x + 1, Phi_4 = x^2 + 1,
    # Phi_6 = x^2 - x + 1, Phi_12 = x^4 - x^2 + 1
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(12) == (Fraction(1), Fraction(0), Fraction(-1),
                                         Fraction(0), Fraction(1))
    # Phi_105 = 3 * 5 * 7 is the first with a coefficient outside {-1, 0, 1}
    phi_105 = {0: 1, 1: 1, 2: 1, 5: -1, 6: -1, 7: -2, 8: -1, 9: -1,
               12: 1, 13: 1, 14: 1, 15: 1, 16: 1, 17: 1,
               20: -1, 22: -1, 24: -1, 26: -1, 28: -1,
               31: 1, 32: 1, 33: 1, 34: 1, 35: 1, 36: 1,
               39: -1, 40: -1, 41: -2, 42: -1, 43: -1, 46: 1, 47: 1, 48: 1}
    assert cyclotomic_polynomial(105) == tuple(Fraction(phi_105.get(i, 0)) for i in range(49))


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in [*range(1, 301), 982, 998, 1000]:
        expected = sympy.cyclotomic_poly(n, polys=True).all_coeffs()[::-1]
        phi = cyclotomic_polynomial(n)
        assert phi == tuple(Fraction(int(c)) for c in expected), n
        assert all(type(c) is Fraction for c in phi)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5), CyclotomicField(3),
                                   CyclotomicField(12)])
def test_elements_are_false_exactly_at_zero(field):
    # sparse elimination tests entries by truth value
    values = [field.from_int(k) for k in range(-6, 7)]
    if isinstance(field, CyclotomicField):
        values += [field.zeta(k) - field.zeta(k) for k in range(field.n)]
        values += [field.zeta(k) for k in range(field.n)]
    for x in values:
        assert bool(x) == (x != field.zero())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15])
def test_zeta_power_and_minimal_polynomial(n):
    field = CyclotomicField(n)
    z = field.zeta()
    power = field.one()
    for _ in range(n):
        power = power * z
    assert power == field.one()  # zeta^n = 1
    phi = cyclotomic_polynomial(n)
    acc = field.zero()
    zpow = field.one()
    for c in phi:
        acc = acc + field.from_fractions([c]) * zpow
        zpow = zpow * z
    assert acc == field.zero()  # Phi_n(zeta) = 0


def test_prime_field_residues_are_canonical():
    f5 = PrimeField(5)
    assert f5.from_int(7) == f5.from_int(2)
    assert (f5.from_int(3) * f5.from_int(4)).v == 2
    assert (f5.from_int(1) / f5.from_int(3)).v == 2  # 3 * 2 = 6 = 1


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(TypeError):
        PrimeField(3).one() + PrimeField(5).one()
    with pytest.raises(TypeError):
        CyclotomicField(3).one() * CyclotomicField(4).one()


def test_cyclotomic_reduction_is_canonical():
    # in Q(zeta_3): zeta^2 = -1 - zeta
    field = CyclotomicField(3)
    z2 = field.zeta(2)
    assert z2.coeffs == (Fraction(-1), Fraction(-1))
    # and representations of equal elements coincide
    assert field.zeta(5) == field.zeta(2)


def test_field_from_code():
    assert field_from_code("q") is QQ
    assert field_from_code("fp7") == PrimeField(7)
    assert field_from_code("cyclo12") == CyclotomicField(12)
    with pytest.raises(ValueError):
        field_from_code("r64")


@given(st.fractions(), st.fractions(), st.fractions())
@settings(max_examples=300)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    if a != 0:
        assert (b / a) * a == b


@given(st.integers(), st.integers(), st.integers())
@settings(max_examples=300)
def test_prime_field_axioms(x, y, z):
    p = 7
    f = PrimeField(p)
    a, b, c = f.from_int(x), f.from_int(y), f.from_int(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a != f.zero():
        assert (b / a) * a == b


def _random_cyclotomic(field, rng):
    return field.from_fractions(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(field.degree)])


@pytest.mark.parametrize("n", [3, 4, 5, 8, 12])
def test_cyclotomic_field_axioms_seeded(n):
    field = CyclotomicField(n)
    rng = random.Random(20_000 + n)
    for _ in range(120):
        a = _random_cyclotomic(field, rng)
        b = _random_cyclotomic(field, rng)
        c = _random_cyclotomic(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if a != field.zero():
            assert (b / a) * a == b
            assert a * a.inverse() == field.one()


def test_canonical_sums_and_products_stay_reduced():
    field = CyclotomicField(4)
    a = field.from_fractions([Fraction(2, 4), Fraction(6, 3)])  # 1/2 + 2i
    assert a.coeffs == (Fraction(1, 2), Fraction(2))
    # multiplication reduces degree below phi(4) = 2
    b = a * a
    assert len(b.coeffs) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 14, 21])
def test_equal_values_have_one_representation(n):
    field = CyclotomicField(n)
    d = field.degree
    target = [Fraction(k - 2, 6) for k in range(d)]  # denominators 6, 3, 2 and 1
    phi = cyclotomic_polynomial(n)
    # target + (1 - zeta/2) * Phi_n: more than phi(n) coefficients, same value
    padded = target + [Fraction(0)] * 2
    for i, c in enumerate(phi):
        padded[i] += c
        padded[i + 1] -= c / 2
    other = field.from_fractions([Fraction(1, 7)] * d)
    ways = [
        field.from_fractions(target),
        field.from_fractions([Fraction(2 * c.numerator, 2 * c.denominator) for c in target]),
        field.from_fractions([Fraction(c.numerator * 35, c.denominator * 35) for c in target]),
        field.from_fractions(padded),
        other - other + field.from_fractions(target),
        field.from_fractions(target) + other - other,
        field.from_fractions([c * 5 for c in target]) * field.from_fractions([Fraction(1, 5)]),
        field.from_fractions([c / 3 for c in target]) + field.from_fractions([c * 2 / 3 for c in target]),
        field.from_fractions(target).inverse().inverse(),
    ]
    first = ways[0]
    assert first.coeffs == tuple(target)
    for x in ways:
        assert x == first
        assert hash(x) == hash(first)
        assert x.coeffs == first.coeffs
        assert field.sort_key(x) == field.sort_key(first)
        assert repr(x) == repr(first)
        assert (x.num, x.den) == (first.num, first.den)
        assert x.den > 0 and gcd(x.den, *x.num) == 1
        assert len(x.num) == d
    # over Q(zeta_1) = Q(zeta_2) = Q the norm in an inverse can be negative
    for x in (first.inverse(), (-first).inverse()):
        assert x.den > 0 and gcd(x.den, *x.num) == 1
    # zero has the representation (0, ..., 0) / 1, however it arises
    for x in [field.zero(), other - other, field.from_fractions([Fraction(0, 9)] * (d + 3)),
              field.from_fractions(list(phi))]:
        assert (x.num, x.den) == ((0,) * d, 1) and not x


def _trial_division_is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(-10, 10 ** 5 + 1) if _is_prime(n)] == \
        [n for n in range(-10, 10 ** 5 + 1) if _trial_division_is_prime(n)]
    # 10^12 + 39 and 10^14 + 31 take 10^6 and 10^7 trial divisions to
    # confirm; 2^61 - 1 is a Mersenne prime
    assert _is_prime(10 ** 12 + 39) and _is_prime(10 ** 14 + 31) and _is_prime(2 ** 61 - 1)
    assert not any(_is_prime(n) for n in (10 ** 12 + 37, 10 ** 14 + 33, 2 ** 61 + 1))
    # the least strong pseudoprimes to the first 8 and the first 11 prime bases
    assert not _is_prime(341_550_071_728_321) and not _is_prime(3_825_123_056_546_413_051)
    assert _is_prime(PRIME_TEST_GUARD - 167)  # the largest admitted prime


def test_is_prime_refuses_above_its_proven_bound():
    assert PRIME_TEST_GUARD == 3_317_044_064_679_887_385_961_980
    assert not _is_prime(PRIME_TEST_GUARD)  # even
    # PRIME_TEST_GUARD + 1 is the least strong pseudoprime to all 13 bases
    with pytest.raises(SizeGuardExceeded) as info:
        _is_prime(PRIME_TEST_GUARD + 1)
    assert (info.value.size, info.value.guard) == (PRIME_TEST_GUARD + 1, PRIME_TEST_GUARD)


def test_inverse_guard_refuses_an_irrational_element_past_the_bound():
    # 211 is the least n with phi(n) > 200; phi(275) = 200 is the bound itself
    assert CYCLOTOMIC_INVERSE_GUARD == 200
    past = CyclotomicField(211)
    with pytest.raises(SizeGuardExceeded) as info:
        (past.zeta() + past.from_int(2)).inverse()
    assert (info.value.size, info.value.guard) == (210, 200)
    at = CyclotomicField(275)
    x = at.zeta() + at.from_int(2)
    assert x * x.inverse() == at.one()
    # a rational element takes no convolution and stays admitted
    rational = CyclotomicField(997).from_int(3)
    assert rational * rational.inverse() == CyclotomicField(997).one()


def test_degree_is_the_number_of_units_mod_n():
    for n in range(1, 61):
        units = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert CyclotomicField(n).degree == units
        assert len(cyclotomic_polynomial(n)) == units + 1


# -- oracle: dense Fraction-list kernels (schoolbook product, long division
# by Phi_n, extended Euclid), kept in test code only --

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _oracle_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _oracle_sub(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _oracle_divmod(a, b):
    rem = _trim(list(a))
    quo = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        coef = rem[-1] / b[-1]
        quo[shift] = coef
        for i, bi in enumerate(b):
            rem[shift + i] -= coef * bi
        _trim(rem)
    return _trim(quo), rem


@cache
def _oracle_phi(n):
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _oracle_mul(den, _oracle_phi(d))
    quo, rem = _oracle_divmod([Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)], den)
    assert not rem
    return tuple(quo)


def _oracle_reduce(n, c):
    phi = _oracle_phi(n)
    rem = _oracle_divmod(c, phi)[1]
    return tuple(rem + [Fraction(0)] * (len(phi) - 1 - len(rem)))


def _oracle_inverse(n, a):
    r0, r1 = list(_oracle_phi(n)), _trim(list(a))
    s0, s1 = [], [Fraction(1)]  # s_i * a == r_i mod Phi_n
    while r1:
        q, r = _oracle_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _oracle_sub(s0, _oracle_mul(q, s1))
    return _oracle_reduce(n, [x / r0[0] for x in s0])


_fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)
# general, integral (den 1), single-coefficient (a rational scalar) and zero
_coefficient_lists = st.one_of(
    st.lists(_fractions, max_size=20),
    st.lists(st.integers(-8, 8).map(Fraction), max_size=20),
    st.lists(_fractions, min_size=1, max_size=1),
    st.lists(st.integers(-8, 8).map(Fraction), min_size=1, max_size=1),
    st.just([]))


def assert_normal(field, x):
    """The representation invariant of CycElem, and == and hash agreeing
    with the element rebuilt through the normalising constructor."""
    assert len(x.num) == field.degree and x.den > 0 and gcd(x.den, *x.num) == 1
    rebuilt = CycElem(field.n, x.num, x.den)
    assert x == rebuilt and hash(x) == hash(rebuilt)


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14, 15, 21]),
       _coefficient_lists, _coefficient_lists)
@settings(max_examples=300, deadline=None)
def test_cyclotomic_arithmetic_matches_dense_oracle(n, raw_a, raw_b):
    field = CyclotomicField(n)
    a, b = field.from_fractions(raw_a), field.from_fractions(raw_b)
    assert a.coeffs == _oracle_reduce(n, raw_a)
    assert b.coeffs == _oracle_reduce(n, raw_b)
    assert (a + b).coeffs == _oracle_reduce(n, _oracle_sub(raw_a, [-x for x in raw_b]))
    assert (a - b).coeffs == _oracle_reduce(n, _oracle_sub(raw_a, raw_b))
    assert (a * b).coeffs == _oracle_reduce(n, _oracle_mul(raw_a, raw_b))
    assert (b * a).coeffs == (a * b).coeffs
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    results = [a, b, a + b, a - b, a * b, b * a, -a, field.zero(), field.one()]
    if a:
        assert a.inverse().coeffs == _oracle_inverse(n, a.coeffs)
        results += [a.inverse(), b / a]
    for x in results:
        assert_normal(field, x)
