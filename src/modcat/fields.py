"""Exact coefficient fields: rationals, prime fields and cyclotomic fields.

Three field kinds are supported, each with a canonical element
representation:

* ``RationalField``: elements are ``fractions.Fraction`` (always reduced).
* ``PrimeField(p)``: elements are :class:`FpElem` with residue in ``[0, p)``.
* ``CyclotomicField(n)``: elements are :class:`CycElem`, polynomials in a
  primitive n-th root of unity ``zeta`` of degree < phi(n), with ``Fraction``
  coefficients, reduced modulo the n-th cyclotomic polynomial.

All arithmetic is exact; there is no floating point anywhere.  Field objects
are lightweight handles that compare equal when they describe the same field,
so they can be passed around and stored on matrices and algebras.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _euler_phi(n: int) -> int:
    result = n
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


# -- dense Fraction polynomials, ascending coefficients (internal helpers) --

def _poly_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
           for i in range(n)]
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(rem) >= len(b) and rem:
        shift = len(rem) - len(b)
        coef = rem[-1] / lead
        quo[shift] = coef
        for i, bi in enumerate(b):
            rem[shift + i] -= coef * bi
        _poly_trim(rem)
    return _poly_trim(quo), rem


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    Computed by dividing x^n - 1 by the product of all lower Phi_d, d | n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    den = [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quo, rem = _poly_divmod(num, den)
    assert not rem, "x^n - 1 must be divisible by the product of lower Phi_d"
    return tuple(quo)


class RationalField:
    """The field of rational numbers; elements are ``Fraction``."""

    tag = "q"
    char = 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def sort_key(self, x: Fraction):
        return (x.numerator, x.denominator)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("q")

    def __repr__(self) -> str:
        return "QQ"


class FpElem:
    """Residue in a prime field, kept in ``[0, p)``."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _check(self, other: "FpElem") -> None:
        if not isinstance(other, FpElem) or other.p != self.p:
            raise TypeError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return FpElem(self.p, self.v + other.v)

    def __sub__(self, other):
        self._check(other)
        return FpElem(self.p, self.v - other.v)

    def __neg__(self):
        return FpElem(self.p, -self.v)

    def __mul__(self, other):
        self._check(other)
        return FpElem(self.p, self.v * other.v)

    def __truediv__(self, other):
        self._check(other)
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElem(self.p, self.v * pow(other.v, self.p - 2, self.p))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.v == other % self.p
        return isinstance(other, FpElem) and other.p == self.p and other.v == self.v

    def __hash__(self) -> int:
        return hash((self.p, self.v))

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return f"{self.v} (mod {self.p})"


class PrimeField:
    """Prime field F_p for a prime p."""

    char: int

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.tag = f"fp{p}"

    def zero(self) -> FpElem:
        return FpElem(self.p, 0)

    def one(self) -> FpElem:
        return FpElem(self.p, 1)

    def from_int(self, k: int) -> FpElem:
        return FpElem(self.p, k)

    def sort_key(self, x: FpElem):
        return (x.v,)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class CycElem:
    """Element of Q(zeta_n): polynomial in zeta of degree < phi(n)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        phi = _euler_phi(n)
        c = list(coeffs)
        if len(c) > phi:
            c = _reduce_mod_phi(n, c)
        c += [Fraction(0)] * (phi - len(c))
        self.n = n
        self.coeffs = tuple(Fraction(x) for x in c)

    def _check(self, other: "CycElem") -> None:
        if not isinstance(other, CycElem) or other.n != self.n:
            raise TypeError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        return CycElem(self.n, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return CycElem(self.n, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CycElem(self.n, [-a for a in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        prod = _poly_mul(list(self.coeffs), list(other.coeffs))
        return CycElem(self.n, _reduce_mod_phi(self.n, prod))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "CycElem":
        # extended Euclid against Phi_n; Phi_n is irreducible over Q, so any
        # nonzero element is a unit
        a = _poly_trim(list(self.coeffs))
        if not a:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        phi = list(cyclotomic_polynomial(self.n))
        r0, r1 = phi, a
        s0, s1 = [], [Fraction(1)]  # s_i tracks the coefficient of a in r_i
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is the gcd, a nonzero constant, and s0 * a == r0 mod Phi_n
        const = r0[0]
        inv = [x / const for x in s0]
        return CycElem(self.n, inv)

    def __eq__(self, other) -> bool:
        return isinstance(other, CycElem) and other.n == self.n and other.coeffs == self.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z" if c != 1 else "z")
            else:
                terms.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(terms) if terms else "0"


def _reduce_mod_phi(n: int, coeffs: list[Fraction]) -> list[Fraction]:
    phi = list(cyclotomic_polynomial(n))
    _, rem = _poly_divmod(_poly_trim(list(coeffs)), phi)
    return rem


class CyclotomicField:
    """Cyclotomic field Q(zeta_n), zeta_n a primitive n-th root of unity."""

    char = 0

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.degree = _euler_phi(n)
        self.tag = f"cyclo{n}"

    def zero(self) -> CycElem:
        return CycElem(self.n, [])

    def one(self) -> CycElem:
        return CycElem(self.n, [Fraction(1)])

    def from_int(self, k: int) -> CycElem:
        return CycElem(self.n, [Fraction(k)])

    def zeta(self, power: int = 1) -> CycElem:
        """zeta_n^power as a field element."""
        power %= self.n
        mono = [Fraction(0)] * power + [Fraction(1)]
        return CycElem(self.n, mono)

    def from_fractions(self, coeffs) -> CycElem:
        return CycElem(self.n, [Fraction(c) for c in coeffs])

    def sort_key(self, x: CycElem):
        return tuple((c.numerator, c.denominator) for c in x.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("cyclo", self.n))

    def __repr__(self) -> str:
        return f"QQ(zeta_{self.n})"


QQ = RationalField()

Field = RationalField | PrimeField | CyclotomicField


def field_from_code(code: str) -> Field:
    """Parse a field code: "q", "fp<p>" or "cyclo<n>"."""
    if code == "q":
        return QQ
    if code.startswith("fp"):
        return PrimeField(int(code[2:]))
    if code.startswith("cyclo"):
        return CyclotomicField(int(code[5:]))
    raise ValueError(f"unknown field code: {code!r}")
