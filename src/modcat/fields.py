"""Exact coefficient fields: rationals, prime fields and cyclotomic fields.

Three field kinds are supported, each with a canonical element
representation:

* ``RationalField``: elements are ``fractions.Fraction`` (always reduced).
* ``PrimeField(p)``: elements are :class:`FpElem` with residue in ``[0, p)``.
* ``CyclotomicField(n)``: elements are :class:`CycElem`, polynomials in a
  primitive n-th root of unity ``zeta`` of degree < phi(n), with ``Fraction``
  coefficients, reduced modulo the n-th cyclotomic polynomial Phi_n.  Phi_n is
  computed once per n as a :class:`~modcat.poly.Poly` over QQ, and products
  are reduced by ``Poly`` arithmetic; this module needs no sympy.

All arithmetic is exact; there is no floating point anywhere.  Every
element is false exactly when it is zero, so sparse code can test entries by
truth value.  Field objects are lightweight handles that compare equal when
they describe the same field, so they can be passed around and stored on
matrices and algebras.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .poly import Poly


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def _phi_poly(n: int) -> Poly:
    """Phi_n over QQ: x^n - 1 divided once by the product of the lower Phi_d."""
    if n < 1:
        raise ValueError("n must be positive")
    den = Poly(QQ, [Fraction(1)])
    for d in range(1, n):
        if n % d == 0:
            den = den * _phi_poly(d)
    quo, rem = divmod(Poly(QQ, [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]), den)
    assert rem.is_zero(), "x^n - 1 must be divisible by the product of lower Phi_d"
    return quo


def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    return tuple(_phi_poly(n).coeffs)


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
    """Element of Q(zeta_n): polynomial in zeta of degree < phi(n).

    ``coeffs`` must already hold ``Fraction``s; more than phi(n) of them are
    reduced modulo Phi_n, fewer are padded with zeros.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        phi = _phi_poly(n)
        c = list(coeffs)
        if len(c) > phi.degree:
            c = (Poly(QQ, c) % phi).coeffs
        self.n = n
        self.coeffs = tuple(c + [Fraction(0)] * (phi.degree - len(c)))

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
        prod = Poly(QQ, self.coeffs) * Poly(QQ, other.coeffs)
        return CycElem(self.n, (prod % _phi_poly(self.n)).coeffs)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "CycElem":
        # a times its other Galois conjugates zeta -> zeta^k is the norm of a,
        # a rational that is nonzero because Phi_n is irreducible over Q
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        others = CycElem(self.n, [Fraction(1)])
        for k in range(2, self.n):
            if gcd(k, self.n) == 1:
                conj = [Fraction(0)] * self.n
                for i, a in enumerate(self.coeffs):
                    conj[i * k % self.n] += a
                others = others * CycElem(self.n, conj)
        norm = (self * others).coeffs[0]
        return CycElem(self.n, [c / norm for c in others.coeffs])

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


class CyclotomicField:
    """Cyclotomic field Q(zeta_n), zeta_n a primitive n-th root of unity."""

    char = 0

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.degree = _phi_poly(n).degree
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
