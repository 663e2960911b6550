"""Exact coefficient fields: rationals, prime fields and cyclotomic fields.

Three field kinds are supported, each with a canonical element
representation:

* ``RationalField``: elements are ``fractions.Fraction`` (always reduced).
* ``PrimeField(p)``: elements are :class:`FpElem` with residue in ``[0, p)``.
* ``CyclotomicField(n)``: elements are :class:`CycElem`, num(zeta) / den
  for a primitive n-th root of unity ``zeta``: ``num`` holds the phi(n)
  integer coefficients of a polynomial of degree < phi(n) and ``den`` is a
  positive integer with gcd(den, *num) = 1.  Phi_n is computed once per n as
  a tuple of ints, from the factors x^d - 1 of x^n - 1; it is monic with
  integer coefficients, so sums and products are int arithmetic reduced
  modulo Phi_n, followed by one gcd when the denominator is not 1.  The
  ``Fraction`` coefficients are derived on demand.

All arithmetic is exact; there is no floating point anywhere.  Every
element is false exactly when it is zero, so sparse code can test entries by
truth value.  Field objects are lightweight handles that compare equal when
they describe the same field, so they can be passed around and stored on
matrices and algebras.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import add, sub

from .errors import SizeGuardExceeded, UsageError


# Miller-Rabin with the 13 prime bases 2..41 is exact below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_GUARD = 3_317_044_064_679_887_385_961_980

# Q(zeta_n) is admitted up to this n: Phi_n takes under a millisecond for
# each such n (Python 3.11, 2-CPU host), and an element holds phi(n) < 1,000 ints
CYCLOTOMIC_GUARD = 1_000

# an irrational element of Q(zeta_n) is inverted up to this phi(n): the inverse
# takes phi(n) - 1 convolutions of length phi(n), 0.5-0.9 s at phi(n) = 200
# (n = 275, 303) and 0.9-1.2 s at n = 211 (Python 3.11, 2-CPU host)
CYCLOTOMIC_INVERSE_GUARD = 200


def _is_prime(p: int) -> bool:
    """Deterministic primality test; SizeGuardExceeded above PRIME_TEST_GUARD,
    where the bases are no longer proven to suffice."""
    if p > PRIME_TEST_GUARD:
        raise SizeGuardExceeded(p, PRIME_TEST_GUARD)
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    # p > 41 here: a composite p <= 41 has a prime factor below 7
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _phi_coeffs(n: int) -> tuple[int, ...]:
    """The ints of Phi_n, ascending, by Moebius inversion of x^n - 1 =
    prod_{d | n} Phi_d: the product over the sets S of primes dividing n of
    (x^(n / prod S) - 1)^((-1)^|S|).  The factors with |S| even are
    multiplied in first, then those with |S| odd divided out exactly, each
    in one linear pass."""
    if n < 1:
        raise ValueError("n must be positive")
    primes = [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]
    even, odd = ([n // prod(s) for k in range(start, len(primes) + 1, 2)
                  for s in combinations(primes, k)] for start in (0, 1))
    c = [1]
    for d in even:
        c = [(c[i - d] if i >= d else 0) - (c[i] if i < len(c) else 0)
             for i in range(len(c) + d)]
    for d in odd:
        q = []  # c = q (x^d - 1), so q[i] = q[i - d] - c[i], from the bottom
        for i in range(len(c) - d):
            q.append((q[i - d] if i >= d else 0) - c[i])
        c = q
    return tuple(c)


@lru_cache(maxsize=None)
def _phi_ints(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """phi(n), and the nonzero (i, c) of Phi_n below its leading 1, as ints:
    Phi_n is monic with integer coefficients."""
    c = _phi_coeffs(n)
    return len(c) - 1, tuple((i, a) for i, a in enumerate(c[:-1]) if a)


def _reduce(n: int, c: list[int]) -> list[int]:
    """The ints c, ascending, modulo Phi_n: phi(n) ints, by long division
    from the top (c is overwritten)."""
    d, terms = _phi_ints(n)
    for k in range(len(c) - 1, d - 1, -1):
        top = c[k]
        if top:
            base = k - d
            for i, a in terms:
                c[base + i] -= top * a
    if len(c) < d:
        return c + [0] * (d - len(c))
    return c[:d]


def cyclotomic_polynomial(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree."""
    return tuple(map(Fraction, _phi_coeffs(n)))


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
    """Prime field F_p for a prime p; SizeGuardExceeded above PRIME_TEST_GUARD."""

    char: int

    def __init__(self, p: int):
        if not _is_prime(p):
            raise UsageError(f"{p} is not prime")
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
    """Element of Q(zeta_n): num(zeta) / den, with num of degree < phi(n).

    ``num`` is a tuple of phi(n) ints and ``den`` a positive int with
    gcd(den, *num) = 1, so every element has one representation.  The
    constructor takes any ints (more than phi(n) are reduced modulo Phi_n,
    fewer are padded with zeros) and any nonzero ``den``, and normalises.

    Results that are normal already skip that and come from :func:`_normal`:
    zero and one; a negation, which keeps den and the gcd; and a sum,
    difference or product of two elements with den 1, whose den is 1 and so
    prime to any ints.  A product with a rational operand scales the other
    operand's ints instead of convolving them.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, num, den: int = 1):
        if not den:
            raise ZeroDivisionError("zero denominator in cyclotomic field")
        c = _reduce(n, list(num))
        if den < 0:
            c, den = [-a for a in c], -den
        if den != 1:
            g = gcd(den, *c)
            if g != 1:
                c, den = [a // g for a in c], den // g
        self.n = n
        self.num = tuple(c)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The phi(n) rational coefficients of 1, zeta, ..., zeta^(phi(n) - 1)."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def _check(self, other: "CycElem") -> None:
        if not isinstance(other, CycElem) or other.n != self.n:
            raise TypeError("mixed-field arithmetic")

    def __add__(self, other):
        self._check(other)
        if self.den == other.den:
            num = tuple(map(add, self.num, other.num))
            return _normal(self.n, num, 1) if self.den == 1 else CycElem(self.n, num, self.den)
        return CycElem(self.n, [a * other.den + b * self.den for a, b in zip(self.num, other.num)],
                       self.den * other.den)

    def __sub__(self, other):
        self._check(other)
        if self.den == other.den:
            num = tuple(map(sub, self.num, other.num))
            return _normal(self.n, num, 1) if self.den == 1 else CycElem(self.n, num, self.den)
        return CycElem(self.n, [a * other.den - b * self.den for a, b in zip(self.num, other.num)],
                       self.den * other.den)

    def __neg__(self):
        return _normal(self.n, tuple([-a for a in self.num]), self.den)

    def __mul__(self, other):
        self._check(other)
        a, b, den = self.num, other.num, self.den * other.den
        if any(a[1:]) and any(b[1:]):
            # int convolution, reduced modulo Phi_n in place or by the constructor
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            if den != 1:
                return CycElem(self.n, out, den)
            return _normal(self.n, tuple(_reduce(self.n, out)), 1)
        # a rational operand scales the other's ints
        r, a = (b[0], a) if any(a[1:]) else (a[0], b)
        out = [r * x for x in a]
        return _normal(self.n, tuple(out), 1) if den == 1 else CycElem(self.n, out, den)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def conjugate(self, k: int) -> "CycElem":
        """The Galois conjugate zeta -> zeta^k, for k prime to n."""
        conj = [0] * self.n
        for i, a in enumerate(self.num):
            conj[i * k % self.n] += a
        return CycElem(self.n, conj, self.den)

    def inverse(self) -> "CycElem":
        # num times its other Galois conjugates zeta -> zeta^k is the norm of
        # num(zeta), an int that is nonzero because Phi_n is irreducible over Q
        if not self:
            raise ZeroDivisionError("division by zero in cyclotomic field")
        if any(self.num[1:]) and len(self.num) > CYCLOTOMIC_INVERSE_GUARD:
            raise SizeGuardExceeded(len(self.num), CYCLOTOMIC_INVERSE_GUARD)
        n = self.n
        num = CycElem(n, self.num)
        others = CycElem(n, [1])
        for k in range(2, n):
            if gcd(k, n) == 1:
                others = others * num.conjugate(k)
        norm = (num * others).num[0]
        return CycElem(n, [a * self.den for a in others.num], norm)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycElem) and other.n == self.n and other.num == self.num
                and other.den == self.den)

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    def __bool__(self) -> bool:
        return any(self.num)

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


def _normal(n: int, num: tuple, den: int) -> CycElem:
    """num(zeta) / den in Q(zeta_n), num and den taken as they are: normal."""
    x = object.__new__(CycElem)
    x.n, x.num, x.den = n, num, den
    return x


class CyclotomicField:
    """Cyclotomic field Q(zeta_n), zeta_n a primitive n-th root of unity."""

    char = 0

    def __init__(self, n: int):
        if n < 1:
            raise UsageError("n must be positive")
        if n > CYCLOTOMIC_GUARD:
            raise SizeGuardExceeded(n, CYCLOTOMIC_GUARD)
        self.n = n
        self.degree = _phi_ints(n)[0]
        self.tag = f"cyclo{n}"

    def zero(self) -> CycElem:
        return _normal(self.n, (0,) * self.degree, 1)

    def one(self) -> CycElem:
        return _normal(self.n, (1,) + (0,) * (self.degree - 1), 1)

    def from_int(self, k: int) -> CycElem:
        return CycElem(self.n, [k])

    def zeta(self, power: int = 1) -> CycElem:
        """zeta_n^power as a field element."""
        power %= self.n
        return CycElem(self.n, [0] * power + [1])

    def from_fractions(self, coeffs) -> CycElem:
        """sum_i coeffs[i] * zeta^i, from rationals in any number."""
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return CycElem(self.n, [c.numerator * (den // c.denominator) for c in fracs], den)

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


def _code_int(code: str, prefix: str, what: str) -> int:
    """The int after the prefix of a field or profile code."""
    try:
        return int(code[len(prefix):])
    except ValueError:
        raise UsageError(f"unknown {what}: {code!r}") from None


def field_from_code(code: str) -> Field:
    """Parse a field code: "q", "fp<p>" or "cyclo<n>"."""
    if code == "q":
        return QQ
    if code.startswith("fp"):
        return PrimeField(_code_int(code, "fp", "field code"))
    if code.startswith("cyclo"):
        return CyclotomicField(_code_int(code, "cyclo", "field code"))
    raise UsageError(f"unknown field code: {code!r}")
