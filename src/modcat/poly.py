"""Dense univariate polynomials over the exact coefficient fields.

Provides the arithmetic needed to compute the cyclotomic polynomials Phi_n
(as ``Poly`` over QQ) and by the algebra-splitting routines (division, gcd,
extended gcd), plus irreducible factorization.  Factorization is delegated
to sympy's exact polynomial domains: GF(p) for prime fields, QQ for the
rationals, and QQ(alpha) with alpha a primitive root of unity for cyclotomic
fields, that number field built once per n.  sympy is imported on the first
factorization, not with this module.  Everything crossing the sympy
boundary is converted exactly; no floats are involved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .fields import Field


class Poly:
    """Polynomial with ascending coefficients over an exact field."""

    def __init__(self, field: Field, coeffs):
        self.field = field
        zero = field.zero()
        c = list(coeffs)
        while c and c[-1] == zero:
            c.pop()
        self.coeffs = c

    @classmethod
    def from_ints(cls, field: Field, ints) -> "Poly":
        return cls(field, [field.from_int(k) for k in ints])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        lead = self.leading()
        return Poly(self.field, [c / lead for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        return Poly(self.field, [
            (self.coeffs[i] if i < len(self.coeffs) else zero)
            + (other.coeffs[i] if i < len(other.coeffs) else zero)
            for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        return Poly(self.field, [
            (self.coeffs[i] if i < len(self.coeffs) else zero)
            - (other.coeffs[i] if i < len(other.coeffs) else zero)
            for i in range(n)])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly(self.field, [])
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        zero = self.field.zero()
        rem = list(self.coeffs)
        quo = [zero] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.leading()
        while len(rem) >= len(other.coeffs) and rem:
            shift = len(rem) - len(other.coeffs)
            coef = rem[-1] / lead
            quo[shift] = coef
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - coef * b
            while rem and rem[-1] == zero:
                rem.pop()
        return Poly(self.field, quo), Poly(self.field, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


@lru_cache(maxsize=None)
def _cyclotomic_number_field(n: int):
    """sympy's QQ(alpha), alpha a root of Phi_n, and its modulus as a list:
    built once per n."""
    import sympy

    K = sympy.QQ.algebraic_field(sympy.CRootOf(sympy.cyclotomic_poly(n, sympy.symbols("x")), 0))
    return K, K.mod.to_list()


def factor_list(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p with multiplicities, sorted canonically.

    The constant content is dropped; callers factoring minimal polynomials
    only need the monic factors.
    """
    import sympy
    from sympy.polys.polyclasses import ANP

    from .fields import CycElem, CyclotomicField, PrimeField, RationalField

    field = p.field
    if p.degree < 1:
        return []
    x = sympy.symbols("x")
    if isinstance(field, PrimeField):
        sp = sympy.Poly([c.v for c in reversed(p.coeffs)], x, modulus=field.p)
        factors = []
        for f, mult in sp.factor_list()[1]:
            coeffs = [field.from_int(int(c)) for c in reversed(f.all_coeffs())]
            factors.append((Poly(field, coeffs).monic(), mult))
    elif isinstance(field, RationalField):
        sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                        x, domain=sympy.QQ)
        factors = []
        for f, mult in sp.factor_list()[1]:
            coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
            factors.append((Poly(field, coeffs).monic(), mult))
    elif isinstance(field, CyclotomicField):
        K, mod = _cyclotomic_number_field(field.n)
        anp_coeffs = [ANP([sympy.QQ(a, el.den) for a in reversed(el.num)], mod, sympy.QQ)
                      for el in reversed(p.coeffs)]
        sp = sympy.Poly(anp_coeffs, x, domain=K)
        factors = []
        for f, mult in sp.factor_list()[1]:
            coeffs = []
            for c in reversed(f.rep.to_list()):
                rep = c.to_list()
                den = lcm(*(q.denominator for q in rep))
                coeffs.append(CycElem(field.n, [q.numerator * (den // q.denominator)
                                                for q in reversed(rep)], den))
            factors.append((Poly(field, coeffs).monic(), mult))
    else:
        raise TypeError(f"unsupported field: {field!r}")
    factors.sort(key=lambda fm: (fm[0].degree, [field.sort_key(c) for c in fm[0].coeffs]))
    return factors


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with g = gcd(a, b) monic and s a + t b = g."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly(field, [field.one()]), Poly(field, [])
    t0, t1 = Poly(field, []), Poly(field, [field.one()])
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading()
    inv = field.one() / lead
    scale = Poly(field, [inv])
    return r0.monic(), s0 * scale, t0 * scale
