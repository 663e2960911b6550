"""Dense univariate polynomials over the exact coefficient fields, and their
irreducible factorization.

``Poly`` provides the arithmetic used by the algebra-splitting routines:
division, gcd, extended gcd and powers modulo a polynomial.
``factor_list`` factors over every field kind here, with no third-party
library and no floats:

* F_p: Cantor-Zassenhaus (Math. Comp. 1981).  Squarefree decomposition,
  including the p-th root of a factor whose derivative vanishes, then
  distinct-degree and equal-degree splitting.
* Q: Zassenhaus.  The primitive integer polynomial is factored modulo a
  small prime, the factors are Hensel-lifted modulo p^k past a Mignotte
  bound, and subsets of them are recombined by exact trial division over Z.
* Q(zeta_n): Trager's norm method (SYMSAC 1976).  f(x - s zeta) is shifted
  until its norm to Q, the product of its Galois conjugates, is squarefree;
  the norm is factored over Q, and each of its factors h gives the factor
  gcd(f(x - s zeta), h)(x + s zeta) of f.  An f with rational coefficients
  is factored over Q first, and each factor of degree at least 2 takes its
  own norm, from s = 1: unshifted, the norm of a rational h is h^phi(n).

Every factor is accepted by exact arithmetic, so the random choices of the
equal-degree splitting and the choice of primes affect the running time,
never the result.  The modular core (Cantor-Zassenhaus, the candidate primes
of Zassenhaus and the Hensel lifting) works on plain int lists of residues.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, count
from math import gcd as igcd, lcm

from . import fields


class Poly:
    """Polynomial with ascending coefficients over an exact field."""

    def __init__(self, field: fields.Field, coeffs):
        self.field = field
        zero = field.zero()
        c = list(coeffs)
        while c and c[-1] == zero:
            c.pop()
        self.coeffs = c

    @classmethod
    def from_ints(cls, field: fields.Field, ints) -> "Poly":
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
        inv = self.field.one() / self.leading()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        field = self.field
        return Poly(field, [c * field.from_int(i) for i, c in enumerate(self.coeffs) if i])

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
        inv = self.field.one() / other.leading()
        while len(rem) >= len(other.coeffs) and rem:
            shift = len(rem) - len(other.coeffs)
            coef = rem[-1] * inv
            quo[shift] = coef
            for i, b in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - coef * b
            while rem and rem[-1] == zero:
                rem.pop()
        return Poly(self.field, quo), Poly(self.field, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd of a and b; the zero polynomial when both are zero."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def factor_list(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of p with multiplicities, sorted canonically:
    by degree, then by the field's sort keys of the coefficients.

    The constant content is dropped; callers factoring minimal polynomials
    only need the monic factors.  Over Q (and so over Q(zeta_n), whose norms
    are factored over Q) the recombination tries subsets of the modular
    factors, so in the worst case it takes time exponential in their number,
    as every Zassenhaus implementation does, sympy's included: the
    Swinnerton-Dyer polynomials are irreducible of degree 2^k but split into
    factors of degree at most 2 modulo every prime.
    """
    field = p.field
    if p.degree < 1:
        return []
    if isinstance(field, fields.PrimeField):
        split = _split_fp
    elif isinstance(field, fields.RationalField):
        split = _split_q
    elif isinstance(field, fields.CyclotomicField):
        split = _split_cyclo
    else:
        raise TypeError(f"unsupported field: {field!r}")
    factors = [(g, mult) for f, mult in _squarefree(p.monic()) for g in split(f)]
    factors.sort(key=lambda fm: (fm[0].degree, [field.sort_key(c) for c in fm[0].coeffs]))
    return factors


def _squarefree(f: Poly) -> list[tuple[Poly, int]]:
    """Pairs (g, m), g monic, squarefree and pairwise coprime, with f (monic)
    the product of the g^m: [(f, 1)] when :func:`_squarefree_mod_q` proves f
    squarefree, else Musser's algorithm.

    In characteristic p a factor whose multiplicity p divides is invisible to
    the derivative and is left in c; c' = 0 then, so c is a polynomial in x^p,
    and over F_p its p-th root keeps every p-th coefficient."""
    if _squarefree_mod_q(f):
        return [(f, 1)]
    c = gcd(f, f.derivative())
    w = f // c
    out, mult = [], 1
    while w.degree > 0:
        y = gcd(w, c)
        if y.degree < w.degree:
            out.append((w // y, mult))
        w, c, mult = y, c // y, mult + 1
    if c.degree > 0:
        p = f.field.char
        out += [(g, m * p) for g, m in _squarefree(Poly(f.field, c.coeffs[::p]))]
    return out


@lru_cache(maxsize=None)
def _test_prime(n: int) -> tuple[int, int]:
    """The largest prime q <= NORM_TEST_PRIME with q = 1 (mod n), and an r
    of order n modulo q: r^d != 1 for the proper divisors d of n."""
    q = NORM_TEST_PRIME - (NORM_TEST_PRIME - 1) % n
    while not fields._is_prime(q):
        q -= n
    for g in count(2):
        r = pow(g, (q - 1) // n, q)
        if all(pow(r, d, q) != 1 for d in range(1, n) if n % d == 0):
            return q, r


def _squarefree_mod_q(f: Poly) -> bool:
    """Whether f, monic, is squarefree modulo a prime q; if so, f is
    squarefree.  Over F_p, q = p.  Otherwise (q, r) = _test_prime(n), with
    n = 1 over Q, and zeta -> r maps the elements whose den q does not
    divide onto F_q.  The monic factors of f have such coefficients when f
    has, so a square factor of f maps to one of f mod q, a monic polynomial
    of the same degree.  False when q divides a den of f."""
    field = f.field
    if field.char:
        q, image = field.char, [c.v for c in f.coeffs]
    else:
        q, r = _test_prime(getattr(field, "n", 1))
        pairs = [(c.num, c.den) if hasattr(c, "num") else ((c.numerator,), c.denominator)
                 for c in f.coeffs]
        if any(den % q == 0 for _, den in pairs):
            return False
        image = [sum(a * pow(r, i, q) for i, a in enumerate(num)) * pow(den, -1, q) % q
                 for num, den in pairs]
    return len(_zgcd(image, _zderiv(image, q), q)) == 1


# -- F_p: Cantor-Zassenhaus -----------------------------------------------------

def _split_fp(f: Poly) -> list[Poly]:
    """Irreducible factors of a monic squarefree f over F_p."""
    parts = _distinct_degree([c.v for c in f.coeffs], f.field.p)
    return [Poly.from_ints(f.field, g) for g in _split_equal_degrees(parts, f.field.p)]


def _split_equal_degrees(parts: list[tuple[list[int], int]], p: int) -> list[list[int]]:
    rng = random.Random(0)
    return [g for h, d in parts for g in _equal_degree(h, d, p, rng)]


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (h, d), h the product of the irreducible factors of degree d of
    the monic squarefree f mod p: gcd(f, x^(p^d) - x) with the lower degrees removed."""
    out, h, d = [], [0, 1], 0
    while len(f) > 2 * (d + 1):
        d += 1
        h = _zpow(h, p, f, p)
        g = _zgcd(f, _zadd(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out.append((g, d))
            f = _zdivmod(f, g, p)[0]
            h = _zdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Irreducible factors of f, a product of distinct irreducibles of degree
    d mod p: split by gcd(f, a^((p^d - 1)/2) - 1) for random a, or for p = 2
    by the trace a + a^2 + ... + a^(2^(d-1)), until every piece has degree d."""
    if len(f) == d + 1:
        return [f]
    while True:
        a = _ztrim([rng.randrange(p) for _ in range(len(f) - 1)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _zdivmod(_zmul(t, t, 2), f, 2)[1]
                b = _zadd(b, t, 2)
        else:
            b = _zadd(_zpow(a, (p ** d - 1) // 2, f, p), [1], p, -1)
        g = _zgcd(f, b, p)
        if 1 < len(g) < len(f):
            return _equal_degree(g, d, p, rng) + _equal_degree(_zdivmod(f, g, p)[0], d, p, rng)


# -- Q: Zassenhaus ---------------------------------------------------------------

# how many primes that divide neither the leading coefficient nor the
# discriminant are tried; the one with the fewest modular factors is lifted
MODULAR_CANDIDATES = 3


def _split_q(f: Poly) -> list[Poly]:
    """Irreducible monic factors of a monic squarefree f over Q."""
    if f.degree == 1:
        return [f]
    den = lcm(*(c.denominator for c in f.coeffs))
    ints = [c.numerator * (den // c.denominator) for c in f.coeffs]
    content = igcd(*ints)
    return [Poly(f.field, [Fraction(c, g[-1]) for c in g])
            for g in _zassenhaus([c // content for c in ints])]


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors in Z[x] of a primitive squarefree f of degree at
    least 2, ascending ints with a positive leading coefficient."""
    n, norm_sq = len(f) - 1, sum(c * c for c in f)
    # a rejected prime divides lc(f) Res(f, f'), which is nonzero for a
    # squarefree f and at most lc(f) n^n ||f||_2^(2n-1) (Hadamard), so
    # rejected primes whose product passes that bound prove f not squarefree
    reject_limit_sq = f[-1] ** 2 * n ** (2 * n) * norm_sq ** (2 * n - 1)
    rejected = 1
    best = None
    tried, q = 0, 2
    while tried < MODULAR_CANDIDATES:
        q += 1
        if not fields._is_prime(q):
            continue
        fq = [c % q for c in f]
        if f[-1] % q == 0 or len(_zgcd(fq, _zderiv(fq, q), q)) > 1:
            rejected *= q
            if rejected ** 2 > reject_limit_sq:
                raise AssertionError("Zassenhaus factoring needs a squarefree polynomial")
            continue
        tried += 1
        # the distinct-degree split alone counts the modular factors
        parts = _distinct_degree(_zmonic(fq, q), q)
        count = sum((len(h) - 1) // d for h, d in parts)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = count, q, parts
    # Mignotte: lc(f)/lc(g) * g has every coefficient at most 2^n ||f||_2 for
    # each factor g of f, or of a factor of f; so p^k > 2^(n+1) ||f||_2 makes
    # the centred lifted products exact
    bound_sq = 4 ** (n + 1) * norm_sq
    _, p, parts = best
    m = p
    while m * m <= bound_sq:
        m *= m
    return _recombine(f, _hensel_lift(f, _split_equal_degrees(parts, p), p, m), m)


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, m: int) -> list[list[int]]:
    """Monic int lists modulo m, m = p^(2^j), each congruent modulo p to one
    of the monic factors modulo p of f / lc(f), whose product times lc(f) is
    f modulo m.  The factors are split in halves and each pair is lifted
    quadratically (von zur Gathen and Gerhard, Modern Computer Algebra,
    Algorithm 15.10), then each half in turn."""
    if len(factors) == 1:
        return [_zmonic(f, m)]
    half = len(factors) // 2
    g = reduce(lambda u, v: _zmul(u, v, p), factors[:half], [f[-1] % p])
    h = reduce(lambda u, v: _zmul(u, v, p), factors[half:])
    s, t = _zxgcd(g, h, p)
    q = p
    while q < m:
        q *= q
        g, h, s, t = _hensel_step(f, g, h, s, t, q)
    return _hensel_lift(g, factors[:half], p, m) + _hensel_lift(h, factors[half:], p, m)


def _hensel_step(f, g, h, s, t, m):
    """From f = g h and s g + t h = 1 modulo sqrt(m), h monic, deg s < deg h
    and deg t < deg g, the same four relations modulo m."""
    e = _zadd(f, _zmul(g, h, m), m, -1)
    q, r = _zdivmod(_zmul(s, e, m), h, m)
    g = _zadd(g, _zadd(_zmul(t, e, m), _zmul(q, g, m), m), m)
    h = _zadd(h, r, m)
    b = _zadd(_zadd(_zmul(s, g, m), _zmul(t, h, m), m), [1], m, -1)
    c, d = _zdivmod(_zmul(s, b, m), h, m)
    s = _zadd(s, d, m, -1)
    t = _zadd(t, _zadd(_zmul(t, b, m), _zmul(c, g, m), m), m, -1)
    return g, h, s, t


def _recombine(f: list[int], lifted: list[list[int]], m: int) -> list[list[int]]:
    """Irreducible factors of f in Z[x] from its lifted modular factors: for
    subsets of growing size, lc(f) times the subset product, centred modulo
    m, is kept when it divides lc(f) f exactly.  What it divides is a factor
    of f, and an irreducible one: a proper factor of it would be a smaller
    subset, found first."""
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            lead = f[-1]
            g = [lead]
            for i in subset:
                g = _zmul(g, lifted[i], m)
            g = [c - m if 2 * c > m else c for c in g]
            if g[0] and f[0] and lead * f[0] % g[0]:
                continue  # the constant terms already rule it out
            if _zdiv_exact([lead * c for c in f], g) is None:
                continue
            content = igcd(*g)
            g = [c // content for c in g]
            found.append(g)
            f = _zdiv_exact(f, g)
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return found + [f]


def _zadd(a: list[int], b: list[int], m: int, sign: int = 1) -> list[int]:
    """a + sign * b modulo m, trimmed."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = list(a)
    for i, c in enumerate(b):
        out[i] += sign * c
    return _ztrim([c % m for c in out])


def _zmul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ztrim([c % m for c in out])


def _zdivmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder modulo m by b, whose leading coefficient is a
    unit modulo m."""
    rem = list(a)
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    quo = [0] * max(0, len(rem) - n)
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k] * inv % m
        quo[k - n] = c
        if c:
            for i, y in enumerate(b):
                rem[k - n + i] -= c * y
    return _ztrim(quo), _ztrim([c % m for c in rem[:n]])


def _zdiv_exact(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[x], or None when b does not divide a there."""
    if len(a) < len(b):
        return None
    rem = list(a)
    n = len(b) - 1
    quo = [0] * (len(rem) - n)
    for k in range(len(rem) - 1, n - 1, -1):
        c, r = divmod(rem[k], b[-1])
        if r:
            return None
        quo[k - n] = c
        if c:
            for i, y in enumerate(b):
                rem[k - n + i] -= c * y
    return None if any(rem[:n]) else quo


def _ztrim(c: list[int]) -> list[int]:
    while c and not c[-1]:
        c.pop()
    return c


def _zmonic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _zderiv(a: list[int], p: int) -> list[int]:
    return _ztrim([i * c % p for i, c in enumerate(a)][1:])


def _zgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd modulo the prime p; [] when a and b are both zero."""
    while b:
        a, b = b, _zdivmod(a, b, p)[1]
    return _zmonic(a, p) if a else a


def _zxgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """(s, t) with s a + t b the monic gcd of a and b modulo the prime p."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _zdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zadd(s0, _zmul(q, s1, p), p, -1)
        t0, t1 = t1, _zadd(t0, _zmul(q, t1, p), p, -1)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _zpow(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e modulo f and p, by left-to-right repeated squaring."""
    out, a = [1], _zdivmod(a, f, p)[1]
    for bit in bin(e)[2:]:
        out = _zdivmod(_zmul(out, out, p), f, p)[1]
        if bit == "1":
            out = _zdivmod(_zmul(out, a, p), f, p)[1]
    return out


# -- Q(zeta_n): Trager's norms -------------------------------------------------

# the squarefree tests are made modulo the largest prime q at most this with
# q = 1 (mod n); a norm's test is made over Q after that many failed
# shifts, which always ends the search
NORM_TEST_PRIME = 2 ** 31 - 1
NORM_TEST_MOD_P_SHIFTS = 3


def _split_cyclo(f: Poly) -> list[Poly]:
    """Irreducible monic factors of a monic squarefree f over Q(zeta_n).

    An f with rational coefficients is factored over Q first, and only its
    factors of degree at least 2 go through Trager's norm, from s = 1: at
    s = 0 the norm of a rational h is h^phi(n), not squarefree when
    phi(n) > 1."""
    if f.degree == 1:
        return [f]
    field = f.field
    if any(a for c in f.coeffs for a in c.num[1:]):
        return _trager(f, 0)
    over_q = _split_q(Poly(fields.QQ, [Fraction(c.num[0], c.den) for c in f.coeffs]))
    factors = [Poly(field, [field.from_fractions([c]) for c in h.coeffs]) for h in over_q]
    return [g for h in factors for g in (_trager(h, 1) if h.degree > 1 else [h])]


def _trager(f: Poly, start: int) -> list[Poly]:
    """Irreducible monic factors of a monic squarefree f over Q(zeta_n), of
    degree at least 2, by the norms of f(x - s zeta) for s = start, start + 1, ..."""
    field = f.field
    zeta = field.zeta()
    for s in count(start):
        # the norm of f(x - s zeta) is squarefree for all but finitely many s
        shifted = _shift(f, field.from_int(-s) * zeta)
        norm = _norm(shifted)
        if (_squarefree_mod_q(norm)
                or (s - start >= NORM_TEST_MOD_P_SHIFTS
                    and gcd(norm, norm.derivative()).degree == 0)):
            break
    factors = _split_q(norm)
    if len(factors) == 1:
        return [f]
    back = field.from_int(s) * zeta
    return [_shift(gcd(shifted, Poly(field, [field.from_fractions([c]) for c in h.coeffs])), back)
            for h in factors]


def _shift(f: Poly, c) -> Poly:
    """f(x + c), by Horner."""
    field = f.field
    linear = Poly(field, [c, field.one()])
    acc = Poly(field, [])
    for a in reversed(f.coeffs):
        acc = acc * linear + Poly(field, [a])
    return acc


def _norm(f: Poly) -> Poly:
    """The product of the Galois conjugates of f over Q(zeta_n), zeta -> zeta^k
    for k prime to n: a polynomial over Q."""
    field = f.field
    n = field.n
    acc = f
    for k in range(2, n):
        if igcd(k, n) == 1:
            acc = acc * Poly(field, [c.conjugate(k) for c in f.coeffs])
    assert not any(a for c in acc.coeffs for a in c.num[1:]), "a norm has rational coefficients"
    return Poly(fields.QQ, [Fraction(c.num[0], c.den) for c in acc.coeffs])


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
    scale = Poly(field, [field.one() / r0.leading()])
    return r0.monic(), s0 * scale, t0 * scale
