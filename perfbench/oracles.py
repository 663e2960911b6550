"""Closed-form answers the benchmark checks modcat against.

None of these call modcat: each is a textbook formula or a brute force over a
small finite abelian group G = Z/m_1 + ... + Z/m_k, given by its cyclic orders.
"""

from __future__ import annotations

from itertools import product
from math import comb, gcd, lcm, prod


def p_rank(orders, p: int) -> int:
    """dim over F_p of G/pG: the number of cyclic factors of order divisible
    by p, which is the same for every cyclic decomposition of G."""
    return sum(1 for m in orders if m % p == 0)


def dy_dims(orders, char: int, n_max: int) -> list[int]:
    """dim H^n, n = 0..n_max-1, of the identity functor of G over a field of
    characteristic ``char``: the t^n coefficient of (1 - t)^(-k) with k the
    p-rank of G, and 1, 0, 0, ... in characteristic 0 or when k = 0."""
    k = p_rank(orders, char) if char else 0
    if k == 0:
        return [1] + [0] * (n_max - 1)
    return [comb(n + k - 1, k - 1) for n in range(n_max)]


def subgroup_count(orders) -> int:
    """Number of subgroups of G, by closing the trivial group under one more
    generator at a time until no new subgroup appears."""
    elements = list(product(*(range(m) for m in orders)))
    zero = tuple(0 for _ in orders)

    def closure(gens):
        group = {zero}
        frontier = [zero]
        while frontier:
            g = frontier.pop()
            for h in gens:
                s = tuple((a + b) % m for a, b, m in zip(g, h, orders))
                if s not in group:
                    group.add(s)
                    frontier.append(s)
        return frozenset(group)

    found = {frozenset({zero})}
    frontier = list(found)
    while frontier:
        sub = frontier.pop()
        for g in elements:
            if g not in sub:
                bigger = closure(list(sub) + [g])
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    return len(found)


def hom_count(source_orders, target_orders) -> int:
    """|Hom(G, H)| = prod over cyclic factors of gcd(m_i, n_j)."""
    return prod(gcd(m, n) for m in source_orders for n in target_orders)


# Real division algebras over a real closed field: name -> dimension.
REAL_DIMS = {"BASE": 1, "COMPLEXIFICATION": 2, "QUATERNION": 4}


def real_product(a: str, b: str) -> tuple[str, ...]:
    """Summands of a (x) b for real division classes: BASE is the unit,
    QUATERNION (x) QUATERNION is BASE (Br(R) = Z/2), C (x) C = C + C and
    C (x) H = C."""
    if a == "BASE":
        return (b,)
    if b == "BASE":
        return (a,)
    if a == b == "QUATERNION":
        return ("BASE",)
    if a == b == "COMPLEXIFICATION":
        return ("COMPLEXIFICATION", "COMPLEXIFICATION")
    return ("COMPLEXIFICATION",)


def pointed_product(p: int, zeta: int, a: str, b: str) -> tuple[str, ...]:
    """Summands of a (x) b for the two module classes over braided Z/p-graded
    spaces: Vect(Z/p) is the unit; Vect (x) Vect is p copies of Vect for the
    trivial braiding and one copy of Vect(Z/p) for a primitive one."""
    unit = f"Vect(Z/{p})"
    if a == unit:
        return (b,)
    if b == unit:
        return (a,)
    return ("Vect",) * p if zeta % p == 0 else (unit,)


def pointed_dim(p: int, label: str) -> int:
    """Dimension of the algebra object realizing a class: 1 for the unit
    Vect(Z/p), p for Vect (the group algebra)."""
    return 1 if label == f"Vect(Z/{p})" else p


def finite_field_product(q: int, r: int) -> tuple[tuple[str, ...], bool]:
    """F_{p^q} (x) F_{p^r} is gcd(q, r) copies of F_{p^lcm(q, r)}; the
    "min(q, r) copies of the larger field" shortcut holds exactly when one
    degree divides the other."""
    names = (f"FINITE_EXT({lcm(q, r)})",) * gcd(q, r)
    return names, (q % r == 0 or r % q == 0)
