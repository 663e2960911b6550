"""Finite abelian groups as direct sums of cyclic groups, and their integer-
coded addition: the group arithmetic that ``pointed``, ``basedring.group_ring``,
``fusion2`` and ``dy`` share."""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .errors import UsageError, record


def add_table(orders) -> list[list[int]]:
    """``table[i][j]`` is the index of g_i + g_j in Z/n_1 + Z/n_2 + ..., for any
    cyclic orders, 1s and non-chains too, the elements indexed in the order of
    :meth:`FiniteAbelianGroup.elements`, so the identity is index 0."""
    table = [[0]]
    for n in orders:
        table = [[t * n + (a + b) % n for t in row for b in range(n)]
                 for row in table for a in range(n)]
    return table


def _product_label(orders) -> str:
    """Z/n_1 x Z/n_2 x ..., or 1 for no factors."""
    return " x ".join(f"Z/{n}" for n in orders) or "1"


@record
class FiniteAbelianGroup:
    """Direct sum of cyclic groups, given by invariant factors n_1 | n_2 | ...

    The empty tuple is the trivial group.
    """

    cyclic_orders: tuple[int, ...]

    def __init__(self, cyclic_orders):
        orders = tuple(int(n) for n in cyclic_orders)
        for n in orders:
            if n < 2:
                raise UsageError("cyclic orders must be at least 2")
        for a, b in zip(orders, orders[1:]):
            if b % a != 0:
                raise UsageError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @property
    def exponent(self) -> int:
        return self.cyclic_orders[-1] if self.cyclic_orders else 1

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(n) for n in self.cyclic_orders)))

    def add(self, g, h) -> tuple[int, ...]:
        return tuple((a + b) % n for a, b, n in zip(g, h, self.cyclic_orders))

    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.cyclic_orders)

    def element_order(self, g) -> int:
        return lcm(*(n // gcd(n, a) for a, n in zip(g, self.cyclic_orders)))

    def __str__(self) -> str:
        return _product_label(self.cyclic_orders)
