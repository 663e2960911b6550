"""Module-class bookkeeping over pointed categories of a finite abelian group.

Over an algebraically closed field, indecomposable module categories over
G-graded vector spaces are indexed by a subgroup H of G together with a class
in H^2(H; k*).  For abelian H that cohomology group is the exterior square
with the p-torsion removed in characteristic p:

    H^2(H; k*) = sum_{i<j} Z/gcd(n_i, n_j)   (p-parts dropped when char = p)

where the n_i are cyclic factors of H.  Such a module class is separable
exactly when the characteristic does not divide |H| (the twisted group
algebra is then separable); the criterion is applied uniformly, and the test
suite confirms it against an explicit cocycle count for small groups.

Subgroups are enumerated by coset extension.  The guards count the work
done: the elements that :func:`subgroups` visits or adds, and the classes
that :func:`module_classes` would build.

Over the rationals the group H^2(Z/2; Q*) is the square-class group of Q,
which is infinite; :func:`square_class_witnesses` produces explicit pairwise
distinct witnesses instead of a class list.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd, lcm, prod

from . import fields
from .errors import ModcatError, SizeGuardExceeded, UsageError, record
from .fieldprofile import FieldKind, FieldProfile

# 3% above the boundary cases of `pointed classes`, end to end (Python 3.11,
# 2-CPU host): Z/2^3 x Z/4 x Z/8 does 1,322,269 units of subgroup work in 2 s;
# (Z/2)^6, the slowest admitted run, prints 151,470 classes (37 MB) in 3.1-4.7 s
SUBGROUP_WORK_BUDGET = 1_362_000
MODULE_CLASS_GUARD = 156_000
# squareclasses at this bound, the boundary case, takes about 0.8 s and 97 MB
# end to end and prints 7.2 MB of JSON (Python 3.11, 2-CPU host)
SQUARE_CLASS_GUARD = 10 ** 6


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


class UnsupportedFieldGroupPair(ModcatError):
    pass


class UnsupportedField(ModcatError):
    pass


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


@record
class Subgroup:
    """A subgroup given by its elements in ambient coordinates."""

    ambient: FiniteAbelianGroup
    elements: tuple[tuple[int, ...], ...]
    invariant_factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return _product_label(self.invariant_factors)


def _invariant_factors_of(group: FiniteAbelianGroup, elements) -> tuple[int, ...]:
    """Invariant factors of a subgroup, from its order-dividing counts.

    H = Z/e + H' for e the exponent of H, so #{x : mx = 0} is gcd(m, e) times
    the same count in H', and the exponent of H' is the least divisor m of e
    whose count in H' is |H'|.
    """
    orders = Counter(group.element_order(x) for x in elements)
    exponent = max(orders)
    divisors = [m for m in range(1, exponent + 1) if exponent % m == 0]
    counts = {m: sum(c for o, c in orders.items() if m % o == 0) for m in divisors}
    factors, size = [], len(elements)
    while size > 1:
        factor = next(m for m in divisors if counts[m] == size)
        factors.append(factor)
        size //= factor
        counts = {m: c // gcd(m, factor) for m, c in counts.items()}
    return tuple(reversed(factors))


def subgroups(group: FiniteAbelianGroup) -> list[Subgroup]:
    """All subgroups, canonically ordered by (order, sorted element list).

    Each subgroup H found is extended by one element x from each coset of H
    not yet tried: H + <x> is the union of the cosets kx + H up to the first
    one that is H again, and the cosets kx + H with k prime to their number
    give the same extension, so they are marked tried as well.  The work, |G|
    up front and then 1 per element visited or added, is checked after every
    charge: SizeGuardExceeded as soon as it passes SUBGROUP_WORK_BUDGET.
    """
    work = group.order
    if work > SUBGROUP_WORK_BUDGET:
        raise SizeGuardExceeded(work, SUBGROUP_WORK_BUDGET)
    all_elements = group.elements()
    add = group.add
    found = {frozenset([group.zero()])}
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        tried = set(current)
        for x in all_elements:
            work += 1
            if work > SUBGROUP_WORK_BUDGET:
                raise SizeGuardExceeded(work, SUBGROUP_WORK_BUDGET)
            if x in tried:
                continue
            cosets = []
            y = x
            while y not in current:
                cosets.append([add(y, a) for a in current])
                work += len(current)
                if work > SUBGROUP_WORK_BUDGET:
                    raise SizeGuardExceeded(work, SUBGROUP_WORK_BUDGET)
                y = add(y, x)
            for k, coset in enumerate(cosets, 1):
                if gcd(k, len(cosets) + 1) == 1:
                    tried.update(coset)
            bigger = current.union(*cosets)
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    result = [Subgroup(ambient=group, elements=tuple(sorted(elements)),
                       invariant_factors=_invariant_factors_of(group, elements))
              for elements in found]
    result.sort(key=lambda s: (s.order, s.elements))
    return result


@record
class H2Descriptor:
    """Isomorphism type of H^2(H; k*): a finite abelian group or an infinite
    marker for the rational square-class case."""

    cyclic_orders: tuple[int, ...]
    infinite: bool = False

    @property
    def order(self) -> int:
        if self.infinite:
            raise ValueError("infinite group has no order")
        return prod(self.cyclic_orders) if self.cyclic_orders else 1

    @property
    def label(self) -> str:
        if self.infinite:
            return "INFINITE_SQUARE_CLASS_GROUP"
        return _product_label(self.cyclic_orders)


def _strip_p_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def h2_of_abelian(group, field: FieldProfile) -> H2Descriptor:
    """H^2(H; k*) for H a finite abelian group.

    ``group`` may be a FiniteAbelianGroup, a Subgroup, or a plain tuple of
    cyclic orders.  Over an algebraically closed field the answer is the
    exterior square of H, with p-torsion removed in characteristic p since
    k* then has no p-torsion.  The only supported non-closed case is H = Z/2
    over the rationals, where the group is the infinite square-class group.
    """
    if isinstance(group, FiniteAbelianGroup):
        orders = group.cyclic_orders
    elif isinstance(group, Subgroup):
        orders = group.invariant_factors
    else:
        orders = tuple(int(n) for n in group)
    if field.kind == FieldKind.ALG_CLOSED:
        parts = []
        for i in range(len(orders)):
            for j in range(i + 1, len(orders)):
                g = gcd(orders[i], orders[j])
                if field.char:
                    g = _strip_p_part(g, field.char)
                if g > 1:
                    parts.append(g)
        return H2Descriptor(cyclic_orders=tuple(sorted(parts)))
    if field.kind == FieldKind.RATIONALS and orders == (2,):
        return H2Descriptor(cyclic_orders=(), infinite=True)
    raise UnsupportedFieldGroupPair(
        f"H^2 is only computed over algebraically closed fields, or for Z/2 over Q "
        f"(got {field.code} with orders {orders})")


@record
class ModuleClass:
    """One indecomposable module class: a subgroup plus a cohomology class."""

    subgroup: Subgroup
    cocycle_class_index: int
    separable: bool

    @property
    def label(self) -> str:
        ambient = self.subgroup.ambient
        if self.subgroup.order == 1:
            base = f"Vect({ambient})"
        elif self.subgroup.order == ambient.order:
            base = "Vect"
        else:
            base = f"Mod[H={self.subgroup}]"
        if self.cocycle_class_index:
            base += f"(psi_{self.cocycle_class_index})"
        return base


def module_classes(group: FiniteAbelianGroup, field: FieldProfile) -> list[ModuleClass]:
    """All (subgroup, cohomology class) pairs with their separability flags;
    SizeGuardExceeded, before any is built, above MODULE_CLASS_GUARD of them."""
    if field.kind != FieldKind.ALG_CLOSED:
        raise UnsupportedField(
            f"module classes are computed over algebraically closed fields, got {field.code}")
    subs = subgroups(group)
    h2_orders = [h2_of_abelian(sub.invariant_factors, field).order for sub in subs]
    if sum(h2_orders) > MODULE_CLASS_GUARD:
        raise SizeGuardExceeded(sum(h2_orders), MODULE_CLASS_GUARD)
    return [ModuleClass(subgroup=sub, cocycle_class_index=index,
                        separable=field.char == 0 or sub.order % field.char != 0)
            for sub, h2_order in zip(subs, h2_orders) for index in range(h2_order)]


@record
class PointedCatData:
    """Carrier for a pointed category datum: a finite abelian grading group,
    an associator class tag, and an optional braiding parameter.

    The associator is tracked as an opaque tag only; the class enumeration
    below is for the untwisted case, and a nonzero tag refuses it rather
    than silently ignoring the twist.
    """

    group: FiniteAbelianGroup
    cocycle_tag: int = 0
    braiding: "BraidingParam | None" = None

    def module_classes(self, field: FieldProfile) -> "list[ModuleClass]":
        if self.cocycle_tag != 0:
            raise UnsupportedFieldGroupPair(
                "module classes are enumerated for the trivial associator class only")
        return module_classes(self.group, field)


@record
class BraidingParam:
    """A braiding on Z/p-graded vector spaces: a p-th root of unity zeta^e."""

    p: int
    zeta_exponent: int

    def __post_init__(self):
        if not (0 <= self.zeta_exponent < self.p):
            raise UsageError("zeta exponent must lie in [0, p)")


def braidings_on_cyclic(p: int, field: FieldProfile) -> list[BraidingParam]:
    """All braidings on Z/p-graded vector spaces over the given closed field.

    Away from the characteristic there are p of them, one per p-th root of
    unity; in characteristic p the only p-th root of unity is 1.  p must be
    prime (UsageError).
    """
    if not fields._is_prime(p):
        raise UsageError(f"{p} is not prime")
    if field.kind != FieldKind.ALG_CLOSED:
        raise UnsupportedField("braidings are enumerated over algebraically closed fields")
    if field.char == p:
        return [BraidingParam(p, 0)]
    return [BraidingParam(p, e) for e in range(p)]


def square_class_witnesses(bound: int) -> list[int]:
    """Squarefree integers up to the bound: distinct square classes of Q*.

    Any two distinct squarefree integers have a non-square ratio, so the list
    witnesses pairwise inequivalent classes and grows without bound.  A sieve
    strikes out the multiples of each square d^2 <= bound; SizeGuardExceeded
    above SQUARE_CLASS_GUARD.
    """
    if bound < 1:
        raise UsageError("bound must be positive")
    if bound > SQUARE_CLASS_GUARD:
        raise SizeGuardExceeded(bound, SQUARE_CLASS_GUARD)
    squarefree = [True] * (bound + 1)
    d = 2
    while d * d <= bound:
        squarefree[d * d::d * d] = [False] * (bound // (d * d))
        d += 1
    return [n for n in range(1, bound + 1) if squarefree[n]]
