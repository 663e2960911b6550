"""Rings with a distinguished non-negative integer basis.

A based-ring datum is a basis {b_0, ..., b_{r-1}}, structure constants
c[i][j][k] >= 0 with b_i b_j = sum_k c[i][j][k] b_k, and unit coordinates
a[i] >= 0 with 1 = sum_i a[i] b_i.  Validation checks associativity and the
two-sided unit law exhaustively.

tau is the linear functional summing an element's coordinates over the unit
support I0 = {i : a[i] != 0}.  A weak-based certificate records a basis
involution i -> i* that is an anti-automorphism and satisfies

    tau(b_i b_j) = t_i > 0 if j = i*, and 0 otherwise.

The tau condition pins the involution pointwise (i* must be the unique j
with tau(b_i b_j) > 0), so a ring admits at most one certificate; the search
verifies the remaining axioms and reports it, or reports none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field
from math import factorial

from .errors import GuardError, SizeGuardExceeded, ValidationError

EXHAUSTIVE_RANK_LIMIT = 12
# canonical_form builds an r + r^3 key for each of the r! permutations;
# admits rank 8 (20,966,400): about 3.2 s on a group ring of order 8
CANONICAL_FORM_GUARD = 20_966_400


class NotAssociative(ValidationError):
    def __init__(self, i: int, j: int, k: int, l: int):
        super().__init__(
            f"associativity fails: coefficient of b_{l} in (b_{i} b_{j}) b_{k} differs")
        self.indices = (i, j, k, l)


class UnitLawFails(ValidationError):
    def __init__(self, i: int):
        super().__init__(f"unit element does not act as identity on b_{i}")
        self.index = i


class NegativeConstant(ValidationError):
    def __init__(self, where: str):
        super().__init__(f"negative integer in {where}")


class RankTooLargeForExhaustiveSearch(GuardError):
    def __init__(self, rank: int):
        super().__init__(f"rank {rank} exceeds the exhaustive-search limit {EXHAUSTIVE_RANK_LIMIT}")


@dataclass(frozen=True)
class BasedRingData:
    """Raw ring datum; validate with :func:`validate_zplus_ring`."""

    rank: int
    labels: tuple[str, ...]
    mult: tuple  # rank x rank x rank nested tuples of non-negative ints
    unit_coeffs: tuple[int, ...]
    involution: tuple[int, ...] | None = None

    @classmethod
    def build(cls, labels, mult, unit_coeffs, involution=None) -> "BasedRingData":
        labels = tuple(labels)
        mult = tuple(tuple(tuple(row) for row in plane) for plane in mult)
        return cls(rank=len(labels), labels=labels, mult=mult,
                   unit_coeffs=tuple(unit_coeffs),
                   involution=tuple(involution) if involution is not None else None)


class ValidatedRing:
    """A based-ring datum whose axioms have been checked."""

    def __init__(self, data: BasedRingData):
        self.data = data
        self.rank = data.rank
        self.mult = data.mult
        self.unit_coeffs = data.unit_coeffs
        self.labels = data.labels
        self.i0 = frozenset(i for i, a in enumerate(data.unit_coeffs) if a != 0)

    def basis_product(self, i: int, j: int) -> tuple[int, ...]:
        return self.mult[i][j]

    def product(self, x, y) -> list[int]:
        out = [0] * self.rank
        for i, xi in enumerate(x):
            if xi == 0:
                continue
            for j, yj in enumerate(y):
                if yj == 0:
                    continue
                c = xi * yj
                for k, m in enumerate(self.mult[i][j]):
                    if m:
                        out[k] += c * m
        return out

    def __repr__(self) -> str:
        return f"ValidatedRing(rank={self.rank}, labels={list(self.labels)})"


def validate_zplus_ring(data: BasedRingData) -> ValidatedRing:
    """Check non-negativity, associativity and the unit law; raise on failure."""
    r = data.rank
    if len(data.labels) != r or len(data.unit_coeffs) != r:
        raise ValidationError("labels/unit_coeffs length must equal rank")
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if data.mult[i][j][k] < 0:
                    raise NegativeConstant(f"mult[{i}][{j}][{k}]")
    for a in data.unit_coeffs:
        if a < 0:
            raise NegativeConstant("unit_coeffs")
    if data.involution is not None:
        if sorted(data.involution) != list(range(r)):
            raise ValidationError("involution is not a permutation")
        for i in range(r):
            if data.involution[data.involution[i]] != i:
                raise ValidationError(f"involution is not self-inverse at {i}")

    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    left = sum(data.mult[i][j][m] * data.mult[m][k][l] for m in range(r))
                    right = sum(data.mult[j][k][m] * data.mult[i][m][l] for m in range(r))
                    if left != right:
                        raise NotAssociative(i, j, k, l)

    ring = ValidatedRing(data)
    unit = list(data.unit_coeffs)
    for i in range(r):
        e = [1 if t == i else 0 for t in range(r)]
        if ring.product(unit, e) != e or ring.product(e, unit) != e:
            raise UnitLawFails(i)
    return ring


def tau(ring: ValidatedRing, element) -> int:
    """Sum of the element's coordinates over the unit support I0."""
    if len(element) != ring.rank:
        raise ValueError("element length must equal rank")
    return sum(element[i] for i in ring.i0)


@dataclass(frozen=True)
class WeakBasedCertificate:
    """Witness that a validated ring is weak based."""

    ring: ValidatedRing
    involution: tuple[int, ...]
    t_values: tuple[int, ...]
    i0_set: frozenset[int]
    based: bool = dataclass_field(init=False, default=False)

    def __post_init__(self):
        object.__setattr__(self, "based", all(t == 1 for t in self.t_values))

    @property
    def rank(self) -> int:
        return self.ring.rank


def _involution_is_antiautomorphism(ring: ValidatedRing, sigma: tuple[int, ...]) -> bool:
    # (b_i b_j)* = b_j* b_i*, i.e. c[i][j][k] == c[sigma(j)][sigma(i)][sigma(k)]
    r = ring.rank
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if ring.mult[i][j][k] != ring.mult[sigma[j]][sigma[i]][sigma[k]]:
                    return False
    return True


def find_weak_based_involutions(ring: ValidatedRing) -> list[WeakBasedCertificate]:
    """Every involution making the ring weak based (at most one can exist).

    The tau condition forces i* to be the unique j with tau(b_i b_j) > 0;
    the candidate map is then checked to be an involutive anti-automorphism.
    """
    r = ring.rank
    if r > EXHAUSTIVE_RANK_LIMIT:
        raise RankTooLargeForExhaustiveSearch(r)
    sigma = []
    t_values = []
    for i in range(r):
        hits = [(j, tau(ring, ring.basis_product(i, j))) for j in range(r)]
        positive = [(j, t) for j, t in hits if t > 0]
        if len(positive) != 1:
            return []
        j, t = positive[0]
        sigma.append(j)
        t_values.append(t)
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(r)):
        return []
    if any(sigma[sigma[i]] != i for i in range(r)):
        return []
    if not _involution_is_antiautomorphism(ring, sigma):
        return []
    data = BasedRingData.build(ring.labels, ring.mult, ring.unit_coeffs, sigma)
    certified = ValidatedRing(data)
    return [WeakBasedCertificate(ring=certified, involution=sigma,
                                 t_values=tuple(t_values), i0_set=ring.i0)]


def group_ring(orders: list[int]) -> BasedRingData:
    """Integral group ring of the direct sum of cyclic groups Z/n_i.

    Basis elements are the group elements in lexicographic coordinate order,
    the involution is g -> g^{-1} and the unit is the identity element.
    """
    if not orders:
        raise ValueError("orders must be non-empty")
    if any(n < 1 for n in orders):
        raise ValueError("orders must be positive")
    elements = list(itertools.product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elements)}
    rank = len(elements)

    def add(g, h):
        return tuple((a + b) % n for a, b, n in zip(g, h, orders))

    def neg(g):
        return tuple((-a) % n for a, n in zip(g, orders))

    mult = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for i, g in enumerate(elements):
        for j, h in enumerate(elements):
            mult[i][j][index[add(g, h)]] = 1
    unit = [0] * rank
    unit[index[tuple(0 for _ in orders)]] = 1
    involution = [index[neg(g)] for g in elements]

    def label(g):
        if len(orders) == 1:
            a = g[0]
            return "e" if a == 0 else ("g" if a == 1 else f"g^{a}")
        return "(" + ",".join(str(a) for a in g) + ")"

    return BasedRingData.build([label(g) for g in elements], mult, unit, involution)


def trivial_ring() -> BasedRingData:
    """The based ring Z with a single basis element 1."""
    return BasedRingData.build(["1"], [[[1]]], [1], [0])


def fibonacci_ring() -> BasedRingData:
    """Rank-2 ring with b^2 = 1 + b."""
    return BasedRingData.build(
        ["1", "b"],
        [[[1, 0], [0, 1]], [[0, 1], [1, 1]]],
        [1, 0],
        [0, 1])


def canonical_form(ring: ValidatedRing) -> tuple:
    """Canonical key of the ring up to basis permutation.

    Minimizes (unit_coeffs, mult) lexicographically over all basis
    permutations; every permutation preserves the unit-support multiset, and
    putting the unit coordinates first normalizes their position.  Raises
    SizeGuardExceeded when r! * (r + r^3), the key entries built, exceeds
    CANONICAL_FORM_GUARD.
    """
    r = ring.rank
    size = factorial(r) * (r + r ** 3)
    if size > CANONICAL_FORM_GUARD:
        raise SizeGuardExceeded(size, CANONICAL_FORM_GUARD)
    best = None
    unit = ring.unit_coeffs
    for perm in itertools.permutations(range(r)):
        # perm maps old index -> new position; build the relabelled tables
        inv = [0] * r
        for old, new in enumerate(perm):
            inv[new] = old
        unit_key = tuple(unit[inv[i]] for i in range(r))
        mult_key = tuple(ring.mult[inv[i]][inv[j]][inv[k]]
                         for i in range(r) for j in range(r) for k in range(r))
        key = (unit_key, mult_key)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def rings_equivalent(a: ValidatedRing, b: ValidatedRing) -> bool:
    """Equality up to basis permutation."""
    if a.rank != b.rank:
        return False
    return canonical_form(a) == canonical_form(b)
