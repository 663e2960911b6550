"""Rings with a distinguished non-negative integer basis.

A based-ring datum is a basis {b_0, ..., b_{r-1}}, structure constants
c[i][j][k] >= 0 with b_i b_j = sum_k c[i][j][k] b_k, and unit coordinates
a[i] >= 0 with 1 = sum_i a[i] b_i.  The datum holds the dense table, the
input and file format; a validated ring keeps only the nonzero constants,
the dict {k: c} of b_i b_j per basis pair, the layout of the algebra layer's
``StructureConstantAlgebra``.  Validation checks associativity and the
two-sided unit law through the algebra layer's expansion over the nonzero
constants (``algebras.first_law_failure``), with associativity on the rows
of a nucleus generating set (``algebras.nucleus_generators``) only.

tau is the linear functional summing an element's coordinates over the unit
support I0 = {i : a[i] != 0}.  A weak-based certificate records a basis
involution i -> i* that is an anti-automorphism and satisfies

    tau(b_i b_j) = t_i > 0 if j = i*, and 0 otherwise.

The tau condition pins the involution pointwise (i* must be the unique j
with tau(b_i b_j) > 0), so a ring admits at most one certificate; the search
verifies the remaining axioms and reports it, or reports none.

Rings and modules are compared up to basis permutation by their least key
over all relabellings (``lex_min_key``), whose work is bounded by
``SEARCH_WORK_BUDGET``, the budget of the module and hom searches too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field

from . import pointed
from .algebras import first_law_failure, nucleus_generators
from .errors import SizeGuardExceeded, UsageError, ValidationError

# 3% above the largest admitted search, Z/2^3 -> Z/2^3 homs at 6,808,935 (see
# the zmodule docstring); each search and each canonical key counts from 0
SEARCH_WORK_BUDGET = 7_000_000


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
        """The datum of rank len(labels).  Raises UsageError unless labels are
        strings, mult is rank x rank x rank and every coefficient, unit and
        involution entry is an int (not a bool); lengths and signs are left
        to validation."""
        if not isinstance(labels, (list, tuple)) or not all(isinstance(x, str) for x in labels):
            raise UsageError(f"labels must be a list of strings, not {labels!r}")
        labels = tuple(labels)
        r = len(labels)
        if not _is_list(mult, r) or not all(
                _is_list(plane, r) and all(_is_list(cell, r) for cell in plane) for plane in mult):
            raise UsageError(f"mult must be {r} x {r} x {r} nested lists")
        mult = tuple(tuple(_ints(cell, f"mult[{i}][{j}]") for j, cell in enumerate(plane))
                     for i, plane in enumerate(mult))
        return cls(rank=r, labels=labels, mult=mult,
                   unit_coeffs=_ints(unit_coeffs, "unit"),
                   involution=_ints(involution, "involution") if involution is not None else None)


def _is_list(value, length: int) -> bool:
    return isinstance(value, (list, tuple)) and len(value) == length


def _ints(values, where: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)) or not all(
            isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise UsageError(f"{where} must be a list of ints, not {values!r}")
    return tuple(values)


class ValidatedRing:
    """A based-ring datum whose axioms have been checked.

    ``mult[i][j]`` is the dict {k: c} of the nonzero constants of b_i b_j,
    k ascending, as in ``StructureConstantAlgebra.mult``; the dense table
    stays in ``data.mult``."""

    def __init__(self, data: BasedRingData):
        self.data = data
        self.rank = data.rank
        self.mult = tuple(tuple({k: c for k, c in enumerate(cell) if c} for cell in plane)
                          for plane in data.mult)
        self.unit_coeffs = data.unit_coeffs
        self.labels = data.labels
        self.i0 = frozenset(i for i, a in enumerate(data.unit_coeffs) if a != 0)

    def basis_product(self, i: int, j: int) -> tuple[int, ...]:
        """The coordinates of b_i b_j, the dense cell of ``data.mult``."""
        return self.data.mult[i][j]

    def product(self, x, y) -> tuple[int, ...]:
        """The coordinates of x y, a tuple like ``unit_coeffs``, expanded over
        the nonzero coordinates of x and y and the nonzero constants of each
        of their basis products."""
        out = [0] * self.rank
        for i, xi in enumerate(x):
            if xi:
                row = self.mult[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, m in row[j].items():
                            out[k] += c * m
        return tuple(out)

    def __repr__(self) -> str:
        return f"ValidatedRing(rank={self.rank}, labels={list(self.labels)})"


def validate_zplus_ring(data: BasedRingData) -> ValidatedRing:
    """Check non-negativity, associativity and the unit law; raise on failure."""
    r = data.rank
    if r == 0:
        raise ValidationError("rank must be at least 1: the unit needs a nonempty support")
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

    ring = ValidatedRing(data)
    failure = first_law_failure(ring.mult, data.unit_coeffs, 1,
                                nucleus_generators(ring.mult, data.unit_coeffs))
    if failure is None:
        return ring
    indices, left, right = failure
    if len(indices) == 3:
        # the first coordinate where (b_i b_j) b_k and b_i (b_j b_k) differ
        raise NotAssociative(*indices, min(l for l in left.keys() | right.keys()
                                           if left.get(l) != right.get(l)))
    raise UnitLawFails(indices[0])


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
    # (b_i b_j)* = b_j* b_i*, i.e. c[i][j][k] == c[sigma(j)][sigma(i)][sigma(k)]:
    # the cell of b_i b_j relabelled by sigma is the cell of b_j* b_i*
    return all({sigma[k]: c for k, c in cell.items()} == ring.mult[sigma[j]][sigma[i]]
               for i, plane in enumerate(ring.mult) for j, cell in enumerate(plane))


def find_weak_based_involutions(ring: ValidatedRing) -> list[WeakBasedCertificate]:
    """Every involution making the ring weak based (at most one can exist).

    The tau condition forces i* to be the unique j with tau(b_i b_j) > 0;
    the candidate map is then checked to be an involutive anti-automorphism.
    """
    r = ring.rank
    sigma = []
    t_values = []
    for plane in ring.mult:
        # tau(b_i b_j) for each j, over the nonzero constants of b_i b_j
        hits = [(j, sum(c for k, c in cell.items() if k in ring.i0))
                for j, cell in enumerate(plane)]
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
    return [WeakBasedCertificate(ring=ring, involution=sigma,
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
    table = pointed.add_table(orders)
    rank = len(table)
    units = [tuple(int(k == s) for k in range(rank)) for s in range(rank)]
    mult = [[units[s] for s in row] for row in table]
    involution = [row.index(0) for row in table]

    def label(g):
        if len(orders) == 1:
            a = g[0]
            return "e" if a == 0 else ("g" if a == 1 else f"g^{a}")
        return "(" + ",".join(str(a) for a in g) + ")"

    labels = [label(g) for g in itertools.product(*(range(n) for n in orders))]
    return BasedRingData.build(labels, mult, units[0], involution)


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


def _relabelled_entries(blocks, perm):
    # perm lists the old index at each new position, the last index varies fastest
    for array, depth in blocks:
        values = map(array.__getitem__, perm)
        for _ in range(depth - 1):
            values = (v[i] for v in values for i in perm)
        yield from values


def lex_min_key(blocks, r: int) -> tuple:
    """The least concatenation of ``blocks``, (array, depth) pairs with
    arrays indexed by ``depth`` basis indices (a vector 1, a matrix 2, a
    structure-constant table 3), over simultaneous permutations of the rank-r
    basis.  A permutation's entries are compared with the best key so far one
    at a time, and the rest of its key is built only if one is smaller.
    Raises SizeGuardExceeded once the work, 1 per permutation plus 1 per
    entry compared or written, passes ``SEARCH_WORK_BUDGET``."""
    best, work = None, 0
    for perm in itertools.permutations(range(r)):
        entries = _relabelled_entries(blocks, perm)
        n = 0
        for old, value in zip(best or (), entries):  # best first: no entry is lost
            n += 1
            if value != old:
                if value < old:
                    best = best[:n - 1] + (value,) + tuple(entries)
                    work += len(best) - n
                break
        if best is None:
            best = tuple(entries)
            work += len(best)
        work += 1 + n
        if work > SEARCH_WORK_BUDGET:
            raise SizeGuardExceeded(work, SEARCH_WORK_BUDGET)
    return best


def canonical_form(ring: ValidatedRing) -> tuple:
    """Canonical key of the ring up to basis permutation.

    Minimizes (unit_coeffs, mult) lexicographically over all basis
    permutations by ``lex_min_key``; every permutation preserves the
    unit-support multiset, and putting the unit coordinates first normalizes
    their position.  Group rings of rank 8 take 0.8-1.0 million units of
    work, and rank 9 passes ``SEARCH_WORK_BUDGET``.
    """
    key = lex_min_key(((ring.unit_coeffs, 1), (ring.data.mult, 3)), ring.rank)
    return key[:ring.rank], key[ring.rank:]


def rings_equivalent(a: ValidatedRing, b: ValidatedRing) -> bool:
    """Equality up to basis permutation."""
    if a.rank != b.rank:
        return False
    return canonical_form(a) == canonical_form(b)
