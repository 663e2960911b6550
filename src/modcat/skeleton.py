"""Finite skeletons of semisimple 2-categories.

A skeleton is the combinatorial shadow of such a 2-category: a list of simple
objects and the symmetric "some nonzero 1-morphism exists" relation.  The
composite of nonzero 1-morphisms between simples is nonzero, so after
validation the relation is an equivalence relation and its classes are the
connected components; pi0 is their partition.  A family generator produces
truncations of the standard infinite family over a prime field, whose
component count stays at one while the number of simples grows with the
truncation depth: the compact-but-not-finite signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import fieldprofile, fields, pointed
from .errors import SizeGuardExceeded, UsageError, ValidationError

# validate_skeleton's Schur check makes depth^3 steps on a family truncation;
# admits depth 256 (16,777,216): about 1.2 s end to end from the CLI
FAMILY_SIZE_GUARD = 256 ** 3


class AsymmetricHom(ValidationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"hom_nonzero({i},{j}) != hom_nonzero({j},{i})")
        self.indices = (i, j)


class SchurViolation(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(
            f"hom_nonzero({i},{j}) and hom_nonzero({j},{k}) but not hom_nonzero({i},{k})")
        self.indices = (i, j, k)


class ZeroIdentity(ValidationError):
    def __init__(self, i: int):
        super().__init__(f"hom_nonzero({i},{i}) is false, but identities are nonzero")
        self.index = i


class IndexOutOfRange(ValidationError):
    def __init__(self, index: int, count: int):
        super().__init__(f"simple index {index} out of range for {count} simples")


@dataclass(frozen=True)
class TwoCatSkeleton:
    """Simple-object labels plus the nonzero-Hom relation.

    ``hom_dims`` optionally counts simple 1-morphisms, ``end_rings``
    optionally attaches the based ring of each endomorphism category, and
    ``max_end_dim`` carries the per-simple endomorphism dimension bound used
    by the truncated families.
    """

    simples: tuple[str, ...]
    hom_nonzero: tuple[tuple[bool, ...], ...]
    hom_dims: tuple[tuple[int, ...], ...] | None = None
    max_end_dim: tuple[int, ...] | None = None
    end_rings: tuple | None = None  # optional per-simple BasedRingData

    @classmethod
    def build(cls, simples, hom_nonzero, hom_dims=None, max_end_dim=None,
              end_rings=None) -> "TwoCatSkeleton":
        return cls(simples=tuple(simples),
                   hom_nonzero=tuple(tuple(bool(x) for x in row) for row in hom_nonzero),
                   hom_dims=tuple(tuple(row) for row in hom_dims) if hom_dims is not None else None,
                   max_end_dim=tuple(max_end_dim) if max_end_dim is not None else None,
                   end_rings=tuple(end_rings) if end_rings is not None else None)


class ValidatedSkeleton:
    def __init__(self, data: TwoCatSkeleton):
        self.data = data
        self.simples = data.simples
        self.hom_nonzero = data.hom_nonzero

    @property
    def size(self) -> int:
        return len(self.simples)

    def __repr__(self) -> str:
        return f"ValidatedSkeleton({list(self.simples)})"


def validate_skeleton(data: TwoCatSkeleton) -> ValidatedSkeleton:
    """Check reflexivity, symmetry and composability of the hom relation."""
    n = len(data.simples)
    if len(data.hom_nonzero) != n or any(len(row) != n for row in data.hom_nonzero):
        raise ValidationError("hom_nonzero must be simples x simples")
    for optional in (data.hom_dims, data.max_end_dim, data.end_rings):
        if optional is not None and len(optional) != n:
            raise ValidationError("optional per-simple data must match the simples")
    h = data.hom_nonzero
    for i in range(n):
        if not h[i][i]:
            raise ZeroIdentity(i)
    for i in range(n):
        for j in range(n):
            if h[i][j] != h[j][i]:
                raise AsymmetricHom(i, j)
    for i in range(n):
        for j in range(n):
            if not h[i][j]:
                continue
            for k in range(n):
                if h[j][k] and not h[i][k]:
                    raise SchurViolation(i, j, k)
    return ValidatedSkeleton(data)


def pi0(skeleton: ValidatedSkeleton) -> list[list[int]]:
    """Connected components of simples, each sorted, ordered by least member."""
    n = skeleton.size
    h = skeleton.hom_nonzero
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if h[i][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    return components


@dataclass(frozen=True)
class CompactnessReport:
    num_components: int
    num_simples: int
    is_connected: bool


def compactness_report(skeleton: ValidatedSkeleton) -> CompactnessReport:
    components = pi0(skeleton)
    return CompactnessReport(num_components=len(components),
                             num_simples=skeleton.size,
                             is_connected=len(components) == 1)


def truncated_family_2vect_fp(p: int, depth: int) -> ValidatedSkeleton:
    """Truncation of the module family over the prime field F_p.

    Simples are labelled by the field extensions of degrees 1..depth, all
    pairwise connected; hom_dims(q, r) = gcd(q, r) counts the simple
    1-morphism summands, and max_end_dim grows linearly along the family.
    Raises UsageError unless p is prime and depth positive, and
    SizeGuardExceeded when depth^3 exceeds FAMILY_SIZE_GUARD or p exceeds
    the primality test's PRIME_TEST_GUARD.
    """
    if not fields._is_prime(p):
        raise UsageError(f"{p} is not prime")
    if depth < 1:
        raise UsageError("depth must be positive")
    if depth ** 3 > FAMILY_SIZE_GUARD:
        raise SizeGuardExceeded(depth ** 3, FAMILY_SIZE_GUARD)
    simples = [f"Vect(F_{p}^{q})" if q > 1 else f"Vect(F_{p})" for q in range(1, depth + 1)]
    hom = [[True] * depth for _ in range(depth)]
    dims = [[gcd(q, r) for r in range(1, depth + 1)] for q in range(1, depth + 1)]
    ends = [q for q in range(1, depth + 1)]
    return validate_skeleton(TwoCatSkeleton.build(simples, hom, dims, ends))


def mod_real_skeleton() -> ValidatedSkeleton:
    """Skeleton of module categories over a real closed field: three simples,
    all connected."""
    simples = ["Vect(R)", "Vect(C)", "Vect(H)"]
    hom = [[True] * 3 for _ in range(3)]
    return validate_skeleton(TwoCatSkeleton.build(simples, hom))


def mod_pointed_skeleton(p: int, char: int = 0) -> ValidatedSkeleton:
    """Skeleton of separable module categories over Z/p-graded vector spaces.

    In characteristic zero there are two simples (the regular one and the
    trivially-acted one); in characteristic p only the regular one survives
    the separability requirement.  All simples are connected.
    """
    classes = [c for c in pointed.module_classes(pointed.FiniteAbelianGroup((p,)),
                                                 fieldprofile.alg_closed(char))
               if c.separable]
    simples = [c.label for c in classes]
    hom = [[True] * len(simples) for _ in range(len(simples))]
    return validate_skeleton(TwoCatSkeleton.build(simples, hom))


def decompose_object(skeleton: ValidatedSkeleton, expression) -> list[tuple[int, int]]:
    """Normalize a multiset of (simple index, multiplicity) pairs.

    Decomposition into simples is unique up to permutation, so the canonical
    form is the index-sorted, multiplicity-merged multiset.  The empty
    expression is the zero object and is allowed.
    """
    counts: dict[int, int] = {}
    for index, mult in expression:
        if not (0 <= index < skeleton.size):
            raise IndexOutOfRange(index, skeleton.size)
        if mult <= 0:
            raise ValidationError("multiplicities must be positive")
        counts[index] = counts.get(index, 0) + mult
    return sorted(counts.items())
