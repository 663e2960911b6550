"""Deformation cochain complex of a pointed tensor functor, exactly.

For a functor between pointed categories all simples are invertible with
scalar endomorphisms, so a natural endotransformation of the n-fold tensor
assigns one scalar to each n-tuple of group elements: the n-cochains are the
functions G^n -> k, of dimension |G|^n, and the differential reads

    (d f)(g_0, ..., g_n) = f(g_1, ..., g_n)
                         + sum_{i=1..n} (-1)^i f(g_0, ..., g_{i-1} g_i, ..., g_n)
                         + (-1)^{n+1} f(g_0, ..., g_{n-1}).

The differentials are assembled as exact matrices over the chosen coefficient
field and d of d = 0 is checked on construction.  Cohomology dimensions come
from exact rank computations: dim H^n = dim ker d^n - rank d^{n-1}.

The matrices depend only on the source group multiplication, never on where
the functor sends things, so the certified scope is untwisted pointed data;
associator corrections for twisted gradings are deliberately out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SizeGuardExceeded, ValidationError
from .fields import Field
from .linalg import Matrix, rank
from .pointed import FiniteAbelianGroup

SIZE_GUARD = 1_100_000  # admits Z/16 at n_max 3: about 2 s and 45 MB over Q
NMAX_GUARD = 4


class ComplexNotValid(ValidationError):
    def __init__(self, n: int):
        super().__init__(f"d^{n + 1} after d^{n} is not zero")
        self.degree = n


@dataclass(frozen=True)
class PointedFunctorData:
    """A homomorphism of grading groups with a coefficient field.

    The differential only involves the source multiplication, but the
    homomorphism must be well defined for the data to describe a functor.
    """

    source: FiniteAbelianGroup
    target: FiniteAbelianGroup
    hom: tuple[tuple[int, ...], ...]  # image of each source generator
    field: Field

    @classmethod
    def identity(cls, group: FiniteAbelianGroup, field: Field) -> "PointedFunctorData":
        gens = []
        for i in range(len(group.cyclic_orders)):
            gens.append(tuple(1 if j == i else 0 for j in range(len(group.cyclic_orders))))
        return cls(source=group, target=group, hom=tuple(gens), field=field)

    def __post_init__(self):
        if len(self.hom) != len(self.source.cyclic_orders):
            raise ValidationError("need one image per source generator")
        for gen_order, image in zip(self.source.cyclic_orders, self.hom):
            acc = self.target.zero()
            for _ in range(gen_order):
                acc = self.target.add(acc, tuple(image))
            if acc != self.target.zero():
                raise ValidationError(
                    f"homomorphism not well defined: image {image} of a generator "
                    f"of order {gen_order} does not have dividing order")


@dataclass(frozen=True)
class DYComplex:
    """Differentials up to degree n_max, checked to satisfy d of d = 0."""

    n_max: int
    cochain_dims: tuple[int, ...]
    deltas: tuple[Matrix, ...]  # deltas[n]: C^n -> C^{n+1}, |G|^{n+1} x |G|^n

    def __post_init__(self):
        # compose d^{n+1} d^n over the nonzero entries only
        sparse = [m.nonzero_rows() for m in self.deltas]
        for n in range(self.n_max - 1):
            zero = self.deltas[n].field.zero()
            for row in sparse[n + 1]:
                acc: dict = {}
                for mid, c1 in row.items():
                    for col, c2 in sparse[n][mid].items():
                        acc[col] = acc.get(col, zero) + c1 * c2
                if any(v != zero for v in acc.values()):
                    raise ComplexNotValid(n)


def _delta_entries(group: FiniteAbelianGroup, n: int):
    """Sparse description of d^n: for each (n+1)-tuple in turn, the signed terms."""
    elements = group.elements()
    col_index = {tpl: i for i, tpl in enumerate(itertools.product(elements, repeat=n))}
    for tpl in itertools.product(elements, repeat=n + 1):
        terms: dict[int, int] = {}

        def add(key, sign):
            col = col_index[key]
            terms[col] = terms.get(col, 0) + sign

        add(tpl[1:], 1)
        for i in range(1, n + 1):
            merged = tpl[:i - 1] + (group.add(tpl[i - 1], tpl[i]),) + tpl[i + 1:]
            add(merged, -1 if i % 2 else 1)
        add(tpl[:-1], -1 if (n + 1) % 2 else 1)
        yield terms


def build_dy_complex(functor: PointedFunctorData, n_max: int) -> DYComplex:
    """Assemble the cochain complex up to degree n_max; construction checks d d = 0."""
    group = functor.source
    field = functor.field
    if n_max < 1:
        raise ValidationError("n_max must be at least 1")
    if n_max > NMAX_GUARD:
        raise SizeGuardExceeded(n_max, NMAX_GUARD)
    # d^n is held as |G|^(n+1) dense rows of |G|^n entries, and each row's list
    # header takes the room of 7 entries: without it, n_max = 1 would admit
    # groups of order 10^6, a million rows of one entry each
    size = sum(group.order ** (n + 1) * (group.order ** n + 7) for n in range(n_max))
    if size > SIZE_GUARD:
        raise SizeGuardExceeded(size, SIZE_GUARD)

    zero = field.zero()
    deltas = []
    for n in range(n_max):
        ncols = group.order ** n
        dense = []
        for terms in _delta_entries(group, n):
            row = [zero] * ncols
            for col, c in terms.items():
                row[col] = field.from_int(c)
            dense.append(row)
        deltas.append(Matrix(field, dense))
    dims = tuple(group.order ** n for n in range(n_max + 1))
    return DYComplex(n_max=n_max, cochain_dims=dims, deltas=tuple(deltas))


def dy_cohomology_dims(complex_: DYComplex) -> list[int]:
    """dim H^n for n = 0..n_max-1; the top degree is truncated away."""
    dims = []
    prev_rank = 0
    for n in range(complex_.n_max):
        r = rank(complex_.deltas[n])
        kernel_dim = complex_.cochain_dims[n] - r
        dims.append(kernel_dim - prev_rank)
        prev_rank = r
    return dims


@dataclass(frozen=True)
class SeparabilityDiagnostic:
    h2_dim: int
    h3_dim: int
    consistent_with_separability: bool


def separability_diagnostic(group: FiniteAbelianGroup, field: Field) -> SeparabilityDiagnostic:
    """H^2 and H^3 of the identity functor; both vanish in the separable case."""
    functor = PointedFunctorData.identity(group, field)
    complex_ = build_dy_complex(functor, n_max=4)
    dims = dy_cohomology_dims(complex_)
    return SeparabilityDiagnostic(h2_dim=dims[2], h3_dim=dims[3],
                                  consistent_with_separability=dims[2] == 0 and dims[3] == 0)
