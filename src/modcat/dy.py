"""Deformation cochain complex of a pointed tensor functor, exactly.

For a functor between pointed categories all simples are invertible with
scalar endomorphisms, so a natural endotransformation of the n-fold tensor
assigns one scalar to each n-tuple of group elements: the n-cochains are the
functions G^n -> k, of dimension |G|^n, and the differential reads

    (d f)(g_0, ..., g_n) = f(g_1, ..., g_n)
                         + sum_{i=1..n} (-1)^i f(g_0, ..., g_{i-1} g_i, ..., g_n)
                         + (-1)^{n+1} f(g_0, ..., g_{n-1}).

Only the normalized cochains N, zero when some g_i is the identity, are built
face by face.  N and C are homotopy equivalent over Z (Brown, Cohomology of
Groups, I.5), so Q = C/N is split exact: in a basis of Q^n that starts with
the image of d^{n-1}, d^n is a partial identity after N's rows and columns.

The differentials have integer entries whatever the coefficient field, so
each d^n is built once as sparse integer rows, at most n + 2 nonzero entries
per row, and d of d = 0 is checked once, over Z, on construction; that holds
in every field.  Cohomology dimensions come from exact ranks,
dim H^n = dim ker d^n - rank d^{n-1}, and the rank of an integer matrix over
k depends only on the characteristic of k, so Q(zeta_n) costs what Q costs:
``linalg.rank`` works on the ints (over F_2 on rows packed into ints).  As
im d^{n-1} lies in ker d^n, rank d^n is at most |G|^n - rank d^{n-1}, with
equality exactly when H^n = 0 (over Q, or over F_p with p not dividing |G|);
``rank`` stops there, and the dependent rows left over are never reduced.
The matrices over k itself are made only when their entries are read.

The matrices depend only on the source group multiplication, never on where
the functor sends things, so the certified scope is untwisted pointed data;
associator corrections for twisted gradings are deliberately out of scope.
"""

from __future__ import annotations

import itertools

from .errors import SizeGuardExceeded, UsageError, ValidationError, record
from .fields import Field
from .linalg import Matrix, rank
from .pointed import FiniteAbelianGroup, add_table

# Charged one degree at a time, |G|^(n+1) rows times n + 2 for degree n: the
# nonzero entries of the full integer differentials, a bound on the entries
# built.  Elimination works on those and their fill-in, and the leftover block
# it hands to the prime field is made of rows of the differentials, so the count
# bounds it too.  A refusal, before anything is built, reports the sum at the
# first degree that passes the guard, so a huge n_max costs a few degrees.
# The boundary case, Z/15 at n_max 4 (267,330), takes about 2 s and 65 MB over
# F_5 on one core of a 2-CPU host; order 16 at n_max 4 (344,864) and Z/2 at
# n_max 14 (458,752) are refused.
SIZE_GUARD = 267_330


class ComplexNotValid(ValidationError):
    def __init__(self, n: int):
        super().__init__(f"d^{n + 1} after d^{n} is not zero")
        self.degree = n


class ComplexShapeMismatch(ValidationError):
    def __init__(self, n: int, detail: str):
        super().__init__(f"degree {n}: {detail}")
        self.degree = n


@record
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
            if len(image) != len(self.target.cyclic_orders):
                raise ValidationError(f"image {image} has the wrong number of coordinates")
            if any(gen_order * x % n for x, n in zip(image, self.target.cyclic_orders)):
                raise ValidationError(
                    f"homomorphism not well defined: image {image} of a generator "
                    f"of order {gen_order} does not have dividing order")


@record
class DYComplex:
    """Differentials up to degree n_max, checked for their shapes and d of d = 0."""

    n_max: int
    cochain_dims: tuple[int, ...]
    deltas: tuple[Matrix, ...]  # deltas[n]: C^n -> C^{n+1}, |G|^{n+1} x |G|^n

    def __post_init__(self):
        # the laws below and the rank bound in dy_cohomology_dims read these shapes
        for what, count, want in (("differentials", len(self.deltas), self.n_max),
                                  ("cochain dimensions", len(self.cochain_dims), self.n_max + 1)):
            if count != want:
                raise ComplexShapeMismatch(min(count, want), f"{count} {what} for n_max {self.n_max}")
        for n, delta in enumerate(self.deltas):
            if (delta.nrows, delta.ncols) != (self.cochain_dims[n + 1], self.cochain_dims[n]):
                raise ComplexShapeMismatch(n, f"d^{n} is {delta.nrows}x{delta.ncols}, not "
                                              f"{self.cochain_dims[n + 1]}x{self.cochain_dims[n]}")
        # d^{n+1} d^n is composed on the integer rows where both matrices
        # carry them, as built ones do, which checks it over Z and so over
        # every field; other matrices are composed in their field
        for n in range(self.n_max - 1):
            outer, inner = self.deltas[n + 1], self.deltas[n]
            if outer.int_rows is None or inner.int_rows is None:
                if not (outer * inner).is_zero():
                    raise ComplexNotValid(n)
                continue
            for row in outer.int_rows:
                acc: dict[int, int] = {}
                for mid, a in row.items():
                    for col, b in inner.int_rows[mid].items():
                        acc[col] = acc.get(col, 0) + a * b
                if any(acc.values()):
                    raise ComplexNotValid(n)


def _delta_rows(group: FiniteAbelianGroup, n: int) -> list[dict[int, int]]:
    """The rows of the normalized d^n over Z, as their nonzero entries.

    Row r is the (n+1)-tuple whose base-(|G|-1) digits index g_0, ..., g_n
    among the non-identity elements, and each face is an n-tuple indexed the
    same way: face i carries the sign (-1)^i, faces with g_{i-1} g_i = e drop
    out, faces that coincide are summed, and sums of 0 are dropped.
    """
    # sums of the non-identity elements, -1 for the identity; needed from degree 1 on
    add = [[s - 1 for s in row[1:]] for row in add_table(group.cyclic_orders)[1:]] if n else []
    order = group.order - 1
    # face i, 1 <= i <= n, puts the index of g_{i-1} g_i in place of digits
    # i-1 and i: the digits above move down one place, those below stay
    merges = [(order ** (n - i + 2), order ** (n - i + 1), order ** (n - i), (-1) ** i)
              for i in range(1, n + 1)]
    last_sign = (-1) ** (n + 1)
    cols = order ** n
    rows = []
    for r, digits in enumerate(itertools.product(range(order), repeat=n + 1)):
        terms = {r % cols: 1}
        for i, (above, shift, below, sign) in enumerate(merges, start=1):
            if (merged := add[digits[i - 1]][digits[i]]) >= 0:
                col = r // above * shift + merged * below + r % below
                terms[col] = terms.get(col, 0) + sign
        col = r // order
        terms[col] = terms.get(col, 0) + last_sign
        rows.append({c: v for c, v in terms.items() if v})
    return rows


def build_dy_complex(functor: PointedFunctorData, n_max: int) -> DYComplex:
    """Assemble the cochain complex up to degree n_max; construction checks
    d d = 0 over Z."""
    group = functor.source
    field = functor.field
    if n_max < 1:
        raise UsageError("n_max must be at least 1")
    size = 0
    for n in range(n_max):
        size += group.order ** (n + 1) * (n + 2)
        if size > SIZE_GUARD:
            raise SizeGuardExceeded(size, SIZE_GUARD)

    order, deltas, q = group.order, [], 0
    for n in range(n_max):
        # N's rows, then the complement of the image in Q^n, q = rank of d^n on Q
        first, q = (order - 1) ** n + q, order ** n - (order - 1) ** n - q
        rows = _delta_rows(group, n) + [{first + j: 1} for j in range(q)]
        rows += [{} for _ in range(order ** (n + 1) - len(rows))]
        deltas.append(Matrix.from_int_rows(field, rows, order ** n))
    dims = tuple(order ** n for n in range(n_max + 1))
    return DYComplex(n_max=n_max, cochain_dims=dims, deltas=tuple(deltas))


def dy_cohomology_dims(complex_: DYComplex) -> list[int]:
    """dim H^n for n = 0..n_max-1; the top degree is truncated away."""
    dims = []
    prev_rank = 0
    for n, delta in enumerate(complex_.deltas):
        # d d = 0 puts im d^{n-1} in ker d^n, so rank d^n <= ncols - rank d^{n-1}
        r = rank(delta, at_most=delta.ncols - prev_rank)
        kernel_dim = complex_.cochain_dims[n] - r
        dims.append(kernel_dim - prev_rank)
        prev_rank = r
    return dims


@record
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
