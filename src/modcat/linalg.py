"""Exact linear algebra over the coefficient fields.

Matrices store their field handle and a list of rows.  Echelon forms follow
one fixed convention so that every output is canonical:

* Gauss-Jordan with leftmost pivot selection, pivots normalized to 1.
* ``kernel_basis`` returns one vector per free column, carrying 1 in its free
  column, the negated reduced-echelon entries in the pivot columns, and 0 in
  the other free columns, ordered by free column index.
"""

from __future__ import annotations

from .fields import Field


class Matrix:
    """Dense matrix over an exact field."""

    def __init__(self, field: Field, rows, ncols: int | None = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero()
        return cls(field, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def __add__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other, same=True)
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._shape_check(other, same=True)
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        zero = self.field.zero()
        cols = list(zip(*other.rows)) if other.rows else []
        out = []
        for r in self.rows:
            row = []
            for c in cols:
                acc = zero
                for a, b in zip(r, c):
                    if a != zero and b != zero:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        if not cols:
            out = [[] for _ in self.rows]
        return Matrix(self.field, out)

    def transpose(self) -> "Matrix":
        if not self.rows:
            return Matrix(self.field, [])
        return Matrix(self.field, [list(c) for c in zip(*self.rows)])

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(a == zero for r in self.rows for a in r)

    def _shape_check(self, other: "Matrix", same: bool = False) -> None:
        if same and (self.nrows != other.nrows or self.ncols != other.ncols):
            raise ValueError("shape mismatch")


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    field = m.field
    zero = field.zero()
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.ncols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = field.one() / rows[pr][pc]
        rows[pr] = [inv * a for a in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][pc] != zero:
                factor = rows[r][pc]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    return Matrix(field, rows, ncols=m.ncols), pivots


def rank(m: Matrix) -> int:
    """Rank of the matrix over its exact field."""
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> list[list]:
    """Basis of the right kernel, one canonical vector per free column."""
    field = m.field
    zero, one = field.zero(), field.one()
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [zero] * m.ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = zero - reduced.rows[r][fc]
        basis.append(vec)
    return basis


def solve(m: Matrix, target: list) -> list | None:
    """One solution x of m x = target, or None if inconsistent.

    Free variables are set to zero, so the output is canonical.
    """
    field = m.field
    zero = field.zero()
    augmented = Matrix(field, [row + [t] for row, t in zip(m.rows, target)])
    reduced, pivots = rref(augmented)
    if m.ncols in pivots:
        return None
    x = [zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.rows[r][m.ncols]
    return x
