"""Exact linear algebra over the coefficient fields.

Matrices store their field handle and a list of dense rows.  Elimination
works on the nonzero entries of each row only, so its cost follows the
nonzeros, not the shape.  Echelon forms follow one fixed convention so that
every output is canonical:

* the reduced row echelon (Gauss-Jordan) form: pivots are the leftmost
  nonzero entry of each row, normalized to 1, with zeros above and below
  them, and zero rows last.
* ``kernel_basis`` returns one vector per free column, carrying 1 in its free
  column, the negated reduced-echelon entries in the pivot columns, and 0 in
  the other free columns, ordered by free column index.
"""

from __future__ import annotations

from .fields import Field


class Matrix:
    """Matrix over an exact field, stored as dense rows.

    ``rref`` and everything built on it (``rank``, ``kernel_basis``,
    ``solve``) read only the nonzero entries, from :meth:`nonzero_rows`.
    """

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

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        zero = self.field.zero()
        cols = other.transpose().rows
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
        return Matrix(self.field, out, ncols=other.ncols)

    def transpose(self) -> "Matrix":
        cols = [list(c) for c in zip(*self.rows)] if self.rows else [[]] * self.ncols
        return Matrix(self.field, cols, ncols=self.nrows)

    def nonzero_rows(self) -> list[dict]:
        """Each row as the dict ``{column: entry}`` of its nonzero entries."""
        return [{j: c for j, c in enumerate(row) if c} for row in self.rows]

    def is_zero(self) -> bool:
        zero = self.field.zero()
        return all(a == zero for r in self.rows for a in r)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Each row, as its nonzero entries, is reduced against a basis of earlier
    rows kept in reduced form, one row per pivot column.  What is left, if
    anything, is scaled to 1 at its leftmost column, that column is cleared
    from the basis, and the row joins it.  The reduced form is unique, so the
    result is the Gauss-Jordan one: basis rows in pivot order, then zero rows.
    """
    field = m.field
    zero = field.zero()
    basis: dict[int, dict] = {}
    for row in m.nonzero_rows():
        # basis rows vanish at each other's pivots, so the row's own entries
        # at the pivot columns are the multiples to subtract
        for pc in [c for c in row if c in basis]:
            _subtract_multiple(row, row[pc], basis[pc], zero)
        if not row:
            continue
        pc = min(row)
        inv = field.one() / row[pc]
        row = {j: inv * v for j, v in row.items()}
        for other in basis.values():
            if pc in other:
                _subtract_multiple(other, other[pc], row, zero)
        basis[pc] = row
        if len(basis) == m.ncols:
            break
    pivots = sorted(basis)
    rows = [[basis[pc].get(j, zero) for j in range(m.ncols)] for pc in pivots]
    rows += [[zero] * m.ncols for _ in range(m.nrows - len(pivots))]
    return Matrix(field, rows, ncols=m.ncols), pivots


def _subtract_multiple(row: dict, factor, other: dict, zero) -> None:
    """row -= factor * other on the entries of other, dropping any that cancel."""
    for j, b in other.items():
        v = row.get(j, zero) - factor * b
        if v:
            row[j] = v
        else:
            del row[j]


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
