"""Exact linear algebra over the coefficient fields.

Matrices store their field handle and, for each row, the dict of its nonzero
entries, so every operation costs what the nonzeros cost, not the shape.
Echelon forms follow one fixed convention so that every output is canonical:

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
    """Matrix over an exact field, never mutated once built.

    ``rows[i]`` is the dict ``{column: entry}`` of the nonzero entries of row
    i, like a ``StructureConstantAlgebra.mult`` cell.  The constructor takes
    dense rows and keeps their nonzero entries; :meth:`from_sparse` takes
    rows already in this layout.
    """

    def __init__(self, field: Field, rows, ncols: int | None = None):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else ncols or 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        self.field, self.nrows, self.ncols = field, len(rows), ncols
        self.rows = [{j: c for j, c in enumerate(r) if c} for r in rows]

    @classmethod
    def from_sparse(cls, field: Field, rows: list[dict], ncols: int) -> "Matrix":
        """Matrix on rows that hold nonzero entries only, kept as they are."""
        m = cls.__new__(cls)
        m.field, m.rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @classmethod
    def from_ints(cls, field: Field, rows) -> "Matrix":
        return cls(field, [[field.from_int(x) for x in r] for r in rows])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one = field.one()
        return cls.from_sparse(field, [{i: one} for i in range(n)], n)

    @classmethod
    def zero(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls.from_sparse(field, [{} for _ in range(nrows)], ncols)

    def dense_rows(self) -> list[list]:
        """Each row as a full vector, zeros included."""
        zero = self.field.zero()
        return [[row.get(j, zero) for j in range(self.ncols)] for row in self.rows]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and other.field == self.field
                and (other.nrows, other.ncols) == (self.nrows, self.ncols)
                and other.rows == self.rows)

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for row in self.rows:
            acc: dict = {}
            for k, a in row.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: c for j, c in acc.items() if c})
        return Matrix.from_sparse(self.field, out, other.ncols)

    def transpose(self) -> "Matrix":
        cols: list[dict] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                cols[j][i] = c
        return Matrix.from_sparse(self.field, cols, self.nrows)

    def is_zero(self) -> bool:
        return not any(self.rows)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    A copy of each row is reduced against a basis of earlier rows kept in
    reduced form, one row per pivot column.  What is left, if anything, is
    scaled to 1 at its leftmost column, that column is cleared from the basis,
    and the row joins it.  The reduced form is unique, so the result is the
    Gauss-Jordan one: basis rows in pivot order, then empty rows.
    """
    field = m.field
    zero = field.zero()
    basis: dict[int, dict] = {}
    for row in m.rows:
        row = dict(row)
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
    rows = [basis[pc] for pc in pivots] + [{} for _ in range(m.nrows - len(pivots))]
    return Matrix.from_sparse(field, rows, m.ncols), pivots


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
            vec[pc] = zero - reduced.rows[r].get(fc, zero)
        basis.append(vec)
    return basis


def solve(m: Matrix, target: list) -> list | None:
    """One solution x of m x = target, or None if inconsistent.

    Free variables are set to zero, so the output is canonical.
    """
    if len(target) != m.nrows:
        raise ValueError(f"target has {len(target)} entries for {m.nrows} equations")
    field = m.field
    zero = field.zero()
    augmented = Matrix.from_sparse(field, [{**row, m.ncols: t} if t else row
                                          for row, t in zip(m.rows, target)], m.ncols + 1)
    reduced, pivots = rref(augmented)
    if m.ncols in pivots:
        return None
    x = [zero] * m.ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced.rows[r].get(m.ncols, zero)
    return x
