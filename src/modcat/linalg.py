"""Exact linear algebra over the coefficient fields.

Matrices store their field handle and, for each row, the dict of its nonzero
entries, so every operation costs what the nonzeros cost, not the shape.
``rref`` is the one Gauss-Jordan elimination.  ``rank`` works on the
integer rows of a matrix built from them, over F_2 on rows packed into ints
and reduced by XOR, hands ``rref`` only the rows that elimination by +-1
pivots leaves, and stops at a known bound (see there); any other matrix is
ranked by ``rref``.
Echelon forms follow one fixed convention so that every output is canonical:

* the reduced row echelon (Gauss-Jordan) form: pivots are the leftmost
  nonzero entry of each row, normalized to 1, with zeros above and below
  them, and zero rows last.
* ``kernel_basis`` returns one vector per free column, carrying 1 in its free
  column, the negated reduced-echelon entries in the pivot columns, and 0 in
  the other free columns, ordered by free column index.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd

from .fields import QQ, Field, PrimeField


class Matrix:
    """Matrix over an exact field, never mutated once built.

    ``rows[i]`` is the dict ``{column: entry}`` of the nonzero entries of row
    i, like a ``StructureConstantAlgebra.mult`` cell.  The constructor takes
    dense rows and keeps their nonzero entries; :meth:`from_sparse` takes
    rows already in this layout, and :meth:`from_int_rows` integer rows
    whose images in the field are the entries.
    """

    # the integer rows of a matrix built by from_int_rows, else None
    int_rows: list[dict] | None = None

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
    def from_int_rows(cls, field: Field, rows: list[dict], ncols: int) -> "Matrix":
        """Matrix whose entries are the images in the field of the nonzero
        ints in ``rows``, each a dict ``{column: int}``; ``rank`` reads the
        ints, and the field entries are made the first time ``rows`` is read."""
        m = cls.__new__(cls)
        m.field, m.int_rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @cached_property
    def rows(self) -> list[dict]:
        # every other constructor sets rows, so only from_int_rows gets here
        from_int = self.field.from_int
        return [{j: v for j, c in row.items() if (v := from_int(c))} for row in self.int_rows]

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


def rank(m: Matrix, *, at_most: int | None = None) -> int:
    """Rank of the matrix over its exact field.

    A matrix built by :meth:`Matrix.from_int_rows` is ranked on its integer
    rows by :func:`_integer_rank`, since its rank depends only on the
    characteristic; ``at_most``, if given, must bound the rank from above,
    and elimination then stops as soon as that many independent rows are
    found.  Any other matrix is ranked by ``rref``, and ``at_most`` is not
    read.
    """
    if m.int_rows is None:
        return len(rref(m)[1])
    return _integer_rank(m.int_rows, m.field.char, at_most)


def _integer_rank(rows: list[dict], p: int, at_most: int | None = None) -> int:
    """Rank over F_p, or over Q when p = 0, of integer rows ``{column: int}``;
    elimination stops once ``at_most`` independent rows are found, a bound
    the caller proves.  The rows with one entry go first: each is a pivot,
    or a multiple of one, and the rows after it lose that column at once.

    Over F_2 each row is packed into one int, bit j set when the entry in
    column j is odd, and reduced by XOR against the basis row with the same
    leading bit.  Otherwise the rows are eliminated over Z using only pivots
    of +-1, which are units over every prime field: each basis row holds +-1
    at its own pivot column and 0 at the others.  A row with no +-1 entry is
    divided by the gcd of its entries when that is a unit over the prime
    field (any gcd over Q, one prime to p over F_p), which may give it one;
    otherwise it waits.  The waiting rows are fed through again while that
    finds new pivots, so in the end they vanish at every pivot column.  Their
    rank over the prime field, added to the number of pivots, is the rank:
    ``rref`` gives it over F_p or Q on the block of leftover rows, restricted
    to the columns they use, with the entries that vanish in the field
    dropped (the block is empty when the bound was met).  ``rows`` is not
    modified.
    """
    waiting = [row for row in rows if len(row) == 1] + [row for row in rows if len(row) > 1]
    if p == 2:
        packed: dict[int, int] = {}
        for row in waiting:
            bits = sum(1 << c for c, v in row.items() if v & 1)
            while bits and (lead := bits.bit_length() - 1) in packed:
                bits ^= packed[lead]
            if bits:
                packed[lead] = bits
                if len(packed) == at_most:
                    break
        return len(packed)
    basis: dict[int, dict] = {}
    while True:
        found = len(basis)
        pending, waiting = waiting, []
        for row in pending:
            row = dict(row)
            for pc in [c for c in row if c in basis]:
                # the pivot is +-1, its own inverse
                _subtract_multiple(row, row[pc] * basis[pc][pc], basis[pc], 0)
            pc = _unit_column(row)
            if pc is None and row:
                g = gcd(*row.values())
                if g > 1 and (not p or g % p):
                    row = {c: v // g for c, v in row.items()}
                    pc = _unit_column(row)
            if pc is None:
                if row:
                    waiting.append(row)
                continue
            for other in basis.values():
                if pc in other:
                    _subtract_multiple(other, other[pc] * row[pc], row, 0)
            basis[pc] = row
            if len(basis) == at_most:
                waiting = []
                break
        if len(basis) == found or not waiting:
            break
    field = PrimeField(p) if p else QQ
    cols = {c: i for i, c in enumerate(sorted({c for row in waiting for c in row}))}
    block = [{cols[c]: x for c, v in row.items() if (x := field.from_int(v))} for row in waiting]
    return len(basis) + len(rref(Matrix.from_sparse(field, block, len(cols)))[1])


def _unit_column(row: dict) -> int | None:
    """The last column where the row holds +-1, if any.  Any such column may
    be the pivot; the last keeps the basis short on the DY differentials,
    whose normalized rows come in lexicographic order (on Z/3 x Z/3 in
    degree 3 the elimination touches about a sixth of the entries the first
    one costs).  The rows of their partial identity, fed first, have one
    entry and so no choice."""
    return max((c for c, v in row.items() if v == 1 or v == -1), default=None)


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
