"""Associative algebras by structure constants, and commutative splitting.

The central operation is :func:`split_commutative_algebra`: the complete list
of primitive idempotents of a commutative associative unital algebra over an
exact field, splitting exactly as far as the field allows.  It refines blocks
of the algebra itself in one pass over its basis: each basis vector x splits
every current block e along the coprime factor powers of the minimal
polynomial of x * e on e * A, with idempotents taken by CRT (Friedl and
Ronyai, STOC 1985).

An algebra stores only its nonzero structure constants, one dict {k: c} per
basis pair (i, j), and is validated once, when it is built; products and
the validation run over the nonzero terms only.  The validating expansion,
``laws.first_law_failure``, needs nothing of a field, and based rings
validate their integer constants through it too; it checks associativity on
the rows of a nucleus generating set only (see :mod:`modcat.laws`).  All data
is immutable after construction and every output is deterministic.

Over Q the laws are checked on ints: the constants are multiplied by the
lcm d of their denominators, the unit by the lcm e of its own, and d e
stands for 1.  Each associativity coordinate
sum_m c_ij^m c_mk^l - sum_m c_jk^m c_im^l is homogeneous of degree 2 in the
constants, so it is multiplied by d^2; in each unit-law coordinate
sum_m u_m c_mi^l - delta_il 1 every term u_m c_mi^l is multiplied by e d,
and so is the 1.  The same coordinates vanish, so every failure keeps its
indices, and the supports that ``laws.nucleus_generators`` reads are unchanged.
"""

from __future__ import annotations

from math import lcm

from . import fields, linalg, poly
from .errors import ValidationError
from .laws import _combine, first_law_failure, nucleus_generators


class NotAssociative(ValidationError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"associativity fails at basis triple ({i}, {j}, {k})")
        self.indices = (i, j, k)


class NoUnit(ValidationError):
    def __init__(self, detail: str = ""):
        super().__init__(f"unit vector is not a two-sided unit{': ' + detail if detail else ''}")


class NotCommutative(ValidationError):
    def __init__(self, i: int, j: int):
        super().__init__(f"basis elements {i} and {j} do not commute")
        self.indices = (i, j)


class StructureConstantAlgebra:
    """Finite-dimensional associative unital algebra e_i e_j = sum_k c[i][j][k] e_k.

    The constructor takes the dense constants c[i][j][k] and keeps only the
    nonzero ones: ``mult[i][j]`` is the dict {k: c} of the nonzero constants
    of e_i e_j, with k ascending; :meth:`from_sparse` takes cells already in
    this layout.  Every instance is validated (associativity and the
    two-sided unit) exactly once, at construction, which also records the
    nucleus generating set ``generators``.
    """

    def __init__(self, field: fields.Field, mult, unit, labels=None):
        dim = len(mult)
        if any(len(row) != dim or any(len(cell) != dim for cell in row) for row in mult):
            raise ValueError("mult must be dim x dim x dim")
        zero = field.zero()
        self._build(field, [[{k: c for k, c in enumerate(cell) if c != zero} for cell in row]
                            for row in mult], unit, labels)

    @classmethod
    def from_sparse(cls, field: fields.Field, mult, unit,
                    labels=None) -> "StructureConstantAlgebra":
        """Algebra on cells that hold nonzero constants only, k ascending,
        kept as they are; validated like the constructor's."""
        algebra = cls.__new__(cls)
        algebra._build(field, mult, unit, labels)
        return algebra

    def _build(self, field: fields.Field, mult, unit, labels) -> None:
        self.field = field
        self.dim = len(mult)
        self.unit = list(unit)
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(self.dim)]
        if len(self.unit) != self.dim or len(self.labels) != self.dim:
            raise ValueError("unit/label length must equal dim")
        if any(len(row) != self.dim for row in mult):
            raise ValueError("mult must be dim x dim x dim")
        self.mult = mult
        self.validate()

    @classmethod
    def from_int_constants(cls, field: fields.Field, mult, unit,
                           labels=None) -> "StructureConstantAlgebra":
        conv = field.from_int
        return cls(field,
                   [[[conv(x) for x in cell] for cell in row] for row in mult],
                   [conv(x) for x in unit], labels)

    def mul_vec(self, x, y):
        zero = self.field.zero()
        out = [zero] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if yj != zero]
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            row = self.mult[i]
            for j, yj in ys:
                coeff = xi * yj
                for k, c in row[j].items():
                    out[k] = out[k] + coeff * c
        return out

    def validate(self) -> None:
        """Check associativity, then the two-sided unit, by
        :func:`first_law_failure`, on the rows of :func:`nucleus_generators`
        (over Q on ints, see the module docstring)."""
        mult, unit, one = self.mult, self.unit, self.field.one()
        self.generators = nucleus_generators(mult, unit)
        if self.field == fields.QQ:
            d = lcm(*(c.denominator for row in mult for cell in row for c in cell.values()))
            e = lcm(*(u.denominator for u in unit))
            mult = [[{k: c.numerator * (d // c.denominator) for k, c in cell.items()}
                     for cell in row] for row in mult]
            unit, one = [u.numerator * (e // u.denominator) for u in unit], d * e
        failure = first_law_failure(mult, unit, one, self.generators)
        if failure is None:
            return
        indices, _, _ = failure
        if len(indices) == 3:
            raise NotAssociative(*indices)
        i, side = indices
        raise NoUnit(f"1 * e{i} != e{i}" if side == "left" else f"e{i} * 1 != e{i}")

    def check_commutative(self) -> None:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mult[i][j] != self.mult[j][i]:
                    raise NotCommutative(i, j)

    def center_basis(self, conditions=()) -> list[list]:
        """Echelonized basis of the center {x : xy = yx for all y}, cut down
        by the extra linear conditions: rows c with sum_k c[k] x[k] = 0.

        The center is the centralizer of the generating set ``generators``,
        so only its commutators are rows: they span the same row space as
        all d^2 commutator rows, and the echelon form is the same."""
        zero = self.field.zero()
        c = self.mult
        # row (j, k), column i: the e_k coordinate of e_j e_i - e_i e_j,
        # nonzero only at the keys of unequal cells
        rows = {}
        for j in self.generators:
            for i in range(self.dim):
                if (ji := c[j][i]) != (ij := c[i][j]):
                    for k in ji.keys() | ij.keys():
                        if v := ji.get(k, zero) - ij.get(k, zero):
                            rows.setdefault((j, k), {})[i] = v
        stacked = [rows[jk] for jk in sorted(rows)]
        stacked += linalg.Matrix(self.field, conditions, ncols=self.dim).rows
        return linalg.kernel_basis(linalg.Matrix.from_sparse(self.field, stacked, self.dim))


def _coordinates(field: fields.Field, basis: list[list], vectors: list[list]) -> list[list]:
    """Coordinates of each vector in an independent basis, from one rref of
    [basis columns | vector columns]."""
    k = len(basis)
    columns = [list(row) for row in zip(*basis, *vectors)]
    reduced, pivots = linalg.rref(linalg.Matrix(field, columns))
    if pivots != list(range(k)):
        raise ValueError("basis is not independent or a vector is outside its span")
    zero = field.zero()
    return [[reduced.rows[r].get(k + j, zero) for r in range(k)] for j in range(len(vectors))]


def min_poly_of_matrix(algebra: StructureConstantAlgebra, x, e) -> poly.Poly:
    """Minimal polynomial, monic, of the matrix of multiplication by x on
    e * A, for an idempotent e of a commutative algebra A.

    e is the unit of e * A and the operator is multiplication by the element
    x e there, so p kills the operator exactly when p(x e) = 0 in e * A: the
    minimal polynomial is the first dependency among the powers e, x e,
    (x e)^2, ..., vectors of length ``algebra.dim``.  Each power is reduced
    once against the echelon rows of the powers before it, every row
    carrying its coefficients over those powers; the matrix is never built.
    """
    field = algebra.field
    one, minus_one = field.one(), field.zero() - field.one()
    rows = []  # (pivot, reduced row, its coefficients over the powers)
    power = e
    while True:
        row = {l: c for l, c in enumerate(power) if c}
        coeffs = {len(rows): one}
        for pivot, basis_row, basis_coeffs in rows:
            f = row.get(pivot)
            if f:
                row = _combine(((one, row), (minus_one * f, basis_row)))
                coeffs = _combine(((one, coeffs), (minus_one * f, basis_coeffs)))
        if not row:
            return poly.Poly(field, [coeffs.get(d, field.zero()) for d in range(len(rows) + 1)])
        pivot = min(row)
        inv = one / row[pivot]
        rows.append((pivot, {l: inv * c for l, c in row.items()},
                     {d: inv * c for d, c in coeffs.items()}))
        power = algebra.mul_vec(x, power)


def _split_block(algebra: StructureConstantAlgebra, e, basis: list[list], x) -> list:
    """Pieces (idempotent, echelon basis of idempotent * A) of the block
    (e, basis of e * A) along the coprime factor powers of the minimal
    polynomial of x * e on e * A; the block itself when that has one factor.

    e is the unit of e * A, so x and x * e act alike there: the minimal
    polynomial and the Horner evaluation use the sparse basis vector x
    itself.  A one-dimensional block cannot split and is returned as it
    is."""
    if len(basis) == 1:
        return [(e, basis)]
    mp = min_poly_of_matrix(algebra, x, e)
    factors = poly.factor_list(mp)
    if len(factors) < 2:
        return [(e, basis)]
    pieces = []
    for f, mult in factors:
        fpow = f
        for _ in range(mult - 1):
            fpow = fpow * f
        cofactor, _ = divmod(mp, fpow)
        # t * cofactor == 1 mod fpow and == 0 mod the other factor powers, so
        # h = t * cofactor has h(h - 1) divisible by mp: h(x e) is idempotent
        g, _, t = poly.xgcd(fpow, cofactor)
        if g.degree != 0:
            raise AssertionError("minimal polynomial factors must be coprime")
        # evaluate inside the block: e plays the role of the unit
        e_i = _eval_poly_at(algebra, t * cofactor, x, e)
        pieces.append((e_i, _image_basis(algebra, e_i)))
    return pieces


def _eval_poly_at(algebra: StructureConstantAlgebra, p: poly.Poly, x, unit_element):
    """Evaluate p at x by Horner, with unit_element as the local unit."""
    acc = [algebra.field.zero()] * algebra.dim
    for c in reversed(p.coeffs):
        acc = [a + c * u for a, u in zip(algebra.mul_vec(acc, x), unit_element)]
    return acc


def _image_basis(algebra: StructureConstantAlgebra, e) -> list[list]:
    """Echelonized basis of e * A, from the rows e * e_j."""
    c = algebra.mult
    images = [_combine((ei, c[i][j]) for i, ei in enumerate(e) if ei)
              for j in range(algebra.dim)]
    reduced, pivots = linalg.rref(linalg.Matrix.from_sparse(algebra.field, images, algebra.dim))
    return reduced.dense_rows()[:len(pivots)]


def split_commutative_algebra(algebra: StructureConstantAlgebra):
    """Complete list of primitive idempotents of a commutative algebra.

    Returns a list of ``(block_dim, idempotent_vector)`` pairs: pairwise
    orthogonal idempotents summing to the unit, one per block, splitting as
    far as the coefficient field allows.  Output is sorted lexicographically
    on the idempotent coordinate vectors.

    The CRT idempotents are exact in A itself, nilpotents included: for a
    factor power f^m of the minimal polynomial mp of x * e on e * A, xgcd
    gives h = t * cofactor with h == 1 mod f^m and h == 0 mod mp / f^m, so
    mp divides h(h - 1) and h(x * e) is an idempotent of A.  The pieces of a
    block are orthogonal and sum to e, and a block's dimension is the length
    of its echelon basis of e * A.

    The basis alone is complete.  If two primitive idempotents with residue
    fields K_i, K_j stayed in one block, every basis vector would map to a
    pair (u, v) in K_i x K_j with u and v of one minimal polynomial.  Such
    pairs lie in a proper subspace: in characteristic 0 the normalised traces
    Tr(u)/[K_i:k] and Tr(v)/[K_j:k] agree; over F_p with [K_i:k] = [K_j:k]
    the traces agree; over F_p with unequal degrees the larger field's
    component lies in the proper common subfield.  The basis of A maps onto
    K_i x K_j, so some basis vector separates the pair.

    Raises NotCommutative when the input is not commutative.  An algebra that
    is not associative or has no unit never reaches this function: its
    construction raises NotAssociative / NoUnit.
    """
    algebra.check_commutative()
    field = algebra.field
    basis_vectors = linalg.Matrix.identity(field, algebra.dim).dense_rows()
    blocks = [(algebra.unit, basis_vectors)]
    for x in basis_vectors:
        blocks = [piece for e, basis in blocks
                  for piece in _split_block(algebra, e, basis, x)]
    result = [(len(basis), e) for e, basis in blocks]
    result.sort(key=lambda de: tuple(field.sort_key(c) for c in de[1]))
    return result
