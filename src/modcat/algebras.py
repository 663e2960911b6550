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
the validation run over the nonzero terms only.  All data is immutable after
construction and every output is deterministic.
"""

from __future__ import annotations

from .errors import ValidationError
from .fields import Field
from .linalg import Matrix, kernel_basis, rref, solve
from .poly import Poly, factor_list, xgcd


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
    of e_i e_j, with k ascending.  Every instance is validated (associativity
    and the two-sided unit) exactly once, at construction.
    """

    def __init__(self, field: Field, mult, unit, labels=None):
        self.field = field
        self.dim = len(mult)
        self.unit = list(unit)
        self.labels = list(labels) if labels is not None else [f"e{i}" for i in range(self.dim)]
        if len(self.unit) != self.dim or len(self.labels) != self.dim:
            raise ValueError("unit/label length must equal dim")
        if any(len(row) != self.dim or any(len(cell) != self.dim for cell in row)
               for row in mult):
            raise ValueError("mult must be dim x dim x dim")
        zero = field.zero()
        self.mult = [[{k: c for k, c in enumerate(cell) if c != zero} for cell in row]
                     for row in mult]
        self.validate()

    @classmethod
    def from_int_constants(cls, field: Field, mult, unit,
                           labels=None) -> "StructureConstantAlgebra":
        conv = field.from_int
        return cls(field,
                   [[[conv(x) for x in cell] for cell in row] for row in mult],
                   [conv(x) for x in unit], labels)

    def _combine(self, terms) -> dict:
        """Nonzero entries of sum coeff * cell over the (coeff, cell) terms."""
        out = {}
        for coeff, cell in terms:
            for k, c in cell.items():
                t = coeff * c
                out[k] = out[k] + t if k in out else t
        return {k: c for k, c in out.items() if c}

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
        """Check (e_i e_j) e_k = e_i (e_j e_k) for every triple in lex order,
        expanding both sides over the nonzero constants, then the unit."""
        c = self.mult
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    left = self._combine((cm, c[m][k]) for m, cm in c[i][j].items())
                    right = self._combine((cm, c[i][m]) for m, cm in c[j][k].items())
                    if left != right:
                        raise NotAssociative(i, j, k)
        units = [(m, um) for m, um in enumerate(self.unit) if um != self.field.zero()]
        for i in range(self.dim):
            basis_i = {i: self.field.one()}
            if self._combine((um, c[m][i]) for m, um in units) != basis_i:
                raise NoUnit(f"1 * e{i} != e{i}")
            if self._combine((um, c[i][m]) for m, um in units) != basis_i:
                raise NoUnit(f"e{i} * 1 != e{i}")

    def check_commutative(self) -> None:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mult[i][j] != self.mult[j][i]:
                    raise NotCommutative(i, j)

    def center_basis(self, conditions=()) -> list[list]:
        """Echelonized basis of the center {x : xy = yx for all y}, cut down
        by the extra linear conditions: rows c with sum_k c[k] x[k] = 0."""
        zero = self.field.zero()
        c = self.mult
        # row (j, k), column i: the e_k coordinate of e_j e_i - e_i e_j
        rows = ({i: v for i in range(self.dim)
                 if (v := c[j][i].get(k, zero) - c[i][j].get(k, zero))}
                for j in range(self.dim) for k in range(self.dim))
        stacked = [row for row in rows if row] + Matrix(self.field, conditions, ncols=self.dim).rows
        return kernel_basis(Matrix.from_sparse(self.field, stacked, self.dim))


def _coordinates(field: Field, basis: list[list], vectors: list[list]) -> list[list]:
    """Coordinates of each vector in an independent basis, from one rref of
    [basis columns | vector columns]."""
    k = len(basis)
    reduced, pivots = rref(Matrix(field, [list(row) for row in zip(*basis, *vectors)]))
    if pivots != list(range(k)):
        raise ValueError("basis is not independent or a vector is outside its span")
    zero = field.zero()
    return [[reduced.rows[r].get(k + j, zero) for r in range(k)] for j in range(len(vectors))]


def min_poly_of_matrix(m: Matrix) -> Poly:
    """Minimal polynomial of a square matrix, monic."""
    field = m.field
    n = m.nrows
    power = Matrix.identity(field, n)
    seen: list[list] = []
    while True:
        flat = [a for row in power.dense_rows() for a in row]
        if seen:
            coords = solve(Matrix(field, zip(*seen)), flat)
            if coords is not None:
                coeffs = [field.zero() - c for c in coords] + [field.one()]
                return Poly(field, coeffs)
        seen.append(flat)
        power = power * m

    # unreachable: powers of an n x n matrix become dependent by degree n**2


def _restricted_operator(algebra: StructureConstantAlgebra, x, block_basis: list[list]) -> Matrix:
    """Matrix of multiplication by x on the subspace spanned by block_basis."""
    images = [algebra.mul_vec(x, w) for w in block_basis]
    coords = _coordinates(algebra.field, block_basis, images)
    return Matrix(algebra.field, [list(row) for row in zip(*coords)])


def _split_block(algebra: StructureConstantAlgebra, e, basis: list[list], x) -> list:
    """Pieces (idempotent, echelon basis of idempotent * A) of the block
    (e, basis of e * A) along the coprime factor powers of the minimal
    polynomial of x * e on e * A; the block itself when that has one factor.

    e is the unit of e * A, so x and x * e act alike there: the operator and
    the Horner evaluation use the sparse basis vector x itself.  A
    one-dimensional block cannot split and is returned as it is."""
    if len(basis) == 1:
        return [(e, basis)]
    mp = min_poly_of_matrix(_restricted_operator(algebra, x, basis))
    factors = factor_list(mp)
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
        g, _, t = xgcd(fpow, cofactor)
        if g.degree != 0:
            raise AssertionError("minimal polynomial factors must be coprime")
        # evaluate inside the block: e plays the role of the unit
        e_i = _eval_poly_at(algebra, t * cofactor, x, e)
        pieces.append((e_i, _image_basis(algebra, e_i)))
    return pieces


def _eval_poly_at(algebra: StructureConstantAlgebra, p: Poly, x, unit_element):
    """Evaluate p at x by Horner, with unit_element as the local unit."""
    acc = [algebra.field.zero()] * algebra.dim
    for c in reversed(p.coeffs):
        acc = [a + c * u for a, u in zip(algebra.mul_vec(acc, x), unit_element)]
    return acc


def _image_basis(algebra: StructureConstantAlgebra, e) -> list[list]:
    """Echelonized basis of e * A, from the rows e * e_j."""
    c = algebra.mult
    images = [algebra._combine((ei, c[i][j]) for i, ei in enumerate(e) if ei)
              for j in range(algebra.dim)]
    reduced, pivots = rref(Matrix.from_sparse(algebra.field, images, algebra.dim))
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
    basis_vectors = Matrix.identity(field, algebra.dim).dense_rows()
    blocks = [(algebra.unit, basis_vectors)]
    for x in basis_vectors:
        blocks = [piece for e, basis in blocks
                  for piece in _split_block(algebra, e, basis, x)]
    result = [(len(basis), e) for e, basis in blocks]
    result.sort(key=lambda de: tuple(field.sort_key(c) for c in de[1]))
    return result
