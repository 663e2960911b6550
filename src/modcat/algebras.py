"""Associative algebras by structure constants, and commutative splitting.

The central operation is :func:`split_commutative_algebra`: the complete list
of primitive idempotents of a commutative associative unital algebra over an
exact field, splitting exactly as far as the field allows.  The algorithm:

1. compute the nilradical (trace-form kernel in characteristic zero, iterated
   Frobenius kernel over a prime field) and pass to the semisimple quotient;
2. refine idempotent blocks by factoring minimal polynomials of multiplication
   operators: over a prime field the basis of the Frobenius-fixed subalgebra
   is added to the generator pool, which makes the refinement complete;
3. lift the primitive idempotents of the quotient back through the nilradical
   by Hensel iteration, keeping them orthogonal.

An algebra stores only its nonzero structure constants, one dict {k: c} per
basis pair (i, j), and is validated once, when it is built; products and
the validation run over the nonzero terms only.  All data is immutable after
construction and every output is deterministic.
"""

from __future__ import annotations

from .errors import ValidationError
from .fields import Field, PrimeField
from .linalg import Matrix, kernel_basis, rank, rref, solve
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
        zero = self.field.zero()
        out = {}
        for coeff, cell in terms:
            for k, c in cell.items():
                out[k] = out.get(k, zero) + coeff * c
        return {k: c for k, c in out.items() if c != zero}

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

    def left_mult_matrix(self, x) -> Matrix:
        """Matrix of y -> x * y acting on coordinate columns."""
        cols = [self.mul_vec(x, e) for e in Matrix.identity(self.field, self.dim).rows]
        return Matrix(self.field, [list(row) for row in zip(*cols)])

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
        rows = ([c[j][i].get(k, zero) - c[i][j].get(k, zero) for i in range(self.dim)]
                for j in range(self.dim) for k in range(self.dim))
        stacked = [row for row in rows if any(x != zero for x in row)]
        return kernel_basis(Matrix(self.field, stacked + list(conditions), ncols=self.dim))


def _coordinates(field: Field, basis: list[list], vectors: list[list]) -> list[list]:
    """Coordinates of each vector in an independent basis, from one rref of
    [basis columns | vector columns]."""
    k = len(basis)
    reduced, pivots = rref(Matrix(field, [list(row) for row in zip(*basis, *vectors)]))
    if pivots != list(range(k)):
        raise ValueError("basis is not independent or a vector is outside its span")
    return [[reduced.rows[r][k + j] for r in range(k)] for j in range(len(vectors))]


def min_poly_of_matrix(m: Matrix) -> Poly:
    """Minimal polynomial of a square matrix, monic."""
    field = m.field
    n = m.nrows
    power = Matrix.identity(field, n)
    seen: list[list] = []
    while True:
        flat = [a for row in power.rows for a in row]
        stack = Matrix(field, [list(col) for col in zip(*seen)]) if seen else None
        if seen:
            coords = solve(stack, flat)
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


def _frobenius_matrix(algebra: StructureConstantAlgebra) -> Matrix:
    """Matrix of the F_p-linear map x -> x^p of a commutative F_p-algebra."""
    p = algebra.field.p
    cols = []
    for e in Matrix.identity(algebra.field, algebra.dim).rows:
        power = e
        for _ in range(p - 1):
            power = algebra.mul_vec(power, e)
        cols.append(power)
    return Matrix(algebra.field, [list(row) for row in zip(*cols)])


def _nilradical(algebra: StructureConstantAlgebra) -> list[list]:
    """Echelonized basis of the nilradical of a commutative algebra."""
    field = algebra.field
    if isinstance(field, PrimeField):
        # Frobenius x -> x^p is F_p-linear on a commutative F_p-algebra;
        # the nilradical is the kernel of a high enough Frobenius power
        frob = _frobenius_matrix(algebra)
        iterated = frob
        size = field.p
        while size < algebra.dim:
            iterated = frob * iterated
            size *= field.p
        return kernel_basis(iterated)
    # characteristic zero: the radical is the kernel of the trace form
    basis = Matrix.identity(field, algebra.dim).rows
    gram = []
    for i in range(algebra.dim):
        row = []
        for j in range(algebra.dim):
            product = algebra.mul_vec(basis[i], basis[j])
            lm = algebra.left_mult_matrix(product)
            tr = field.zero()
            for k in range(algebra.dim):
                tr = tr + lm.rows[k][k]
            row.append(tr)
        gram.append(row)
    return kernel_basis(Matrix(field, gram))


def _quotient_algebra(algebra: StructureConstantAlgebra, radical: list[list]):
    """Quotient by the span of radical; returns (quotient, project, lift)."""
    field = algebra.field
    zero = field.zero()
    if radical:
        reduced, pivots = rref(Matrix(field, radical))
        pivot_rows = reduced.rows[:len(pivots)]
    else:
        pivots, pivot_rows = [], []
    pivot_set = set(pivots)
    kept = [j for j in range(algebra.dim) if j not in pivot_set]

    def project(v: list) -> list:
        w = list(v)
        for r, pc in enumerate(pivots):
            factor = w[pc]
            if factor != zero:
                w = [a - factor * b for a, b in zip(w, pivot_rows[r])]
        return [w[j] for j in kept]

    def lift(v: list) -> list:
        out = [zero] * algebra.dim
        for coeff, j in zip(v, kept):
            out[j] = coeff
        return out

    basis = Matrix.identity(field, algebra.dim).rows
    mult = [[project(algebra.mul_vec(basis[i], basis[j])) for j in kept] for i in kept]
    quotient = StructureConstantAlgebra(field, mult, project(algebra.unit),
                                        labels=[algebra.labels[j] for j in kept])
    return quotient, project, lift


def _split_with_generator(algebra: StructureConstantAlgebra, blocks: list[dict], x) -> bool:
    """Try to split some block using multiplication by x; returns True on a split."""
    field = algebra.field
    zero = field.zero()
    for idx, block in enumerate(blocks):
        e = block["idempotent"]
        basis = block["basis"]
        xe = algebra.mul_vec(x, e)
        op = _restricted_operator(algebra, xe, basis)
        mp = min_poly_of_matrix(op)
        factors = factor_list(mp)
        if len(factors) < 2:
            continue
        new_blocks = []
        for f, mult in factors:
            fpow = f
            for _ in range(mult - 1):
                fpow = fpow * f
            cofactor, _ = divmod(mp, fpow)
            # t * cofactor == 1 mod fpow gives the idempotent of this factor
            g, s, t = xgcd(fpow, cofactor)
            if g.degree != 0:
                raise AssertionError("minimal polynomial factors must be coprime")
            h = t * cofactor
            # evaluate h at xe inside the block: e plays the role of the unit
            e_i = _eval_poly_at(algebra, h, xe, e)
            new_basis = _image_basis(algebra, e_i)
            new_blocks.append({"idempotent": e_i, "basis": new_basis})
        blocks[idx:idx + 1] = new_blocks
        return True
    return False


def _eval_poly_at(algebra: StructureConstantAlgebra, p: Poly, x, unit_element):
    """Evaluate p at x by Horner, with unit_element as the local unit."""
    field = algebra.field
    zero = field.zero()
    acc = None
    for c in reversed(p.coeffs):
        if acc is None:
            acc = [c * u for u in unit_element]
        else:
            acc = algebra.mul_vec(acc, x)
            acc = [a + c * u for a, u in zip(acc, unit_element)]
    if acc is None:
        return [zero] * algebra.dim
    return acc


def _image_basis(algebra: StructureConstantAlgebra, e) -> list[list]:
    """Echelonized basis of e * A."""
    lm = algebra.left_mult_matrix(e)
    reduced, pivots = rref(lm.transpose())
    return [reduced.rows[r] for r in range(len(pivots))]


def split_commutative_algebra(algebra: StructureConstantAlgebra):
    """Complete list of primitive idempotents of a commutative algebra.

    Returns a list of ``(block_dim, idempotent_vector)`` pairs: pairwise
    orthogonal idempotents summing to the unit, one per block, splitting as
    far as the coefficient field allows.  Output is sorted lexicographically
    on the idempotent coordinate vectors.

    Raises NotCommutative when the input is not commutative.  An algebra that
    is not associative or has no unit never reaches this function: its
    construction raises NotAssociative / NoUnit.
    """
    algebra.check_commutative()
    field = algebra.field

    radical = _nilradical(algebra)
    quotient, project, lift = _quotient_algebra(algebra, radical)

    # refine idempotent blocks in the semisimple quotient
    blocks = [{"idempotent": quotient.unit,
               "basis": _image_basis(quotient, quotient.unit)}]
    generators = Matrix.identity(field, quotient.dim).rows
    if isinstance(field, PrimeField):
        # basis of the Frobenius-fixed subalgebra; eigen-splitting along these
        # generators separates every pair of blocks
        frob = _frobenius_matrix(quotient)
        fixed = kernel_basis(frob - Matrix.identity(field, quotient.dim))
        generators = generators + fixed
    changed = True
    while changed:
        changed = False
        for x in generators:
            if _split_with_generator(quotient, blocks, x):
                changed = True
                break

    # lift idempotents through the nilradical, sequentially to keep them
    # orthogonal; the last one is forced as the remaining unit
    ordered = sorted(blocks, key=lambda b: tuple(field.sort_key(c) for c in b["idempotent"]))
    lifted = []
    remaining_unit = list(algebra.unit)
    for block in ordered[:-1]:
        candidate = algebra.mul_vec(remaining_unit, lift(block["idempotent"]))
        candidate = algebra.mul_vec(candidate, remaining_unit)
        for _ in range(algebra.dim + 2):
            square = algebra.mul_vec(candidate, candidate)
            if square == candidate:
                break
            # Hensel step e <- 3e^2 - 2e^3
            cube = algebra.mul_vec(square, candidate)
            three = field.from_int(3)
            two = field.from_int(2)
            candidate = [three * s - two * c for s, c in zip(square, cube)]
        else:
            raise AssertionError("idempotent lifting did not converge")
        lifted.append(candidate)
        remaining_unit = [u - c for u, c in zip(remaining_unit, candidate)]
    lifted.append(remaining_unit)

    result = []
    for e in lifted:
        dim = rank(algebra.left_mult_matrix(e))
        result.append((dim, e))
    result.sort(key=lambda de: tuple(field.sort_key(c) for c in de[1]))
    return result
