"""Product tables of simple module categories, in three worked families.

Each product is computed honestly from algebra objects:

* braided pointed family: module classes over Z/p-graded vector spaces with
  a braiding given by a p-th root of unity.  A class is realized by its
  algebra object (unit algebra or graded group algebra), the relative product
  is the braided tensor algebra, and the summands are read off the primitive
  degree-zero central idempotents.  Each block is identified by the support
  subgroup of its grading together with the number of simple summands of its
  degree-zero part.
* real closed family: the three division-algebra classes, tensored as
  rational structure-constant algebras; the center splits over Q and each
  central block maps to a class through Brauer arithmetic (real-central
  blocks) or to the complexified class (imaginary-quadratic centers).
* prime field family: extensions F_{p^q} (x) F_{p^r} = F_{p^q}[y]/(f), with f
  the lex-first irreducible of degree r over F_p.  The summands are the
  irreducible factors of f over F_{p^q}, which are the orbits of
  y -> y^(p^q) on the roots of f: r/d factors of degree d, where d is the
  least exponent with y^(p^(q d)) = y in F_p[y]/(f).

The first two families share one path: :func:`tensor_algebra`, then the
(degree-zero) center, then :func:`_central_blocks`, which splits the center
and returns each block's idempotent and echelon basis.  The class algebras
they tensor, :func:`unit_algebra_object`, :func:`graded_group_algebra` and
:func:`rational_division_algebra`, are built and validated once per process
and argument; every product reads them and none alters them.  A braided
block's degree-zero simple count is the number of blocks that
``split_commutative_algebra`` finds in the center of its degree-zero part,
one primitive central idempotent per simple summand.

The coefficient field for the braided family is the smallest cyclotomic
field that both contains the braiding root of unity and splits the twisted
degree-zero algebras: Q(zeta_p) for odd p, and Q(zeta_4) for p = 2, where a
square root of -1 is needed to split the sign-twisted part.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd, isqrt

from . import algebras, groups, linalg, pointed
from .errors import ModcatError, SizeGuardExceeded, UsageError, ValidationError, record
from .fields import CyclotomicField, Field, PrimeField, QQ
from .fieldprofile import (COMPLEXIFICATION, DivisionAlgebraClass, DivisionLabel,
                           brauer_add, finite_ext, real_closed)
from .poly import Poly, _zdivmod, _zpow, factor_list

FFIELD_DEGREE_GUARD = 64  # bound on p * r in finite_field_tensor


class GradingMismatch(ValidationError):
    pass


class ValidationFailed(ValidationError):
    pass


class UnsupportedPrime(ModcatError):
    pass


class IdentificationAmbiguous(ModcatError):
    """A computed block matches no known module class; a defect for inputs in scope."""


@record
class GradedAlgebraObject:
    """A group-graded algebra: structure constants plus a degree per basis index."""

    group: groups.FiniteAbelianGroup
    degrees: tuple[tuple[int, ...], ...]
    algebra: algebras.StructureConstantAlgebra

    def __post_init__(self):
        if len(self.degrees) != self.algebra.dim:
            raise ValidationFailed("need one degree per basis element")
        for i, row in enumerate(self.algebra.mult):
            for j, cell in enumerate(row):
                expected = self.group.add(self.degrees[i], self.degrees[j])
                for k in cell:
                    if self.degrees[k] != expected:
                        raise GradingMismatch(
                            f"product of degrees {self.degrees[i]} and {self.degrees[j]} "
                            f"hits degree {self.degrees[k]}")
        zero = self.algebra.field.zero()
        for k in range(self.algebra.dim):
            if self.algebra.unit[k] != zero and self.degrees[k] != self.group.zero():
                raise GradingMismatch("unit must be concentrated in degree zero")

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim


def coefficient_field(p: int) -> CyclotomicField:
    """Q(zeta_p) for odd p; Q(zeta_4) for p = 2 (a square root of -1 is
    needed to split the sign-twisted degree-zero algebras)."""
    return CyclotomicField(4 if p == 2 else p)


@lru_cache(maxsize=None)
def unit_algebra_object(p: int, field: Field) -> GradedAlgebraObject:
    group = groups.FiniteAbelianGroup((p,))
    algebra = algebras.StructureConstantAlgebra.from_int_constants(field, [[[1]]], [1],
                                                                   labels=["1"])
    return GradedAlgebraObject(group=group, degrees=((0,),), algebra=algebra)


@lru_cache(maxsize=None)
def graded_group_algebra(p: int, field: Field) -> GradedAlgebraObject:
    group = groups.FiniteAbelianGroup((p,))
    mult = [[[int(k == s) for k in range(p)] for s in row] for row in groups.add_table((p,))]
    unit = [1] + [0] * (p - 1)
    algebra = algebras.StructureConstantAlgebra.from_int_constants(
        field, mult, unit, labels=[f"u^{a}" if a else "1" for a in range(p)])
    return GradedAlgebraObject(group=group, degrees=tuple((a,) for a in range(p)),
                               algebra=algebra)


def tensor_algebra(a: algebras.StructureConstantAlgebra, b: algebras.StructureConstantAlgebra,
                   twist=None) -> algebras.StructureConstantAlgebra:
    """Tensor product with basis x_i (x) y_j at index i * b.dim + j.

    ``twist(j1, i2)``, when given, is the scalar c in
    (x_i1 (x) y_j1)(x_i2 (x) y_j2) = c (x_i1 x_i2 (x) y_j1 y_j2).
    """
    field = a.field
    da, db = a.dim, b.dim
    one = field.one()
    mult = []
    for i1 in range(da):
        for j1 in range(db):
            row = []
            for i2 in range(da):
                scale = one if twist is None else twist(j1, i2)
                for j2 in range(db):
                    # distinct (k1, k2) give distinct keys, ascending
                    row.append({k1 * db + k2: v
                                for k1, ca in a.mult[i1][i2].items()
                                for k2, cb in b.mult[j1][j2].items()
                                if (v := scale * ca * cb)})
            mult.append(row)
    unit = [ua * ub for ua in a.unit for ub in b.unit]
    labels = [f"{la}(x){lb}" for la in a.labels for lb in b.labels]
    return algebras.StructureConstantAlgebra.from_sparse(field, mult, unit, labels=labels)


def braided_tensor_algebra(p: int, zeta: pointed.BraidingParam, a: GradedAlgebraObject,
                           b: GradedAlgebraObject) -> GradedAlgebraObject:
    """Tensor product twisted by the braiding: (x1 (x) y1)(x2 (x) y2) =
    zeta^(deg y1 * deg x2) (x1 x2 (x) y1 y2)."""
    if a.group.cyclic_orders != (p,) or b.group.cyclic_orders != (p,):
        raise GradingMismatch(f"both factors must be graded by Z/{p}")
    if a.field != b.field:
        raise GradingMismatch("factors must share their coefficient field")
    field = a.field
    if not isinstance(field, CyclotomicField) or field.n % p != 0:
        raise GradingMismatch(
            f"coefficient field must be cyclotomic containing a primitive {p}-th root")
    if zeta.p != p:
        raise GradingMismatch("braiding parameter is for a different prime")
    root_step = field.n // p  # zeta_p = zeta_n^(n/p)

    def twist(j1, i2):
        return field.zeta(root_step * b.degrees[j1][0] * zeta.zeta_exponent * a.degrees[i2][0])

    try:
        algebra = tensor_algebra(a.algebra, b.algebra, twist)
    except ValidationError as exc:
        raise ValidationFailed(f"braided tensor is not a valid algebra: {exc}") from exc
    degrees = tuple(a.group.add(x, y) for x in a.degrees for y in b.degrees)
    return GradedAlgebraObject(group=a.group, degrees=degrees, algebra=algebra)


@record
class Fusion2Product:
    """A multiset of simple summands, as canonically sorted labels.

    ``block_dims`` holds the dimension of each block over the family's base
    field.
    """

    summands: tuple[str, ...]
    block_dims: tuple[int, ...] = ()
    r_copies_rule_holds: bool | None = None

    def __post_init__(self):
        if not self.summands:
            raise ValidationFailed("a product of nonzero simples has at least one summand")


def _subalgebra_on(algebra: algebras.StructureConstantAlgebra, basis: list[list], unit: list):
    """Structure constants of the subalgebra spanned by the given basis."""
    k = len(basis)
    products = [algebra.mul_vec(x, y) for x in basis for y in basis]
    coords = algebras._coordinates(algebra.field, basis, products + [unit])
    mult = [coords[i * k:(i + 1) * k] for i in range(k)]
    return algebras.StructureConstantAlgebra(algebra.field, mult, coords[k * k])


def _central_blocks(algebra: algebras.StructureConstantAlgebra, center: list[list]):
    """Split the commutative subalgebra spanned by ``center`` (which holds the
    unit) into blocks; returns (center-block dim, idempotent, echelon basis of
    e * algebra) for each block."""
    zero = algebra.field.zero()
    blocks = []
    for center_dim, coords in algebras.split_commutative_algebra(
            _subalgebra_on(algebra, center, algebra.unit)):
        idem = [zero] * algebra.dim
        for coeff, vec in zip(coords, center):
            idem = [x + coeff * v for x, v in zip(idem, vec)]
        blocks.append((center_dim, idem, algebras._image_basis(algebra, idem)))
    return blocks


def _block_support(obj: GradedAlgebraObject, block_basis: list[list]) -> frozenset:
    zero = obj.field.zero()
    support = set()
    for vec in block_basis:
        for k, c in enumerate(vec):
            if c != zero:
                support.add(obj.degrees[k])
    return frozenset(support)


def _block_degree_zero_simple_count(obj: GradedAlgebraObject, idempotent: list,
                                    block_basis: list[list]) -> int:
    # e has degree zero, so e * A is a graded subspace and its echelon basis
    # is homogeneous: the rows of degree zero are the echelon basis of e * A_0
    zero = obj.field.zero()
    zero_deg = obj.group.zero()
    deg0_basis = [vec for vec in block_basis
                  if all(obj.degrees[k] == zero_deg for k, c in enumerate(vec) if c != zero)]
    deg0 = _subalgebra_on(obj.algebra, deg0_basis, idempotent)
    # one primitive idempotent of the center per simple summand
    center = _subalgebra_on(deg0, deg0.center_basis(), deg0.unit)
    return len(algebras.split_commutative_algebra(center))


def realize_module_class(cls: pointed.ModuleClass, field: Field) -> GradedAlgebraObject:
    """Algebra object of a module class over Z/p-graded vector spaces.

    The trivial subgroup carries the regular class (unit algebra); the full
    subgroup carries the class of the plain group algebra.  No intermediate
    subgroups exist for prime p, and H^2 of a cyclic group is trivial, so the
    cocycle index is always zero here.
    """
    ambient = cls.subgroup.ambient
    p = ambient.cyclic_orders[0]
    if len(ambient.cyclic_orders) != 1:
        raise UnsupportedPrime("braided products are implemented for cyclic Z/p only")
    if cls.cocycle_class_index != 0:
        raise IdentificationAmbiguous("no nontrivial cocycle classes exist over Z/p")
    if cls.subgroup.order == 1:
        return unit_algebra_object(p, field)
    if cls.subgroup.order == p:
        return graded_group_algebra(p, field)
    raise IdentificationAmbiguous("unexpected subgroup for prime p")


def pointed_braided_product(p: int, zeta: pointed.BraidingParam, class_a: pointed.ModuleClass,
                            class_b: pointed.ModuleClass) -> Fusion2Product:
    """Product of two simple module classes over braided Z/p-graded spaces.

    Realizes both classes by algebra objects, forms the braided tensor
    algebra, and splits it along its primitive degree-zero central
    idempotents; each block is identified by (grading support subgroup,
    simple count of the degree-zero part).
    """
    if p not in (2, 3, 5):
        raise UnsupportedPrime(f"supported primes are 2, 3, 5 (got {p})")
    field = coefficient_field(p)
    a = realize_module_class(class_a, field)
    b = realize_module_class(class_b, field)
    product = braided_tensor_algebra(p, zeta, a, b)
    # the degree-zero center: central elements with no coordinate of nonzero degree
    off_degree = [row for row, deg in zip(linalg.Matrix.identity(field, product.dim).dense_rows(),
                                          product.degrees) if deg != product.group.zero()]
    center = product.algebra.center_basis(off_degree)

    unit_label = f"Vect(Z/{p})"
    regular_label = "Vect"
    summands = []
    dims = []
    for _, idem, block_basis in _central_blocks(product.algebra, center):
        support = _block_support(product, block_basis)
        count = _block_degree_zero_simple_count(product, idem, block_basis)
        full = len(support) == p
        if support == frozenset({product.group.zero()}) and count == 1:
            summands.append(unit_label)
        elif full and count == 1:
            summands.append(regular_label)
        elif full and count == p:
            summands.append(unit_label)
        else:
            raise IdentificationAmbiguous(
                f"block with support of size {len(support)} and simple count {count}")
        dims.append(len(block_basis))
    order = sorted(range(len(summands)), key=lambda t: (summands[t], dims[t]))
    return Fusion2Product(summands=tuple(summands[t] for t in order),
                          block_dims=tuple(dims[t] for t in order))


# -- real closed family ------------------------------------------------------

def _division_algebra_constants(label: DivisionLabel):
    if label == DivisionLabel.BASE:
        return [[[1]]], [1], ["1"]
    if label == DivisionLabel.COMPLEXIFICATION:
        # basis 1, i with i^2 = -1
        mult = [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]]
        return mult, [1, 0], ["1", "i"]
    if label == DivisionLabel.QUATERNION:
        # basis 1, i, j, k; entry (a, b) is +-(c + 1) for e_a e_b = +-e_c
        table = [[1, 2, 3, 4], [2, -1, 4, -3], [3, -4, -1, 2], [4, 3, -2, -1]]
        mult = [[[s // abs(s) if abs(s) == k + 1 else 0 for k in range(4)] for s in row]
                for row in table]
        return mult, [1, 0, 0, 0], ["1", "i", "j", "k"]
    raise ValueError(f"no rational model for {label}")


@lru_cache(maxsize=None)
def rational_division_algebra(cls: DivisionAlgebraClass) -> algebras.StructureConstantAlgebra:
    """Rational structure-constant model of a real division algebra class."""
    mult, unit, labels = _division_algebra_constants(cls.label)
    return algebras.StructureConstantAlgebra.from_int_constants(QQ, mult, unit, labels=labels)


def real_division_tensor(d: DivisionAlgebraClass,
                         e: DivisionAlgebraClass) -> Fusion2Product:
    """Relative product of two real division classes, from rational models.

    The center of the tensor algebra splits over Q; a one-dimensional center
    block is real-central and its class is the Brauer sum of the inputs,
    while a two-dimensional center block has an imaginary-quadratic residue
    field and maps to the complexified class.
    """
    for x in (d, e):
        if x.label not in (DivisionLabel.BASE, DivisionLabel.COMPLEXIFICATION,
                           DivisionLabel.QUATERNION):
            raise ValueError("inputs must be real division classes")
    tensor = tensor_algebra(rational_division_algebra(d), rational_division_algebra(e))
    center = tensor.center_basis()

    profile = real_closed()
    summands = []
    dims = []
    for center_dim, idem, block_basis in _central_blocks(tensor, center):
        block_dim = len(block_basis)
        if center_dim == 1:
            for x in (d, e):
                if x.label == DivisionLabel.COMPLEXIFICATION:
                    raise IdentificationAmbiguous(
                        "complexified input should never give a real-central block")
            cls = brauer_add(profile, d, e)
        elif center_dim == 2:
            if not _center_block_is_imaginary(tensor, center, idem):
                raise IdentificationAmbiguous("real quadratic center is out of scope")
            cls = COMPLEXIFICATION
        else:
            raise IdentificationAmbiguous(f"center block of dimension {center_dim}")
        m2 = block_dim // cls.dim_over_base
        m = isqrt(m2)
        if m * m != m2 or m * m * cls.dim_over_base != block_dim:
            raise IdentificationAmbiguous("block dimension is not m^2 times a class dimension")
        summands.append(cls.name)
        dims.append(block_dim)
    order = sorted(range(len(summands)), key=lambda t: (summands[t], dims[t]))
    return Fusion2Product(summands=tuple(summands[t] for t in order),
                          block_dims=tuple(dims[t] for t in order))


def _center_block_is_imaginary(tensor: algebras.StructureConstantAlgebra, center: list[list],
                               idem: list) -> bool:
    """True if the 2-dimensional center block e * Z is an imaginary quadratic
    field: the first z e, z in the center basis, that is not a multiple of e
    has minimal polynomial x^2 + b x + c, and b^2 - 4c < 0 exactly then."""
    for vec in center:
        f = algebras.min_poly_of_matrix(tensor, vec, idem)
        if f.degree == 2:
            c, b, _ = f.coeffs
            return b * b - 4 * c < 0
    raise IdentificationAmbiguous("could not find a quadratic generator")


# -- prime field family ------------------------------------------------------

def irreducible_polynomial(p: int, degree: int) -> Poly:
    """First monic irreducible of the given degree over F_p, in lex order."""
    base = PrimeField(p)
    if degree == 1:
        return Poly.from_ints(base, [0, 1])  # x itself
    # lex order on (c_0, c_1, ...); every candidate with c_0 = 0 is divisible by x
    for tail in itertools.product(range(1, p), *[range(p)] * (degree - 1)):
        f = Poly.from_ints(base, list(tail) + [1])
        if factor_list(f) == [(f, 1)]:
            return f
    raise AssertionError(f"no irreducible polynomial of degree {degree} over F_{p}")


def finite_field_tensor(p: int, q: int, r: int) -> Fusion2Product:
    """Summands of F_{p^q} (x)_{F_p} F_{p^r} = F_{p^q}[y]/(f), with f the
    lex-first irreducible of degree r over F_p: one per irreducible factor of
    f over F_{p^q}.

    The factors are the orbits of y -> y^(p^q) on the roots of f, so there
    are r/d of them, each of degree d, the least d with y^(p^(q d)) = y in
    F_p[y]/(f).  Each summand is F_{p^(q d)}, a block of dimension q d over
    F_p.

    The computed answer is gcd(q, r) copies of the lcm(q, r) extension.  The
    widely quoted shortcut "min(q, r) copies of the larger field" agrees with
    the computation only when one degree divides the other; the result flags
    whether it holds for these inputs.

    The work, the lex search for f and at most r powers by p^(q mod r) modulo
    f, depends on p and r only, so the guard bounds p * r.
    """
    if q < 1 or r < 1:
        raise UsageError("extension degrees must be positive")
    if p * r > FFIELD_DEGREE_GUARD:
        raise SizeGuardExceeded(p * r, FFIELD_DEGREE_GUARD)
    f = [c.v for c in irreducible_polynomial(p, r).coeffs]
    y = _zdivmod([0, 1], f, p)[1]
    # y -> y^p has order r on F_p[y]/(f), so y^(p^q) = y^(p^(q mod r))
    step = p ** (q % r)
    w, d = _zpow(y, step, f, p), 1
    while w != y:
        w, d = _zpow(w, step, f, p), d + 1
    copies = r // d
    assert copies == gcd(q, r), "factor count must equal gcd(q, r)"
    summands = (finite_ext(q * d).name,) * copies
    expected_rule = (finite_ext(max(q, r)).name,) * min(q, r)
    return Fusion2Product(summands=summands, block_dims=(q * d,) * copies,
                          r_copies_rule_holds=(summands == expected_rule))
