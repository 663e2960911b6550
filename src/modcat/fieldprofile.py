"""Base-field descriptors and their division-algebra and Brauer data.

A :class:`FieldProfile` names the kind of base field in play: algebraically
closed of some characteristic, real closed, a finite prime field, the
rationals, or a separably closed non-perfect field known only by a tag.  The
operations attach the finite division-algebra bookkeeping each kind carries:
one class over an algebraically closed field, exactly three over a real
closed field (the base, its quadratic extension, the quaternions), the
finite-extension ladder over a prime field.  Over the rationals finiteness
genuinely fails, so the listing operation refuses instead of truncating and
callers fall back to explicit witnesses (see :mod:`modcat.pointed`).

Whether compactness forces finiteness over every separably closed base field
is not decided by anything here; profiles of kind SEPARABLY_CLOSED_NONPERFECT
support only the closure classification.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import fields
from .errors import ModcatError, UsageError


class FieldKind(Enum):
    ALG_CLOSED = "ALG_CLOSED"
    REAL_CLOSED = "REAL_CLOSED"
    FINITE = "FINITE"
    RATIONALS = "RATIONALS"
    SEPARABLY_CLOSED_NONPERFECT = "SEPARABLY_CLOSED_NONPERFECT"


class SeparableClosureKind(Enum):
    SEPARABLY_CLOSED = "SEPARABLY_CLOSED"
    REAL_CLOSED = "REAL_CLOSED"
    INFINITE_SEPARABLE_CLOSURE = "INFINITE_SEPARABLE_CLOSURE"


class DivisionLabel(Enum):
    BASE = "BASE"
    COMPLEXIFICATION = "COMPLEXIFICATION"
    QUATERNION = "QUATERNION"
    FINITE_EXT = "FINITE_EXT"


class UnsupportedProfile(ModcatError):
    pass


class NotInBrauerGroup(ModcatError):
    pass


@dataclass(frozen=True)
class FieldProfile:
    kind: FieldKind
    char: int = 0
    tag: str = ""

    def __post_init__(self):
        if self.kind == FieldKind.ALG_CLOSED:
            if self.char != 0 and not fields._is_prime(self.char):
                raise UsageError("characteristic must be 0 or prime")
        elif self.kind == FieldKind.FINITE:
            if not fields._is_prime(self.char):
                raise UsageError("finite profile needs a prime characteristic")
        elif self.kind in (FieldKind.REAL_CLOSED, FieldKind.RATIONALS):
            if self.char != 0:
                raise UsageError(f"{self.kind.value} forces characteristic 0")

    @property
    def code(self) -> str:
        if self.kind == FieldKind.ALG_CLOSED:
            return f"ac{self.char}"
        if self.kind == FieldKind.REAL_CLOSED:
            return "rc"
        if self.kind == FieldKind.FINITE:
            return f"fp{self.char}"
        if self.kind == FieldKind.RATIONALS:
            return "q"
        return f"sep:{self.tag}"


def alg_closed(char: int = 0) -> FieldProfile:
    return FieldProfile(FieldKind.ALG_CLOSED, char)


def real_closed() -> FieldProfile:
    return FieldProfile(FieldKind.REAL_CLOSED, 0)


def finite(p: int) -> FieldProfile:
    return FieldProfile(FieldKind.FINITE, p)


def rationals() -> FieldProfile:
    return FieldProfile(FieldKind.RATIONALS, 0)


def separably_closed_nonperfect(tag: str, char: int) -> FieldProfile:
    return FieldProfile(FieldKind.SEPARABLY_CLOSED_NONPERFECT, char, tag)


def profile_from_code(code: str) -> FieldProfile:
    """Parse profile codes: "ac0", "ac<p>", "rc", "fp<p>", "q", "sep:<tag>"."""
    if code.startswith("ac"):
        return alg_closed(fields._code_int(code, "ac", "field profile code"))
    if code == "rc":
        return real_closed()
    if code.startswith("fp"):
        return finite(fields._code_int(code, "fp", "field profile code"))
    if code == "q":
        return rationals()
    if code.startswith("sep:"):
        return separably_closed_nonperfect(code[4:], 0)
    raise UsageError(f"unknown field profile code: {code!r}")


@dataclass(frozen=True)
class DivisionAlgebraClass:
    label: DivisionLabel
    ext_degree: int = 1  # q for FINITE_EXT(q), 1 otherwise

    def __post_init__(self):
        if self.label != DivisionLabel.FINITE_EXT and self.ext_degree != 1:
            raise ValueError("ext_degree is reserved for FINITE_EXT")
        if self.ext_degree < 1:
            raise ValueError("ext_degree must be positive")

    @property
    def dim_over_base(self) -> int:
        return {DivisionLabel.BASE: 1,
                DivisionLabel.COMPLEXIFICATION: 2,
                DivisionLabel.QUATERNION: 4,
                DivisionLabel.FINITE_EXT: self.ext_degree}[self.label]

    @property
    def brauer_order(self) -> int:
        return 2 if self.label == DivisionLabel.QUATERNION else 1

    @property
    def name(self) -> str:
        if self.label == DivisionLabel.FINITE_EXT:
            return f"FINITE_EXT({self.ext_degree})"
        return self.label.value


BASE = DivisionAlgebraClass(DivisionLabel.BASE)
COMPLEXIFICATION = DivisionAlgebraClass(DivisionLabel.COMPLEXIFICATION)
QUATERNION = DivisionAlgebraClass(DivisionLabel.QUATERNION)


def finite_ext(q: int) -> DivisionAlgebraClass:
    return DivisionAlgebraClass(DivisionLabel.FINITE_EXT, q)


def classify_finite_separable_closure(profile: FieldProfile) -> SeparableClosureKind:
    """Whether the separable closure is a finite extension, and of which shape."""
    if profile.kind in (FieldKind.ALG_CLOSED, FieldKind.SEPARABLY_CLOSED_NONPERFECT):
        return SeparableClosureKind.SEPARABLY_CLOSED
    if profile.kind == FieldKind.REAL_CLOSED:
        return SeparableClosureKind.REAL_CLOSED
    return SeparableClosureKind.INFINITE_SEPARABLE_CLOSURE


def division_algebra_classes(profile: FieldProfile, max_dim: int) -> list[DivisionAlgebraClass]:
    """All finite-dimensional division-algebra classes of dimension <= max_dim.

    Refuses the rationals: the list is infinite there, and silent truncation
    would misrepresent it.
    """
    if max_dim < 1:
        raise ValueError("max_dim must be positive")
    if profile.kind == FieldKind.ALG_CLOSED:
        return [BASE]
    if profile.kind == FieldKind.REAL_CLOSED:
        return [c for c in (BASE, COMPLEXIFICATION, QUATERNION) if c.dim_over_base <= max_dim]
    if profile.kind == FieldKind.FINITE:
        return [finite_ext(q) for q in range(1, max_dim + 1)]
    raise UnsupportedProfile(
        f"profile {profile.code} has no finite list of division algebra classes")


def brauer_add(profile: FieldProfile, a: DivisionAlgebraClass,
               b: DivisionAlgebraClass) -> DivisionAlgebraClass:
    """Group law of the Brauer group of the base field.

    Over a real closed field the group is {BASE, QUATERNION} of order two;
    COMPLEXIFICATION is not central over the base and is rejected.  Over
    algebraically closed and finite fields the group is trivial.
    """
    if profile.kind not in (FieldKind.REAL_CLOSED, FieldKind.ALG_CLOSED, FieldKind.FINITE):
        raise UnsupportedProfile(f"no Brauer arithmetic for profile {profile.code}")
    for x in (a, b):
        if x.label == DivisionLabel.COMPLEXIFICATION:
            raise NotInBrauerGroup("COMPLEXIFICATION is not central over the base field")
    if profile.kind == FieldKind.REAL_CLOSED:
        # Z/2: quaternion classes cancel in pairs
        if a.label == b.label:
            return BASE
        return QUATERNION if DivisionLabel.QUATERNION in (a.label, b.label) else BASE
    return BASE
