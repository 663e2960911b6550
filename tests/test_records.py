"""``errors.record``: the records behave as the frozen dataclasses they
replaced, checked against ``dataclasses`` itself where it has an answer."""

import dataclasses

import pytest

from modcat.basedring import WeakBasedCertificate
from modcat.cli import CommandResult
from modcat.dy import DYComplex, PointedFunctorData, SeparabilityDiagnostic
from modcat.errors import UsageError, ValidationError, record
from modcat.fields import QQ
from modcat.fieldprofile import FieldKind, FieldProfile
from modcat.fusion2 import Fusion2Product
from modcat.linalg import Matrix
from modcat.pointed import BraidingParam, FiniteAbelianGroup, H2Descriptor, PointedCatData
from modcat.skeleton import CompactnessReport
from modcat.zmodule import EnumerationBounds


def _point(decorate):
    @decorate
    class Base:
        first: int
        second: str = "b"

    @decorate
    class Point(Base):
        third: tuple = ()
        second: str = "s"  # redefined: keeps its place after first, with the new default

    return Point


Point, DataPoint = _point(record), _point(dataclasses.dataclass(frozen=True))

# one instance of each frozen record, with the field tuple it must hash as
INSTANCES = [
    (FiniteAbelianGroup((2, 4)), ((2, 4),)),
    (H2Descriptor((2, 2)), ((2, 2), False)),
    (BraidingParam(3, 1), (3, 1)),
    (FieldProfile(FieldKind.FINITE, 5), (FieldKind.FINITE, 5, "")),
    (Fusion2Product(("a", "b"), (1, 1), True), (("a", "b"), (1, 1), True)),
    (SeparabilityDiagnostic(0, 1, False), (0, 1, False)),
    (CompactnessReport(1, 2, True), (1, 2, True)),
    (EnumerationBounds(3), (3, 0)),
    (PointedCatData(FiniteAbelianGroup((3,))), (FiniteAbelianGroup((3,)), 0, None)),
]


@pytest.mark.parametrize("value, fields", INSTANCES, ids=[type(v).__name__ for v, _ in INSTANCES])
def test_a_frozen_record_hashes_as_its_field_tuple(value, fields):
    assert hash(value) == hash(fields)
    assert value == type(value)(*fields)


def test_records_match_the_dataclass_they_replace():
    for args, kwargs in [((1,), {}), ((1, "x"), {}), ((1,), {"third": (2,)}),
                         ((), {"second": "y", "first": 0}), ((0, "x", (1,)), {}),
                         ((), {"third": (1,), "second": "y", "first": 0})]:
        ours, theirs = Point(*args, **kwargs), DataPoint(*args, **kwargs)
        assert repr(ours) == repr(theirs)
        assert list(vars(ours)) == list(vars(theirs))  # set in field order, whatever the call
        assert hash(ours) == hash(theirs)
        assert [ours.first, ours.second, ours.third] == [theirs.first, theirs.second,
                                                         theirs.third]
    assert repr(Point(1)) == "_point.<locals>.Point(first=1, second='s', third=())"
    assert (repr(PointedCatData(FiniteAbelianGroup((2,))))
            == "PointedCatData(group=FiniteAbelianGroup(cyclic_orders=(2,)), "
               "cocycle_tag=0, braiding=None)")


def test_equality_holds_within_one_class_only():
    assert SeparabilityDiagnostic(1, 2, True) == SeparabilityDiagnostic(1, 2, True)
    assert SeparabilityDiagnostic(1, 2, True) != CompactnessReport(1, 2, True)
    assert SeparabilityDiagnostic(1, 2, True) != (1, 2, True)
    assert len({BraidingParam(3, 1), BraidingParam(3, 1), BraidingParam(3, 2)}) == 2


def test_a_frozen_record_refuses_assignment_and_deletion():
    value = BraidingParam(3, 1)
    with pytest.raises(AttributeError, match="cannot assign to field 'p'"):
        value.p = 5
    with pytest.raises(AttributeError, match="cannot delete field 'p'"):
        del value.p
    with pytest.raises(AttributeError):
        value.new_name = 0
    assert value == BraidingParam(3, 1)


def test_defaults_keywords_and_positions_give_the_same_record():
    assert FieldProfile(FieldKind.RATIONALS) == FieldProfile(kind=FieldKind.RATIONALS, char=0, tag="")
    assert Fusion2Product(("1",)).block_dims == () and Fusion2Product(("1",)).r_copies_rule_holds is None
    assert EnumerationBounds(2, coeff_bound_hom=6) == EnumerationBounds(n_max=2, coeff_bound_hom=6)
    assert CompactnessReport(1, num_simples=2, is_connected=True) == CompactnessReport(1, 2, True)


@pytest.mark.parametrize("args, kwargs", [((1,), {}),                       # missing
                                          ((1, 2, True, 4), {}),            # extra
                                          ((1, 2), {"connected": True}),    # unknown
                                          ((), {"num_components": 1, "num_simples": 2,
                                                "connected": True}),        # unknown
                                          ((1, 2, True), {"num_simples": 2}),  # repeated
                                          ((), {})])
def test_a_wrong_argument_list_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CompactnessReport(*args, **kwargs)
    with pytest.raises(TypeError):
        dataclasses.dataclass(frozen=True)(type("CompactnessReport", (), {
            "__annotations__": {"num_components": int, "num_simples": int,
                                "is_connected": bool}}))(*args, **kwargs)


def test_post_init_still_validates():
    with pytest.raises(UsageError):
        BraidingParam(3, 3)
    with pytest.raises(UsageError):
        FieldProfile(FieldKind.FINITE, 4)
    z2, z4 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,))
    with pytest.raises(ValidationError, match="one image per source generator"):
        PointedFunctorData(source=z2, target=z4, hom=(), field=QQ)
    with pytest.raises(ValidationError, match="not have dividing order"):
        PointedFunctorData(z2, z4, ((1,),), QQ)
    with pytest.raises(ValidationError, match="degree 0: d\\^0 is 1x1, not 2x1"):
        DYComplex(1, (1, 2), (Matrix.from_ints(QQ, [[0]]),))
    with pytest.raises(ValidationError):
        Fusion2Product(())


def test_an_own_init_is_kept():
    with pytest.raises(UsageError, match="divisibility chain"):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(UsageError):
        FiniteAbelianGroup((1,))
    assert FiniteAbelianGroup(["2", 4]).cyclic_orders == (2, 4)


def test_based_is_read_from_the_t_values():
    cert = WeakBasedCertificate(None, (0, 1), (1, 1), frozenset({0}))
    assert cert.based and not WeakBasedCertificate(None, (0,), (2,), frozenset({0})).based
    assert cert == WeakBasedCertificate(None, (0, 1), (1, 1), frozenset({0}))


def test_a_record_with_a_dict_field_does_not_hash():
    result = CommandResult("error", {})
    assert result == CommandResult("error", {}, None) and result.exit_code == 1
    with pytest.raises(TypeError):
        hash(result)
    assert repr(result) == "CommandResult(status='error', payload={}, human_table=None)"
