"""Skeleton validation, pi0 and the compact-not-finite family."""

import pytest

from modcat.errors import SizeGuardExceeded
from modcat.skeleton import (FAMILY_SIZE_GUARD, AsymmetricHom, CompactnessReport,
                             IndexOutOfRange,
                             SchurViolation, TwoCatSkeleton, ZeroIdentity,
                             compactness_report, decompose_object,
                             mod_pointed_skeleton, mod_real_skeleton, pi0,
                             truncated_family_2vect_fp, validate_skeleton)


def test_all_connected_pair_is_valid():
    s = validate_skeleton(TwoCatSkeleton.build(["a", "b"], [[1, 1], [1, 1]]))
    assert s.size == 2


def test_asymmetric_hom_detected():
    with pytest.raises(AsymmetricHom):
        validate_skeleton(TwoCatSkeleton.build(["a", "b"], [[1, 1], [0, 1]]))


def test_schur_violation_detected():
    data = TwoCatSkeleton.build(
        ["a", "b", "c"],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    with pytest.raises(SchurViolation):
        validate_skeleton(data)


def test_zero_identity_detected():
    with pytest.raises(ZeroIdentity):
        validate_skeleton(TwoCatSkeleton.build(["a"], [[0]]))


def test_pi0_of_disjoint_union():
    data = TwoCatSkeleton.build(
        ["a", "b"],
        [[1, 0], [0, 1]])
    components = pi0(validate_skeleton(data))
    assert components == [[0], [1]]


def test_pi0_of_mod_real_is_connected():
    s = mod_real_skeleton()
    assert pi0(s) == [[0, 1, 2]]
    assert compactness_report(s) == CompactnessReport(1, 3, True)


def test_pointed_skeleton_char_zero_vs_char_p():
    s0 = mod_pointed_skeleton(5, 0)
    assert compactness_report(s0) == CompactnessReport(1, 2, True)
    sp = mod_pointed_skeleton(5, 5)
    assert compactness_report(sp) == CompactnessReport(1, 1, True)


def test_empty_skeleton_report():
    s = validate_skeleton(TwoCatSkeleton.build([], []))
    assert compactness_report(s) == CompactnessReport(0, 0, False)


@pytest.mark.parametrize("depth", [1, 3, 5, 8])
def test_truncated_family_connected_and_growing(depth):
    s = truncated_family_2vect_fp(2, depth)
    report = compactness_report(s)
    assert report.num_components == 1
    assert report.num_simples == depth
    assert report.is_connected
    assert s.data.max_end_dim == tuple(range(1, depth + 1))


@pytest.mark.parametrize("p", [4, 1, 0, -3])
def test_truncated_family_rejects_non_prime_p(p):
    with pytest.raises(ValueError, match="not prime"):
        truncated_family_2vect_fp(p, 3)


def test_truncated_family_depth_guard_counts_schur_steps():
    with pytest.raises(SizeGuardExceeded) as info:
        truncated_family_2vect_fp(2, 257)
    assert (info.value.size, info.value.guard) == (257 ** 3, FAMILY_SIZE_GUARD)


@pytest.mark.slow
def test_truncated_family_depth_guard_boundary_finishes():
    assert FAMILY_SIZE_GUARD == 256 ** 3
    assert compactness_report(truncated_family_2vect_fp(2, 256)).num_simples == 256


def test_truncated_family_hom_dims_gcd():
    s = truncated_family_2vect_fp(2, 4)
    # number of simple 1-morphism summands between extensions of degree q, r
    # is gcd(q, r); cross-checked against the tensor computation in fusion2
    assert s.data.hom_dims[1][3] == 2  # q=2, r=4
    assert s.data.hom_dims[2][1] == 1  # q=3, r=2
    from modcat.fusion2 import finite_field_tensor
    assert len(finite_field_tensor(2, 2, 4).summands) == 2
    assert len(finite_field_tensor(2, 3, 2).summands) == 1


def test_pi0_stable_under_adding_edges_inside_components():
    # a three-element component missing nothing vs the same component grown
    # from a sparser-but-transitively-equal relation on five simples
    base = TwoCatSkeleton.build(
        ["a", "b", "c", "d", "e"],
        [[1, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 1, 1, 0, 0],
         [0, 0, 0, 1, 1], [0, 0, 0, 1, 1]])
    partition = pi0(validate_skeleton(base))
    assert partition == [[0, 1, 2], [3, 4]]
    # adding any edge already inside a component changes nothing
    refined = [list(row) for row in base.hom_nonzero]
    refined[3][4] = refined[4][3] = True
    again = pi0(validate_skeleton(TwoCatSkeleton.build(base.simples, refined)))
    assert again == partition


def test_components_are_cliques_after_validation():
    s = truncated_family_2vect_fp(3, 4)
    for comp in pi0(s):
        for i in comp:
            for j in comp:
                assert s.hom_nonzero[i][j]


def test_decompose_object():
    s = mod_real_skeleton()
    assert decompose_object(s, [(1, 2), (0, 1)]) == [(0, 1), (1, 2)]
    assert decompose_object(s, []) == []
    assert decompose_object(s, [(2, 1), (2, 1)]) == [(2, 2)]
    with pytest.raises(IndexOutOfRange):
        decompose_object(s, [(7, 1)])
