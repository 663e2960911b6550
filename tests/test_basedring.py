"""Based rings: validation, tau, involution certificates, group rings."""

import itertools

import pytest

from modcat.basedring import (CANONICAL_FORM_GUARD, BasedRingData, NegativeConstant,
                              NotAssociative,
                              RankTooLargeForExhaustiveSearch, UnitLawFails,
                              canonical_form, fibonacci_ring,
                              find_weak_based_involutions, group_ring,
                              rings_equivalent, tau, trivial_ring,
                              validate_zplus_ring)
from modcat.errors import SizeGuardExceeded


def mod_real_object_ring() -> BasedRingData:
    # basis {1, c, h} with c^2 = 2c, ch = hc = c, h^2 = 1
    return BasedRingData.build(
        ["1", "c", "h"],
        [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 1, 0], [0, 2, 0], [0, 1, 0]],
         [[0, 0, 1], [0, 1, 0], [1, 0, 0]]],
        [1, 0, 0])


def test_validate_z2_group_ring():
    ring = validate_zplus_ring(group_ring([2]))
    assert ring.rank == 2
    assert ring.i0 == frozenset({0})


def test_validate_fibonacci_by_hand():
    # b^2 = 1 + b: the eight associativity identities reduce to
    # (b b) b = b + b^2 = 1 + 2b = b (b b); checked exhaustively by validation
    ring = validate_zplus_ring(fibonacci_ring())
    assert ring.product([0, 1], [0, 1]) == [1, 1]


def test_unit_law_failure_detected():
    # b^2 = b with unit claimed to be 1 + b: (1+b)b = 2b != b
    data = BasedRingData.build(
        ["e", "b"],
        [[[1, 0], [0, 1]], [[0, 1], [0, 1]]],
        [1, 1])
    with pytest.raises(UnitLawFails):
        validate_zplus_ring(data)


def test_negative_constants_detected():
    data = BasedRingData.build(["e"], [[[-1]]], [1])
    with pytest.raises(NegativeConstant):
        validate_zplus_ring(data)


def test_non_associative_detected():
    # c[1][1] = e, but c[1][e] twisted to break (b b) b = b (b b)
    data = BasedRingData.build(
        ["e", "b"],
        [[[1, 0], [0, 1]], [[0, 2], [1, 0]]],
        [1, 0])
    with pytest.raises(NotAssociative):
        validate_zplus_ring(data)


def test_tau_examples():
    z2 = validate_zplus_ring(group_ring([2]))
    assert tau(z2, [0, 1]) == 0
    assert tau(z2, [3, 5]) == 3
    fib = validate_zplus_ring(fibonacci_ring())
    assert tau(fib, [1, 1]) == 1


def brute_force_involutions(ring):
    """Oracle: try every permutation and check both axioms directly."""
    r = ring.rank
    results = []
    for sigma in itertools.permutations(range(r)):
        if any(sigma[sigma[i]] != i for i in range(r)):
            continue
        ok = True
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    if ring.mult[i][j][k] != ring.mult[sigma[j]][sigma[i]][sigma[k]]:
                        ok = False
        t_values = []
        for i in range(r):
            for j in range(r):
                t = tau(ring, ring.basis_product(i, j))
                if j == sigma[i]:
                    if t <= 0:
                        ok = False
                    else:
                        t_values.append(t)
                elif t != 0:
                    ok = False
        if ok:
            results.append((sigma, tuple(t_values)))
    return results


@pytest.mark.parametrize("data,expected_t", [
    (group_ring([2]), (1, 1)),
    (fibonacci_ring(), (1, 1)),
])
def test_weak_based_certificates(data, expected_t):
    ring = validate_zplus_ring(data)
    certs = find_weak_based_involutions(ring)
    assert len(certs) == 1
    assert certs[0].t_values == expected_t
    assert certs[0].based
    oracle = brute_force_involutions(ring)
    assert [(c.involution, c.t_values) for c in certs] == oracle


def test_z2_involution_is_identity():
    certs = find_weak_based_involutions(validate_zplus_ring(group_ring([2])))
    assert certs[0].involution == (0, 1)


def test_mod_real_object_ring_is_not_weak_based():
    ring = validate_zplus_ring(mod_real_object_ring())
    assert find_weak_based_involutions(ring) == []
    assert brute_force_involutions(ring) == []


@pytest.mark.parametrize("orders", [[2], [3], [2, 2], [4], [6], [2, 4]])
def test_group_rings_validate_and_certify(orders):
    data = group_ring(orders)
    ring = validate_zplus_ring(data)
    certs = find_weak_based_involutions(ring)
    assert len(certs) == 1
    assert certs[0].involution == data.involution  # g -> g^{-1}
    oracle = brute_force_involutions(ring)
    assert [(c.involution, c.t_values) for c in certs] == oracle


def test_group_ring_z3_structure():
    data = group_ring([3])
    assert data.rank == 3
    assert data.mult[1][1][2] == 1  # g * g = g^2
    assert data.involution == (0, 2, 1)


def test_klein_group_ring():
    data = group_ring([2, 2])
    assert data.rank == 4
    ring = validate_zplus_ring(data)
    assert find_weak_based_involutions(ring)[0].involution == (0, 1, 2, 3)


def test_rank_guard():
    data = group_ring([13])
    ring = validate_zplus_ring(data)
    with pytest.raises(RankTooLargeForExhaustiveSearch):
        find_weak_based_involutions(ring)


def test_canonical_form_guard_counts_permutation_keys():
    # the first refused rank: 9! permutations, each an r + r^3 = 738 key
    ring = validate_zplus_ring(group_ring([9]))
    with pytest.raises(SizeGuardExceeded) as info:
        canonical_form(ring)
    assert (info.value.size, info.value.guard) == (362880 * 738, CANONICAL_FORM_GUARD)


@pytest.mark.slow
def test_canonical_form_guard_boundary_finishes():
    # rank 8 is the largest admitted: 8! * (8 + 8^3) keys
    assert CANONICAL_FORM_GUARD == 40320 * 520
    ring = validate_zplus_ring(group_ring([2, 2, 2]))
    assert canonical_form(ring)[0] == (0,) * 7 + (1,)


def test_canonical_form_is_permutation_invariant():
    data = group_ring([3])
    ring = validate_zplus_ring(data)
    # permute the two non-unit basis elements by hand
    perm = [0, 2, 1]
    mult = [[[data.mult[perm[i]][perm[j]][perm[k]] for k in range(3)]
             for j in range(3)] for i in range(3)]
    permuted = BasedRingData.build(["e", "a", "b"], mult, [1, 0, 0])
    assert rings_equivalent(ring, validate_zplus_ring(permuted))
    assert not rings_equivalent(ring, validate_zplus_ring(fibonacci_ring()))
    assert canonical_form(ring) == canonical_form(validate_zplus_ring(permuted))


def test_trivial_ring_certificate():
    ring = validate_zplus_ring(trivial_ring())
    certs = find_weak_based_involutions(ring)
    assert certs[0].t_values == (1,)
