"""Based rings: validation, tau, involution certificates, group rings."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from modcat.algebras import nucleus_generators
from modcat import basedring
from modcat.basedring import (BasedRingData, NegativeConstant,
                              NotAssociative, UnitLawFails, canonical_form, fibonacci_ring,
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


def test_product_compares_with_the_unit():
    # products are tuples like unit_coeffs and the dense cells of data.mult,
    # so b_0 b_0 = 1 holds as an equality of coordinates
    ring = validate_zplus_ring(group_ring([2]))
    assert ring.product((1, 0), (1, 0)) == ring.unit_coeffs
    assert ring.product((0, 1), (0, 1)) == ring.data.mult[1][1] == ring.unit_coeffs


def test_validate_fibonacci_by_hand():
    # b^2 = 1 + b: the eight associativity identities reduce to
    # (b b) b = b + b^2 = 1 + 2b = b (b b); the unit is b_0, so validation
    # expands the row of b only
    ring = validate_zplus_ring(fibonacci_ring())
    assert ring.product([0, 1], [0, 1]) == (1, 1)
    assert nucleus_generators(ring.mult, ring.unit_coeffs) == [1]


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


def dense_first_failure(mult, unit):
    """Oracle on the dense table: the first (i, j, k, l) in lex order where
    the b_l coordinates of (b_i b_j) b_k and b_i (b_j b_k) differ, else the
    first i with 1 b_i != b_i or b_i 1 != b_i, else None."""
    r = len(mult)
    for i, j, k, l in itertools.product(range(r), repeat=4):
        left = sum(mult[i][j][m] * mult[m][k][l] for m in range(r))
        right = sum(mult[j][k][m] * mult[i][m][l] for m in range(r))
        if left != right:
            return NotAssociative, (i, j, k, l)
    for i in range(r):
        for t in range(r):
            if (sum(unit[m] * mult[m][i][t] for m in range(r)) != (t == i)
                    or sum(unit[m] * mult[i][m][t] for m in range(r)) != (t == i)):
                return UnitLawFails, i
    return None


@st.composite
def ring_tables(draw):
    """A random non-negative table of rank <= 4, or a group ring of rank up to
    8 with one structure constant or unit coordinate changed."""
    if draw(st.booleans()):
        r = draw(st.integers(1, 4))
        cell = st.lists(st.integers(0, 2), min_size=r, max_size=r)
        square = st.lists(cell, min_size=r, max_size=r)
        return draw(st.lists(square, min_size=r, max_size=r)), draw(cell)
    data = group_ring(draw(st.sampled_from([[2], [3], [4], [2, 2], [5], [6], [2, 3], [7],
                                            [8], [2, 4], [2, 2, 2]])))
    mult = [[list(cell) for cell in plane] for plane in data.mult]
    unit = list(data.unit_coeffs)
    r = data.rank
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, r - 1)) for _ in range(3))
        mult[i][j][k] = draw(st.integers(0, 2).filter(lambda v: v != mult[i][j][k]))
    else:
        m = draw(st.integers(0, r - 1))
        unit[m] = draw(st.integers(0, 2).filter(lambda v: v != unit[m]))
    return mult, unit


@settings(max_examples=300, deadline=None)
@given(table=ring_tables())
def test_validation_names_the_dense_oracles_first_failure(table):
    mult, unit = table
    expected = dense_first_failure(mult, unit)
    data = BasedRingData.build([f"b{i}" for i in range(len(mult))], mult, unit)
    try:
        validate_zplus_ring(data)
    except NotAssociative as exc:
        assert expected == (NotAssociative, exc.indices)
    except UnitLawFails as exc:
        assert expected == (UnitLawFails, exc.index)
    else:
        assert expected is None


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
                    if ring.data.mult[i][j][k] != ring.data.mult[sigma[j]][sigma[i]][sigma[k]]:
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


def tuple_group_ring(orders):
    """Labels, mult, unit and involution of Z[Z/n_1 + ...], built on tuples."""
    elements = list(itertools.product(*(range(n) for n in orders)))
    zero = tuple(0 for _ in orders)
    if len(orders) == 1:
        labels = tuple("e" if a == 0 else "g" if a == 1 else f"g^{a}" for (a,) in elements)
    else:
        labels = tuple("(" + ",".join(map(str, g)) + ")" for g in elements)
    mult = tuple(tuple(tuple(int(k == tuple((a + b) % n for a, b, n in zip(g, h, orders)))
                             for k in elements) for h in elements) for g in elements)
    unit = tuple(int(g == zero) for g in elements)
    involution = tuple(elements.index(tuple(-a % n for a, n in zip(g, orders)))
                       for g in elements)
    return labels, mult, unit, involution


@pytest.mark.parametrize("orders", [[1], [1, 2], [2, 3], [3, 2], [2, 1, 3]], ids=str)
def test_group_ring_on_order_lists_that_are_not_chains(orders):
    data = group_ring(orders)
    assert (data.labels, data.mult, data.unit_coeffs, data.involution) == \
        tuple_group_ring(orders)


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


def test_rank_13_is_certified():
    ring = validate_zplus_ring(group_ring([13]))
    (cert,) = find_weak_based_involutions(ring)
    assert cert.involution == (0,) + tuple(range(12, 0, -1))  # g -> g^-1
    assert cert.based


def test_canonical_form_guard_counts_permutation_keys(monkeypatch):
    # the guard bounds the work done, 1 per permutation and per key entry
    # compared or written; it is deterministic, so a second call stops at the
    # same count
    monkeypatch.setattr(basedring, "SEARCH_WORK_BUDGET", 1_000)
    ring = validate_zplus_ring(group_ring([2, 2, 2]))
    with pytest.raises(SizeGuardExceeded) as info:
        canonical_form(ring)
    assert info.value.guard == 1_000 < info.value.size
    with pytest.raises(SizeGuardExceeded) as again:
        canonical_form(ring)
    assert again.value.size == info.value.size


def test_canonical_form_at_rank_8():
    # the least unit vector puts the 1 of the identity last
    ring = validate_zplus_ring(group_ring([2, 2, 2]))
    assert canonical_form(ring)[0] == (0,) * 7 + (1,)


@pytest.mark.slow
def test_canonical_form_stops_at_the_work_budget_at_rank_9():
    # about 2 s of work before the refusal
    ring = validate_zplus_ring(group_ring([9]))
    with pytest.raises(SizeGuardExceeded) as info:
        canonical_form(ring)
    assert info.value.guard == basedring.SEARCH_WORK_BUDGET < info.value.size


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
