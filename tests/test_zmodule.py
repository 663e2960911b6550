"""Module validation, irreducibility, and the bounded enumerations."""

import itertools
import math

import pytest

from modcat.basedring import (BasedRingData, fibonacci_ring,
                              find_weak_based_involutions, group_ring,
                              rings_equivalent, trivial_ring,
                              validate_zplus_ring)
from modcat.errors import SizeGuardExceeded
from modcat.pointed import FiniteAbelianGroup, subgroups
from modcat.zmodule import (SEARCH_WORK_BUDGET, ActionLawFails, EnumerationBounds,
                            RingNotWeakBased, UnitActionFails, ZPlusModuleData,
                            direct_sum, enumerate_irreducible_modules,
                            enumerate_ring_homs, invertible_generators,
                            is_indecomposable, is_irreducible, regular_module,
                            validate_module)


@pytest.fixture(scope="module")
def z2():
    return validate_zplus_ring(group_ring([2]))


@pytest.fixture(scope="module")
def z3():
    return validate_zplus_ring(group_ring([3]))


@pytest.fixture(scope="module")
def z4():
    return validate_zplus_ring(group_ring([4]))


@pytest.fixture(scope="module")
def klein():
    return validate_zplus_ring(group_ring([2, 2]))


@pytest.fixture(scope="module")
def z6():
    return validate_zplus_ring(group_ring([6]))


@pytest.fixture(scope="module")
def z5():
    return validate_zplus_ring(group_ring([5]))


@pytest.fixture(scope="module")
def fib():
    return validate_zplus_ring(fibonacci_ring())


@pytest.fixture(scope="module")
def unit_ring():
    return validate_zplus_ring(trivial_ring())


def rank_one_module(ring, values):
    return ZPlusModuleData.build(ring, [((v,),) for v in values])


def test_regular_module_of_z2_validates(z2):
    module = regular_module(z2)
    assert module.rank == 2
    assert module.action[1] == ((0, 1), (1, 0))


def test_rank_one_trivial_module_over_z2(z2):
    module = validate_module(rank_one_module(z2, [1, 1]))
    assert is_irreducible(module)
    assert is_indecomposable(module)


def test_fibonacci_rank_one_fails_action_law(fib):
    # b acting by 1 contradicts b^2 = 1 + b: 1 * 1 != 1 + 1
    with pytest.raises(ActionLawFails):
        validate_module(rank_one_module(fib, [1, 1]))


def test_unit_action_failure(z2):
    data = ZPlusModuleData.build(z2, [((2,),), ((1,),)])
    with pytest.raises(UnitActionFails):
        validate_module(data)


@pytest.mark.parametrize("action", [
    [((1,),), ((1.5,),)],        # not an int
    [((1,),), ((True,),)],       # a bool is not an int
    [((1,),)],                   # one matrix for a rank-2 ring
    [((1,),), ((1,),), ((1,),)],
    [((1, 0),), ((0, 1),)],      # not square
    [((1,),), ((1, 0), (0, 1))],  # ranks differ
    [1, 1],
])
def test_build_refuses_malformed_actions(z2, action):
    with pytest.raises(ValueError):
        ZPlusModuleData.build(z2, action)


def test_negative_entry_rejected(z2):
    from modcat.zmodule import NegativeEntry
    data = ZPlusModuleData.build(z2, [((1,),), ((-1,),)])
    with pytest.raises(NegativeEntry):
        validate_module(data)


def test_regular_modules_are_irreducible(z2, z3):
    assert is_irreducible(regular_module(z2))
    assert is_irreducible(regular_module(z3))


def test_direct_sum_is_reducible_and_decomposable(z2):
    trivial = validate_module(rank_one_module(z2, [1, 1]))
    total = direct_sum(trivial, trivial)
    assert not is_irreducible(total)
    assert not is_indecomposable(total)
    mixed = direct_sum(regular_module(z2), trivial)
    assert not is_indecomposable(mixed)


def test_rank_one_trivial_is_indecomposable(z2):
    assert is_indecomposable(validate_module(rank_one_module(z2, [1, 1])))


def test_bounds_are_ring_derived(z2, fib):
    assert EnumerationBounds.for_ring(z2).n_max == 2       # (1+g)^2 = 2 + 2g
    assert EnumerationBounds.for_ring(fib).n_max == 3      # (1+b)^2 = 2 + 3b
    assert EnumerationBounds.for_ring(z2, cap_scale=2).n_max == 4


@pytest.mark.parametrize("cap_scale", [0, -1])
def test_cap_scale_below_one_is_refused(z2, cap_scale):
    # a cap below the forced bound would truncate the exhaustive search and
    # report too few modules (0 instead of 2 for Z/2), so it is an error
    with pytest.raises(ValueError):
        EnumerationBounds.for_ring(z2, cap_scale)
    with pytest.raises(ValueError):
        EnumerationBounds.for_hom(z2, z2, cap_scale)
    with pytest.raises(ValueError):
        enumerate_irreducible_modules(z2, cap_scale=cap_scale)
    with pytest.raises(ValueError):
        enumerate_ring_homs(z2, z2, cap_scale=cap_scale)


# -- brute-force oracles ------------------------------------------------------

def oracle_modules_single_generator(ring, generator_index, power_relations, cap):
    """Exhaustive oracle for rings generated by one basis element.

    Enumerates every candidate matrix for the generator with entries up to
    ``cap`` and ranks up to ``cap``, derives the other action matrices as
    powers, and filters by the module laws.  Returns canonical keys.
    """
    found = set()
    for rank in range(1, cap + 1):
        cells = rank * rank
        for entries in itertools.product(range(cap + 1), repeat=cells):
            mat = tuple(tuple(entries[l * rank + k] for k in range(rank))
                        for l in range(rank))
            action = [None] * ring.rank
            identity = tuple(tuple(1 if l == k else 0 for k in range(rank))
                             for l in range(rank))
            action[0] = identity
            power = identity
            for index in power_relations:
                power = tuple(
                    tuple(sum(power[l][s] * mat[s][k] for s in range(rank))
                          for k in range(rank)) for l in range(rank))
                action[index] = power
            # cheap pre-filter: the product of the last power with the
            # generator must match its structure-constant expansion
            last = power_relations[-1]
            closure = tuple(
                tuple(sum(power[l][s] * mat[s][k] for s in range(rank))
                      for k in range(rank)) for l in range(rank))
            expected = tuple(
                tuple(sum(ring.data.mult[last][generator_index][k] * action[k][l][c]
                          for k in range(ring.rank))
                      for c in range(rank)) for l in range(rank))
            if closure != expected:
                continue
            try:
                module = validate_module(ZPlusModuleData.build(ring, action))
            except Exception:
                continue
            if not is_irreducible(module):
                continue
            found.add(module.canonical_key())
    return found


def test_z2_enumeration_matches_oracle(z2):
    cap = EnumerationBounds.for_ring(z2).n_max
    oracle = oracle_modules_single_generator(z2, 1, [1], cap)
    enumerated = {m.canonical_key() for m in enumerate_irreducible_modules(z2)}
    assert enumerated == oracle
    assert len(enumerated) == 2


def test_z3_enumeration_matches_oracle(z3):
    cap = EnumerationBounds.for_ring(z3).n_max
    oracle = oracle_modules_single_generator(z3, 1, [1, 2], cap)
    enumerated = {m.canonical_key() for m in enumerate_irreducible_modules(z3)}
    assert enumerated == oracle
    assert len(enumerated) == 2


def test_fibonacci_enumeration_matches_oracle(fib):
    cap = EnumerationBounds.for_ring(fib).n_max
    oracle = oracle_modules_single_generator(fib, 1, [1], cap)
    enumerated = {m.canonical_key() for m in enumerate_irreducible_modules(fib)}
    assert enumerated == oracle
    assert len(enumerated) == 1
    assert next(iter(enumerate_irreducible_modules(fib))).rank == 2


def test_enumerated_modules_all_validate_and_are_unique(z2, z3, fib):
    for ring in (z2, z3, fib):
        modules = enumerate_irreducible_modules(ring)
        keys = [m.canonical_key() for m in modules]
        assert len(keys) == len(set(keys))
        for m in modules:
            validate_module(m.data)
            assert is_irreducible(m)
            assert is_indecomposable(m)  # irreducible implies indecomposable


def test_cap_doubling_finds_nothing_new(z2, z3, z4, klein, fib):
    for ring in (z2, z3, z4, klein, fib):
        baseline = {m.canonical_key() for m in enumerate_irreducible_modules(ring)}
        doubled = {m.canonical_key() for m in enumerate_irreducible_modules(ring, cap_scale=2)}
        assert baseline == doubled


def test_enumeration_requires_weak_based_ring():
    from tests.test_basedring import mod_real_object_ring
    ring = validate_zplus_ring(mod_real_object_ring())
    with pytest.raises(RingNotWeakBased):
        enumerate_irreducible_modules(ring)


def tensor_ring(a, b):
    """The based ring a (x) b: basis pairs, constants and unit multiplied."""
    pairs = list(itertools.product(range(a.rank), range(b.rank)))
    mult = [[[a.mult[i][j][k] * b.mult[i2][j2][k2] for k, k2 in pairs]
             for j, j2 in pairs] for i, i2 in pairs]
    unit = [a.unit_coeffs[i] * b.unit_coeffs[i2] for i, i2 in pairs]
    return BasedRingData.build([a.labels[i] + b.labels[i2] for i, i2 in pairs], mult, unit)


@pytest.fixture(scope="module")
def z3xz3_refusal():
    """The refusal of the Z/3 x Z/3 module search, run once for the tests below."""
    with pytest.raises(SizeGuardExceeded) as info:
        enumerate_irreducible_modules(validate_zplus_ring(group_ring([3, 3])))
    return info.value


def test_rank_guard_on_enumeration(z3xz3_refusal):
    # it would finish past the budget, in about 37 s; the count of work done
    # stops it within seconds
    assert isinstance(z3xz3_refusal, SizeGuardExceeded)


def test_rank_guard_reports_the_search_size(z3xz3_refusal):
    assert z3xz3_refusal.guard == SEARCH_WORK_BUDGET < z3xz3_refusal.size


@pytest.mark.parametrize("data", [
    pytest.param(tensor_ring(fibonacci_ring(), fibonacci_ring()), id="FibxFib"),
    # the third refusal at the full budget would add its 4 s to the default run
    pytest.param(tensor_ring(group_ring([3]), fibonacci_ring()), id="Z3xFib",
                 marks=pytest.mark.slow),
])
def test_module_search_stops_at_the_work_budget(data):
    # each would finish past the budget (in about 160 and 12 s); the count of
    # work done stops it within seconds
    with pytest.raises(SizeGuardExceeded) as info:
        enumerate_irreducible_modules(validate_zplus_ring(data))
    assert info.value.guard == SEARCH_WORK_BUDGET < info.value.size


def test_hom_search_stops_at_the_work_budget():
    ring = validate_zplus_ring(group_ring([2, 2, 2, 2]))
    with pytest.raises(SizeGuardExceeded) as info:
        enumerate_ring_homs(ring, ring)
    assert info.value.guard == SEARCH_WORK_BUDGET < info.value.size


ABELIAN_GROUPS_UP_TO_8 = [(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,),
                          (2, 4), (2, 2, 2)]


def test_invertible_generators(z3, klein, fib, unit_ring):
    for ring in (z3, klein, validate_zplus_ring(group_ring([2, 4]))):
        assert invertible_generators(ring) == frozenset(range(ring.rank))
    assert invertible_generators(fib) == {0}  # b^2 = 1 + b
    assert invertible_generators(unit_ring) == {0}


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,)])
@pytest.mark.parametrize("cap_scale", [1, 2])
def test_module_count_is_the_subgroup_count(orders, cap_scale):
    # the irreducible modules of Z[G] are the transitive G-sets G/H
    ring = validate_zplus_ring(group_ring(list(orders)))
    modules = enumerate_irreducible_modules(ring, cap_scale=cap_scale)
    assert len(modules) == len(subgroups(FiniteAbelianGroup(orders)))


@pytest.mark.slow
@pytest.mark.parametrize("orders", [(8,), (2, 4), (2, 2, 2)])
def test_module_count_is_the_subgroup_count_at_order_8(orders):
    ring = validate_zplus_ring(group_ring(list(orders)))
    modules = enumerate_irreducible_modules(ring)
    assert len(modules) == len(subgroups(FiniteAbelianGroup(orders)))


def test_grothendieck_compatibility_with_pointed_counts(z2, z3, z5):
    # the module count over the group ring of Z/n matches the number of
    # (subgroup, cohomology class) pairs at characteristic zero
    from modcat.fieldprofile import alg_closed
    from modcat.pointed import FiniteAbelianGroup, module_classes
    for n, ring in [(2, z2), (3, z3), (5, z5)]:
        classes = module_classes(FiniteAbelianGroup((n,)), alg_closed(0))
        modules = enumerate_irreducible_modules(ring)
        assert len(modules) == len(classes)


# -- homomorphisms ------------------------------------------------------------

def oracle_homs(source, target, cap):
    """Exhaustive oracle over all coordinate matrices up to the cap."""
    ns, nt = source.rank, target.rank
    s_cert = find_weak_based_involutions(source)[0]
    t_cert = find_weak_based_involutions(target)[0]
    results = []
    for flat in itertools.product(range(cap + 1), repeat=ns * nt):
        g = [list(flat[i * nt:(i + 1) * nt]) for i in range(ns)]
        if [sum(source.unit_coeffs[i] * g[i][j] for i in range(ns))
                for j in range(nt)] != list(target.unit_coeffs):
            continue
        ok = True
        for i in range(ns):
            for j in range(ns):
                left = target.product(g[i], g[j])
                right = tuple(sum(source.data.mult[i][j][k] * g[k][coord] for k in range(ns))
                              for coord in range(nt))
                if left != right:
                    ok = False
        for i in range(ns):
            starred = [0] * nt
            for j in range(nt):
                starred[t_cert.involution[j]] = g[i][j]
            if g[s_cert.involution[i]] != starred:
                ok = False
        if ok:
            results.append(tuple(tuple(row) for row in g))
    return sorted(results)


def test_homs_z2_to_z2(z2):
    homs = enumerate_ring_homs(z2, z2)
    assert len(homs) == 2
    matrices = {h.matrix for h in homs}
    assert ((1, 0), (0, 1)) in matrices  # g -> g
    assert ((1, 0), (1, 0)) in matrices  # g -> 1
    cap = 2 * 2  # |J| * N
    assert sorted(h.matrix for h in homs) == oracle_homs(z2, z2, cap)


def test_hom_counts_are_the_group_hom_counts():
    # f(g) f(g^-1) = 1 with non-negative coordinates makes each f(g) a single
    # group element, so the homs Z[G] -> Z[H] are the group homs G -> H, and
    # for G = sum_i Z/a_i and H = sum_j Z/b_j there are prod gcd(a_i, b_j);
    # every pair up to order 8, and a few above rank 8
    pairs = list(itertools.product(ABELIAN_GROUPS_UP_TO_8, repeat=2)) + [
        ((9,), (3,)), ((3, 3), (3,)), ((10,), (10,)), ((12,), (2,))]
    rings = {orders: validate_zplus_ring(group_ring(list(orders)))
             for pair in pairs for orders in pair}
    for a, b in pairs:
        expected = math.prod(math.gcd(x, y) for x in a for y in b)
        assert len(enumerate_ring_homs(rings[a], rings[b])) == expected, (a, b)


def test_homs_fibonacci_to_trivial(fib, unit_ring):
    assert enumerate_ring_homs(fib, unit_ring) == []
    assert oracle_homs(fib, unit_ring, 1 * 3) == []


def test_homs_z3_to_trivial(z3, unit_ring):
    homs = enumerate_ring_homs(z3, unit_ring)
    assert len(homs) == 1
    assert homs[0].matrix == ((1,), (1,), (1,))
    assert sorted(h.matrix for h in homs) == oracle_homs(z3, unit_ring, 1 * 3)


def test_hom_cap_doubling_stability(z2, z3, z6, klein, fib, unit_ring):
    for source, target in [(z2, z2), (fib, unit_ring), (z3, unit_ring), (z3, z3),
                           (z6, z3), (klein, klein)]:
        baseline = [h.matrix for h in enumerate_ring_homs(source, target)]
        doubled = [h.matrix for h in enumerate_ring_homs(source, target, cap_scale=2)]
        assert baseline == doubled


def test_homs_source_bound_suffices_for_mixed_rings(z2, fib):
    # N comes from the source ring; check against the oracle at a much
    # larger cap when source and target have different coefficients
    homs = enumerate_ring_homs(z2, fib)
    assert [h.matrix for h in homs] == oracle_homs(z2, fib, 8)
    assert len(homs) == 1  # g must land on the unit
    back = enumerate_ring_homs(fib, z2)
    assert [h.matrix for h in back] == oracle_homs(fib, z2, 8)


def test_homs_match_oracle_at_the_exact_cap_on_mixed_pairs(z2, z3):
    cap = 3 * 2  # |J| * N: N = 2 for Z/2 and 3 for Z/3
    for source, target in [(z2, z3), (z3, z2)]:
        assert cap == EnumerationBounds.for_hom(source, target).coeff_bound_hom
        homs = [h.matrix for h in enumerate_ring_homs(source, target)]
        assert homs == oracle_homs(source, target, cap)
        assert len(homs) == 1  # gcd(2, 3) = 1: only the trivial hom


def relabeled(data, perm):
    """The same ring with basis element i renamed perm[i]."""
    r = data.rank
    mult = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, j, k in itertools.product(range(r), repeat=3):
        mult[perm[i]][perm[j]][perm[k]] = data.mult[i][j][k]
    unit, labels = [0] * r, [None] * r
    for i in range(r):
        unit[perm[i]] = data.unit_coeffs[i]
        labels[perm[i]] = data.labels[i]
    return BasedRingData.build(labels, mult, unit)


def test_counts_are_invariant_under_ring_basis_relabeling(z2, z4):
    # the unit moves to index 2, so generator 0 has unit coefficient 0
    moved = validate_zplus_ring(relabeled(z4.data, (2, 0, 3, 1)))
    assert moved.unit_coeffs == (0, 0, 1, 0)
    assert rings_equivalent(moved, z4)
    plain, permuted = (enumerate_irreducible_modules(ring) for ring in (z4, moved))
    assert len(permuted) == len(plain) == 3
    assert sorted(m.rank for m in permuted) == sorted(m.rank for m in plain)
    assert len(enumerate_ring_homs(moved, z2)) == len(enumerate_ring_homs(z4, z2)) == 2
    assert len(enumerate_ring_homs(z2, moved)) == len(enumerate_ring_homs(z2, z4)) == 2
    assert len(enumerate_ring_homs(moved, moved)) == len(enumerate_ring_homs(z4, z4)) == 4


def search_order_key(action, perm):
    """The entries of ``action`` relabeled by ``perm``, in the order the
    search fills them: row by row, cell by cell, generator by generator."""
    r = len(perm)
    return [mat[perm[l]][perm[k]] for l in range(r) for k in range(r) for mat in action]


def test_enumeration_returns_the_first_labeling_of_each_class(z3, z4, klein, fib):
    # the first labeling the search meets has row 0 of least row sum in F and
    # is otherwise lexicographically least; the row-0 column order skips
    # other labelings, never that one
    for ring in (z3, z4, klein, fib):
        for module in enumerate_irreducible_modules(ring):
            r, action = module.rank, module.action
            row_sums = [sum(mat[l][k] for mat in action for k in range(r)) for l in range(r)]
            first = min(search_order_key(action, perm)
                        for perm in itertools.permutations(range(r))
                        if row_sums[perm[0]] == min(row_sums))
            assert search_order_key(action, range(r)) == first


def test_homs_preserve_everything(z3):
    for hom in enumerate_ring_homs(z3, z3):
        g = [list(row) for row in hom.matrix]
        tring = hom.target.ring
        sring = hom.source.ring
        for i in range(sring.rank):
            for j in range(sring.rank):
                left = tring.product(g[i], g[j])
                right = tuple(sum(sring.data.mult[i][j][k] * g[k][c] for k in range(sring.rank))
                              for c in range(tring.rank))
                assert left == right
