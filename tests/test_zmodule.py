"""Module validation, irreducibility, and the bounded enumerations."""

import hashlib
import itertools
import math
from operator import le, mul

import pytest
from hypothesis import example, given, settings, strategies as st

from modcat import zmodule
from modcat.basedring import (BasedRingData, fibonacci_ring,
                              find_weak_based_involutions, group_ring,
                              rings_equivalent, trivial_ring,
                              validate_zplus_ring)
from modcat.errors import SizeGuardExceeded, ValidationError
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


def test_the_zero_module_is_refused(z2):
    data = ZPlusModuleData.build(z2, [(), ()])
    assert data.rank == 0
    with pytest.raises(ValidationError, match="rank must be at least 1"):
        validate_module(data)


def test_negative_entry_rejected(z2):
    from modcat.zmodule import NegativeEntry
    data = ZPlusModuleData.build(z2, [((1,),), ((-1,),)])
    with pytest.raises(NegativeEntry):
        validate_module(data)


# validated once, for the drawn actions below
LAW_RINGS = {name: validate_zplus_ring(data) for name, data in (
    ("Z2", group_ring([2])), ("Z3", group_ring([3])), ("Z2xZ2", group_ring([2, 2])),
    ("Fib", fibonacci_ring()))}
# small entries, entries about 2^64, and entries up to 2^80
ENTRIES = st.one_of(st.integers(0, 2), st.integers(2**64 - 2, 2**64 + 2),
                    st.integers(0, 2**80))


def nested_sum_law_failure(ring, action):
    """The first (i, j), in validate_module's order, with A_i A_j != sum_k
    c_ij^k A_k, entry by entry over the dense table; None when the law holds."""
    n, r = ring.rank, len(action[0])
    for i in range(n):
        for j in range(n):
            for l in range(r):
                for m in range(r):
                    left = sum(action[i][l][s] * action[j][s][m] for s in range(r))
                    right = sum(ring.data.mult[i][j][k] * action[k][l][m] for k in range(n))
                    if left != right:
                        return i, j
    return None


@st.composite
def unit_acting_as_identity(draw):
    """A ring and an action with the identity for the unit b_0: the regular
    module or random small matrices of rank 1 to 3, then up to two entries of
    the other matrices replaced by small or huge values."""
    ring = LAW_RINGS[draw(st.sampled_from(sorted(LAW_RINGS)))]
    if draw(st.booleans()):
        action = [[list(row) for row in mat] for mat in regular_module(ring).action]
    else:
        r = draw(st.integers(1, 3))
        action = [[[draw(st.integers(0, 2)) for _ in range(r)] for _ in range(r)]
                  for _ in range(ring.rank)]
    r = len(action[0])
    action[0] = [[int(l == k) for k in range(r)] for l in range(r)]
    for _ in range(draw(st.integers(0, 2))):
        row = action[draw(st.integers(1, ring.rank - 1))][draw(st.integers(0, r - 1))]
        row[draw(st.integers(0, r - 1))] = draw(ENTRIES)
    return ring, action


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=unit_acting_as_identity())
# fields only as wide as the largest entry, 4 bits, would pack row 0 of
# A_1 A_1 = (225, 0) and of A_2 = (1, 14) to the same int, 225 = 1 + 14 * 16
@example(case=(LAW_RINGS["Z3"], [[[1, 0], [0, 1]], [[15, 0], [0, 1]], [[1, 14], [0, 1]]]))
def test_validate_module_matches_nested_sums(case):
    # validate_module compares packed rows whose field width comes from the
    # largest entry given; the verdict and the failing pair must be those of
    # the plain entrywise check, however large the entries
    ring, action = case
    data = ZPlusModuleData.build(ring, action)
    failure = nested_sum_law_failure(ring, action)
    if failure is None:
        assert validate_module(data).action == data.action
    else:
        with pytest.raises(ActionLawFails) as info:
            validate_module(data)
        assert info.value.indices == failure


@pytest.mark.parametrize("data, cap_scale", [(group_ring([2]), 1), (group_ring([2]), 2),
                                             (group_ring([3]), 1), (group_ring([2, 2]), 1),
                                             (fibonacci_ring(), 1), (fibonacci_ring(), 3)],
                         ids=["Z2", "Z2-cap2", "Z3", "Z2xZ2", "Fib", "Fib-cap3"])
def test_packed_search_compare_holds_at_the_proven_extremes(data, cap_scale):
    # the module search compares a packed sum over a row against a packed
    # target in one subtraction, ((target | G) - partial) & G == G; with
    # M = max(b^2) n_max a sum is at most M^2 and a target at most
    # M max(b^2) or M max_ij sum_m c_ij^m, and for every pair of rows with
    # fields at and near those extremes the compare must be the entrywise one
    ring = validate_zplus_ring(data)
    n_max = EnumerationBounds.for_ring(ring, cap_scale).n_max
    ones = [1] * ring.rank
    b_squared = ring.product(ones, ones)
    b_max = max(b_squared)
    m = b_max * n_max
    top = m * max(b_max, max(sum(cell.values()) for plane in ring.mult for cell in plane))
    width = zmodule._search_width(b_squared, ring.mult, n_max)
    guard = sum(1 << (k * width + width - 1) for k in range(3))
    targets = sorted({0, 1, top // 2, top - 1, top})
    sums = sorted(v for v in {*targets, top + 1, m * m // 2, m * m - 1, m * m} if v <= m * m)
    for partial in itertools.product(sums, repeat=3):
        packed = zmodule._pack(partial, width)
        for target in itertools.product(targets, repeat=3):
            fits = ((zmodule._pack(target, width) | guard) - packed) & guard == guard
            assert fits == all(map(le, partial, target)), (partial, target)


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


def test_enumerated_modules_share_the_ring_given_without_involution():
    # the certificate holds the ring it certifies, so a module found through
    # it sums with the ring's own regular module
    data = group_ring([2])
    ring = validate_zplus_ring(BasedRingData.build(data.labels, data.mult, data.unit_coeffs))
    (cert,) = find_weak_based_involutions(ring)
    assert cert.ring is ring
    module = enumerate_irreducible_modules(cert)[0]
    assert direct_sum(module, regular_module(ring)).rank == module.rank + 2


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

def _relation_row_holds(unit_row, row, cols, top, relation):
    """Row l of the defining relation M^top = sum c M^e, from e_l and row l of M."""
    chain = [unit_row, row]
    for _ in range(top - 1):
        chain.append(tuple(sum(map(mul, chain[-1], col)) for col in cols))
    return chain[top] == tuple(sum(c * chain[e][k] for e, c in relation)
                               for k in range(len(row)))


def oracle_modules_single_generator(ring, generator_index, power_relations, cap):
    """Exhaustive oracle for rings generated by one basis element.

    Enumerates every candidate matrix M for the generator with entries up to
    ``cap`` and ranks up to ``cap``; basis element ``power_relations[j]`` acts
    by M^(j+1).  Each candidate, a flat tuple of ints, must first satisfy the
    defining relation b_last b_gen = sum_k N_{last,gen}^k b_k, tested row by
    row so that most fail on row 0.  Only the survivors get their powers
    built and are filtered by the module laws.  Returns canonical keys.
    """
    exponent = {0: 0, **{index: j + 1 for j, index in enumerate(power_relations)}}
    top = len(power_relations) + 1
    relation = [(exponent[k], c)
                for k, c in enumerate(ring.data.mult[power_relations[-1]][generator_index]) if c]
    found = set()
    for rank in range(1, cap + 1):
        identity = tuple(tuple(int(l == k) for k in range(rank)) for l in range(rank))
        for entries in itertools.product(range(cap + 1), repeat=rank * rank):
            cols = [entries[k::rank] for k in range(rank)]
            if not all(_relation_row_holds(identity[l], entries[l * rank:(l + 1) * rank],
                                           cols, top, relation) for l in range(rank)):
                continue
            action = [None] * ring.rank
            action[0] = power = identity
            for index in power_relations:
                power = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in power)
                action[index] = power
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
    # it would finish past the budget, in about 10 s; the count of work done
    # stops it within seconds
    assert isinstance(z3xz3_refusal, SizeGuardExceeded)


def test_rank_guard_reports_the_search_size(z3xz3_refusal):
    assert z3xz3_refusal.guard == SEARCH_WORK_BUDGET < z3xz3_refusal.size == 7_000_706


@pytest.mark.parametrize("orders,budget,size", [
    ((4,), 1_000, 1_019), ((2, 2), 1_000, 1_239), ((6,), 1_000, 1_003),
    ((6,), 20_000, 21_072), ((2, 4), 200_000, 200_046), ((7,), 50_000, 50_019)])
def test_module_search_work_count_is_pinned(monkeypatch, orders, budget, size):
    # the work count is part of the refusal payload: how the laws are summed
    # may change, the charges may not
    monkeypatch.setattr(zmodule, "SEARCH_WORK_BUDGET", budget)
    with pytest.raises(SizeGuardExceeded) as info:
        enumerate_irreducible_modules(validate_zplus_ring(group_ring(list(orders))))
    assert (info.value.size, info.value.guard) == (size, budget)


@pytest.mark.parametrize("data,cap_scale,count,digest", [
    (group_ring([2]), 1, 2, "0ea40350bfd8cc0e88594e5bd58f21371270bf0920bf98baeb903a795af5ce48"),
    (group_ring([3]), 1, 2, "710b7ab6bf63c3686c05d9a79d87b64c543fe832c1a31071a7ae995632b41ad9"),
    (group_ring([4]), 1, 3, "60f4837c921b0fdc36a5969c874f148dfe5754bf05766c585f3b516feca81808"),
    (group_ring([2, 2]), 1, 5, "282817a9b436a78ba918a90cf0d6d70e0fa9348126a822d6c7f9fc6a8ead74a3"),
    (group_ring([5]), 1, 2, "0fe985793cc176958b57beb095be24a1268fb8cc47aa27df485cd84e36276997"),
    (group_ring([6]), 1, 4, "7c4591d760dd473d2e94de121a5c89057fe2ba688bfaa1fe9520664b2a2056d3"),
    (group_ring([7]), 1, 2, "c4738b8cecf64ff4400756a1b5bacf0104c1000587a994632381da74739241d4"),
    (group_ring([4]), 2, 3, "60f4837c921b0fdc36a5969c874f148dfe5754bf05766c585f3b516feca81808"),
    (group_ring([2, 2]), 2, 5, "282817a9b436a78ba918a90cf0d6d70e0fa9348126a822d6c7f9fc6a8ead74a3"),
    (group_ring([5]), 2, 2, "0fe985793cc176958b57beb095be24a1268fb8cc47aa27df485cd84e36276997"),
    (fibonacci_ring(), 1, 1, "87c636dc8cdd87bb2abf7cc9e272ac62a453d78bd983c1666cc05b83aa8d20f1"),
])
def test_search_actions_are_pinned(data, cap_scale, count, digest):
    # the raw search output, in search order and before deduplication by
    # key, which would hide any change to that order
    ring = validate_zplus_ring(data)
    actions = list(zmodule._search_actions(ring, EnumerationBounds.for_ring(ring, cap_scale),
                                           invertible_generators(ring)))
    assert len(actions) == count
    assert hashlib.sha256(repr(actions).encode()).hexdigest() == digest


@pytest.mark.parametrize("data", [
    pytest.param(tensor_ring(fibonacci_ring(), fibonacci_ring()), id="FibxFib"),
    # the third refusal at the full budget would add its 2 s to the default run
    pytest.param(tensor_ring(group_ring([3]), fibonacci_ring()), id="Z3xFib",
                 marks=pytest.mark.slow),
])
def test_module_search_stops_at_the_work_budget(data):
    # each would finish past the budget (in about 60 and 8 s); the count of
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
