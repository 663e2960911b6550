"""Canonical keys up to basis permutation against the brute-force minimum."""

import itertools

from hypothesis import given, settings, strategies as st

from modcat.basedring import BasedRingData, ValidatedRing, canonical_form, group_ring
from modcat.zmodule import ValidatedModule, ZPlusModuleData

GROUP_RINGS = [group_ring(orders) for orders in ([1], [2], [3], [4], [2, 2], [5], [6])]


def brute_force_ring_key(ring):
    """Oracle: the least (unit, mult) key over every basis permutation, each
    key built in full."""
    unit, mult = ring.unit_coeffs, ring.data.mult
    return min((tuple(unit[a] for a in inv),
                tuple(mult[a][b][c] for a in inv for b in inv for c in inv))
               for inv in itertools.permutations(range(ring.rank)))


def brute_force_module_key(module):
    """Oracle: the least concatenated action matrices over every basis
    permutation, each key built in full."""
    r = module.rank
    return r, min(tuple(mat[perm[l]][perm[k]]
                        for mat in module.action for l in range(r) for k in range(r))
                  for perm in itertools.permutations(range(r)))


def table(unit, mult):
    # canonical_form reads only the table, so tables that are no ring are
    # keyed too
    return ValidatedRing(BasedRingData.build([str(i) for i in range(len(unit))], mult, unit))


def relabelled_table(ring, perm):
    """The table with basis element i renamed perm[i]."""
    r = ring.rank
    mult = [[[0] * r for _ in range(r)] for _ in range(r)]
    unit = [0] * r
    for i, j, k in itertools.product(range(r), repeat=3):
        mult[perm[i]][perm[j]][perm[k]] = ring.data.mult[i][j][k]
    for i in range(r):
        unit[perm[i]] = ring.unit_coeffs[i]
    return table(unit, mult)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_form_is_the_brute_force_minimum(data):
    # a relabelled group ring of rank <= 6, with up to three cells (and maybe
    # a unit coordinate) then set to a value in 0..2
    base = ValidatedRing(data.draw(st.sampled_from(GROUP_RINGS)))
    ring = relabelled_table(base, data.draw(st.permutations(range(base.rank))))
    r = ring.rank
    mult = [[list(cell) for cell in plane] for plane in ring.data.mult]
    unit = list(ring.unit_coeffs)
    index = st.integers(0, r - 1)
    for _ in range(data.draw(st.integers(0, 3))):
        mult[data.draw(index)][data.draw(index)][data.draw(index)] = data.draw(st.integers(0, 2))
    if data.draw(st.booleans()):
        unit[data.draw(index)] = data.draw(st.integers(0, 2))
    ring = table(unit, mult)
    key = canonical_form(ring)
    assert key == brute_force_ring_key(ring)
    assert canonical_form(relabelled_table(ring, data.draw(st.permutations(range(r))))) == key


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_canonical_key_is_the_brute_force_minimum(data):
    # 1-3 action matrices of rank 1-5 with entries 0..2; canonical_key reads
    # only the matrices, so they need not satisfy the module laws
    r, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2), min_size=r, max_size=r)
    action = data.draw(st.lists(st.lists(row, min_size=r, max_size=r), min_size=n, max_size=n))
    ring = ValidatedRing(GROUP_RINGS[n - 1])  # any ring of rank n
    module = ValidatedModule(ZPlusModuleData.build(ring, action))
    key = module.canonical_key()
    assert key == brute_force_module_key(module)
    perm = data.draw(st.permutations(range(r)))
    relabelled = [[[mat[perm[l]][perm[k]] for k in range(r)] for l in range(r)] for mat in action]
    assert ValidatedModule(ZPlusModuleData.build(ring, relabelled)).canonical_key() == key
