"""Subgroups, cohomology class counts, braidings, square classes."""

import itertools
from functools import cache
from math import gcd, isqrt, prod

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from modcat import pointed
from modcat.errors import SizeGuardExceeded, UsageError
from modcat.fieldprofile import alg_closed, finite, rationals
from modcat.pointed import (MODULE_CLASS_GUARD, SQUARE_CLASS_GUARD, SUBGROUP_WORK_BUDGET,
                            BraidingParam, FiniteAbelianGroup, PointedCatData,
                            UnsupportedField, UnsupportedFieldGroupPair,
                            braidings_on_cyclic, h2_of_abelian, module_classes,
                            square_class_witnesses, subgroups)


def test_group_construction_validates_chain():
    FiniteAbelianGroup((2, 4))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1, 2))


@pytest.mark.parametrize("orders,count", [
    ((3,), 2),
    ((4,), 3),
    ((2, 2), 5),
    ((5,), 2),
    ((2, 4), 8),
    ((8,), 4),
    ((3, 3), 6),
])
def test_subgroup_counts(orders, count):
    assert len(subgroups(FiniteAbelianGroup(orders))) == count


def test_klein_subgroups_by_order():
    subs = subgroups(FiniteAbelianGroup((2, 2)))
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]
    assert subs[-1].invariant_factors == (2, 2)


def test_subgroups_closed_and_deduplicated():
    group = FiniteAbelianGroup((2, 4))
    subs = subgroups(group)
    element_sets = [frozenset(s.elements) for s in subs]
    assert len(element_sets) == len(set(element_sets))
    for s in subs:
        for g, h in itertools.product(s.elements, repeat=2):
            assert group.add(g, h) in set(s.elements)


# -- subgroup oracles ----------------------------------------------------------

def chains(limit):
    """Every invariant-factor chain n_1 | n_2 | ... (n_1 >= 2) of product <= limit,
    the empty chain included."""
    def extend(chain, order):
        yield chain
        for n in range(chain[-1] if chain else 2, limit // order + 1):
            if not chain or n % chain[-1] == 0:
                yield from extend(chain + (n,), order * n)
    return list(extend((), 1))


@cache
def subgroups_of(orders):
    return subgroups(FiniteAbelianGroup(orders))


def closure_subgroups(group: FiniteAbelianGroup) -> list[tuple]:
    """Reference enumeration: the subgroups' sorted element tuples, found by
    closing the trivial group under one more generator at a time, with every
    closure recomputed from all its generators."""
    def closure(gens):
        seen, frontier = {group.zero()}, [group.zero()]
        while frontier:
            g = frontier.pop()
            for h in gens:
                s = group.add(g, h)
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
        return frozenset(seen)

    found = {closure(()): ()}
    frontier = list(found.items())
    while frontier:
        current, gens = frontier.pop()
        for x in group.elements():
            if x not in current:
                bigger = closure(gens + (x,))
                if bigger not in found:
                    found[bigger] = gens + (x,)
                    frontier.append((bigger, gens + (x,)))
    return sorted((tuple(sorted(s)) for s in found), key=lambda e: (len(e), e))


def test_subgroups_match_the_closure_reference():
    assert len(chains(32)) == 55
    for orders in chains(32):
        assert [s.elements for s in subgroups_of(orders)] == \
            closure_subgroups(FiniteAbelianGroup(orders))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """The number of k-dimensional subspaces of F_p^n."""
    return prod(p ** (n - i) - 1 for i in range(k)) // prod(p ** (i + 1) - 1 for i in range(k))


def tuple_add_table(orders):
    """The index of each tuple sum g + h, with the elements listed by
    itertools.product, the first coordinate slowest."""
    elements = list(itertools.product(*(range(n) for n in orders)))
    index = {g: i for i, g in enumerate(elements)}
    return [[index[tuple((a + b) % n for a, b, n in zip(g, h, orders))] for h in elements]
            for g in elements]


def test_add_table_matches_tuple_sums():
    assert len(chains(64)) == 117
    for orders in chains(64) + [(1,), (1, 2), (2, 3), (3, 2), (2, 1, 3)]:
        table = pointed.add_table(orders)
        assert table == tuple_add_table(orders), orders
        # the identity is index 0: its row and column are the identity permutation
        assert table[0] == [row[0] for row in table] == list(range(prod(orders))), orders


def test_add_table_indexes_the_group_elements_in_order():
    # the same order as FiniteAbelianGroup.elements, so index i is elements()[i]
    for orders in chains(64):
        group = FiniteAbelianGroup(orders)
        elements = group.elements()
        table = pointed.add_table(orders)
        assert [[elements[k] for k in row] for row in table] == \
            [[group.add(g, h) for h in elements] for g in elements]


def test_group_labels_print_the_cyclic_factors():
    assert str(FiniteAbelianGroup(())) == "1"
    assert str(FiniteAbelianGroup((2, 4))) == "Z/2 x Z/4"
    klein = subgroups(FiniteAbelianGroup((2, 2)))
    assert [str(s) for s in klein] == ["1", "Z/2", "Z/2", "Z/2", "Z/2 x Z/2"]
    assert h2_of_abelian((3,), alg_closed(0)).label == "1"
    assert h2_of_abelian((2, 4, 4), alg_closed(0)).label == "Z/2 x Z/2 x Z/4"


@pytest.mark.parametrize("p,counts", [(2, [1, 2, 5, 16, 67, 374, 2825]),
                                      (3, [1, 2, 6, 28, 212])])
def test_elementary_abelian_counts_are_gaussian_binomial_sums(p, counts):
    # the subgroups of (Z/p)^n are the subspaces of F_p^n
    assert counts == [sum(gaussian_binomial(n, k, p) for k in range(n + 1))
                      for n in range(len(counts))]
    assert [len(subgroups_of((p,) * n)) for n in range(len(counts))] == counts


def test_invariant_factors_match_order_counts():
    # prod_i gcd(m, n_i) = #{x in H : mx = 0} for every m, which fixes H up
    # to isomorphism; the n_i form a divisibility chain of product |H|
    assert len(chains(64)) == 117
    for orders in chains(64):
        for sub in subgroups_of(orders):
            factors = sub.invariant_factors
            assert all(n >= 2 for n in factors)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
            assert prod(factors) == sub.order
            for m in range(1, sub.order + 1):
                if sub.order % m == 0:
                    killed = sum(1 for x in sub.elements
                                 if all(m * a % n == 0 for a, n in zip(x, orders)))
                    assert prod(gcd(m, n) for n in factors) == killed


def test_subgroup_work_budget():
    # the budget counts the work done, not the order: Z/1024 has 11 subgroups
    assert len(subgroups(FiniteAbelianGroup((1024,)))) == 11
    assert SUBGROUP_WORK_BUDGET == 1_362_000
    # the order is charged up front, before any element is built
    with pytest.raises(SizeGuardExceeded) as info:
        subgroups(FiniteAbelianGroup((10 ** 12,)))
    assert (info.value.size, info.value.guard) == (10 ** 12, SUBGROUP_WORK_BUDGET)


def test_subgroup_refusal_is_deterministic(monkeypatch):
    # (Z/2)^7 passes a small budget within milliseconds, at the same count twice
    monkeypatch.setattr(pointed, "SUBGROUP_WORK_BUDGET", 20_000)
    sizes = []
    for _ in range(2):
        with pytest.raises(SizeGuardExceeded) as info:
            subgroups(FiniteAbelianGroup((2,) * 7))
        assert info.value.guard == 20_000 < info.value.size <= 20_000 + 2 * 128
        sizes.append(info.value.size)
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("budget,orders,outcome", [
    (1_000, (2, 2, 2, 2), (1001, 1000)),
    (1_000, (4, 8), (1007, 1000)),
    (1_000, (2, 2, 6), (1003, 1000)),
    (1_000, (2, 4, 8), (1003, 1000)),
    (1_000, (3, 9), 10),
    (1_000, (27,), 4),
    (10_000, (2, 4, 8), (10001, 10000)),
    (10_000, (2, 2, 2, 2), 67),
])
def test_subgroup_work_accounting_is_pinned(monkeypatch, budget, orders, outcome):
    # the exact work at which each chain is refused, or its subgroup count
    # when the whole search fits in the budget
    monkeypatch.setattr(pointed, "SUBGROUP_WORK_BUDGET", budget)
    group = FiniteAbelianGroup(orders)
    if isinstance(outcome, int):
        assert len(subgroups(group)) == outcome
        return
    with pytest.raises(SizeGuardExceeded) as info:
        subgroups(group)
    assert (info.value.size, info.value.guard) == outcome


def test_module_class_guard_counts_classes_before_building(monkeypatch):
    assert MODULE_CLASS_GUARD == 156_000
    # (Z/2)^5 has 4,590 classes, the sum of |H^2(H; k*)| over its 374 subgroups
    group = FiniteAbelianGroup((2,) * 5)
    assert len(module_classes(group, alg_closed(0))) == 4590
    monkeypatch.setattr(pointed, "MODULE_CLASS_GUARD", 4589)
    with pytest.raises(SizeGuardExceeded) as info:
        module_classes(group, alg_closed(0))
    assert (info.value.size, info.value.guard) == (4590, 4589)
    # characteristic 2 drops the 2-torsion of H^2: one class per subgroup
    assert len(module_classes(group, alg_closed(2))) == 374


@pytest.mark.slow
def test_guards_at_their_boundary_cases():
    # (Z/2)^6, the class boundary, is admitted; (Z/3)^5 passes the work budget
    # and is refused by its 183,680 classes; (Z/2)^7 passes the work budget
    assert len(module_classes(FiniteAbelianGroup((2,) * 6), alg_closed(0))) == 151_470
    with pytest.raises(SizeGuardExceeded) as info:
        module_classes(FiniteAbelianGroup((3,) * 5), alg_closed(0))
    assert (info.value.size, info.value.guard) == (183_680, MODULE_CLASS_GUARD)
    with pytest.raises(SizeGuardExceeded) as info:
        subgroups(FiniteAbelianGroup((2,) * 7))
    assert info.value.guard == SUBGROUP_WORK_BUDGET < info.value.size == 1_362_001


# -- H^2 oracle ---------------------------------------------------------------

def oracle_h2_count(group: FiniteAbelianGroup) -> int:
    """Class count over an algebraically closed char-0 field, by exhaustive
    linear algebra on cocycle tables.

    Count the cocycle tables with values in the e^2-th roots of unity (e the
    exponent), then divide by the number of those that become coboundaries of
    k*-valued functions; a divisibility argument pins the latter at e^(2|H|).
    Solution counts come from the Smith normal form of the integer cocycle
    constraint matrix.
    """
    elements = group.elements()
    n = len(elements)
    e = group.exponent
    modulus = e * e
    pair_index = {(g, h): i for i, (g, h) in
                  enumerate(itertools.product(elements, repeat=2))}
    rows = []
    for x, y, z in itertools.product(elements, repeat=3):
        row = [0] * (n * n)
        row[pair_index[(y, z)]] += 1
        row[pair_index[(group.add(x, y), z)]] -= 1
        row[pair_index[(x, group.add(y, z))]] += 1
        row[pair_index[(x, y)]] -= 1
        rows.append(row)
    snf = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
    diagonal = [int(snf[i, i]) for i in range(min(snf.shape))]
    nonzero = [d for d in diagonal if d != 0]
    solutions = prod(sympy.gcd(d, modulus) for d in nonzero)
    solutions *= modulus ** (n * n - len(nonzero))
    coboundary_count = e ** (2 * n)
    assert solutions % coboundary_count == 0
    return int(solutions // coboundary_count)


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (2, 2), (5,), (6,),
                                    (2, 4), (8,), (2, 2, 2), (3, 3)])
def test_h2_matches_cocycle_oracle(orders):
    group = FiniteAbelianGroup(orders)
    descriptor = h2_of_abelian(group, alg_closed(0))
    assert descriptor.order == oracle_h2_count(group)


@pytest.mark.slow
@pytest.mark.parametrize("orders", [(7,), (10,), (11,), (12,), (2, 6), (13,),
                                    (14,), (15,), (16,), (2, 8), (4, 4),
                                    (2, 2, 4), (2, 2, 2, 2)])
def test_h2_matches_cocycle_oracle_up_to_order_sixteen(orders):
    group = FiniteAbelianGroup(orders)
    descriptor = h2_of_abelian(group, alg_closed(0))
    assert descriptor.order == oracle_h2_count(group)


def test_h2_examples():
    assert h2_of_abelian((5,), alg_closed(0)).order == 1
    assert h2_of_abelian((2, 2), alg_closed(0)).cyclic_orders == (2,)
    assert h2_of_abelian((2, 2), alg_closed(2)).order == 1  # p-torsion removed
    assert h2_of_abelian((2, 4), alg_closed(0)).cyclic_orders == (2,)
    assert h2_of_abelian((2, 2, 2), alg_closed(0)).order == 8
    assert h2_of_abelian((2,), rationals()).infinite
    assert h2_of_abelian((2,), rationals()).label == "INFINITE_SQUARE_CLASS_GROUP"


def test_h2_unsupported_pairs():
    with pytest.raises(UnsupportedFieldGroupPair):
        h2_of_abelian((3,), rationals())
    with pytest.raises(UnsupportedFieldGroupPair):
        h2_of_abelian((2,), finite(5))


def test_module_class_counts_cyclic():
    for p in (2, 3, 5):
        classes = module_classes(FiniteAbelianGroup((p,)), alg_closed(0))
        assert len(classes) == 2
        assert all(c.separable for c in classes)
        modular = module_classes(FiniteAbelianGroup((p,)), alg_closed(p))
        assert len(modular) == 2
        assert sum(1 for c in modular if c.separable) == 1
        # the non-separable class is the one with the full subgroup
        bad = [c for c in modular if not c.separable]
        assert bad[0].subgroup.order == p


def test_module_classes_klein():
    classes = module_classes(FiniteAbelianGroup((2, 2)), alg_closed(0))
    assert len(classes) == 6  # 1 + 3 + 2
    assert all(c.separable for c in classes)
    by_subgroup_order = {}
    for c in classes:
        by_subgroup_order.setdefault(c.subgroup.order, []).append(c)
    assert len(by_subgroup_order[1]) == 1
    assert len(by_subgroup_order[2]) == 3
    assert len(by_subgroup_order[4]) == 2  # H^2(Klein) has order 2


def test_module_class_count_is_sum_of_h2_orders():
    group = FiniteAbelianGroup((2, 4))
    classes = module_classes(group, alg_closed(0))
    total = sum(h2_of_abelian(s, alg_closed(0)).order for s in subgroups(group))
    assert len(classes) == total


def test_module_classes_unsupported_field():
    with pytest.raises(UnsupportedField):
        module_classes(FiniteAbelianGroup((2,)), rationals())


def test_braidings():
    assert len(braidings_on_cyclic(3, alg_closed(0))) == 3
    assert len(braidings_on_cyclic(3, alg_closed(3))) == 1
    assert len(braidings_on_cyclic(2, alg_closed(7))) == 2
    assert [b.zeta_exponent for b in braidings_on_cyclic(5, alg_closed(0))] == list(range(5))
    # p-th roots of unity count braidings for a prime p only
    with pytest.raises(UsageError, match="4 is not prime"):
        braidings_on_cyclic(4, alg_closed(2))


def test_square_class_witnesses():
    assert square_class_witnesses(10) == [1, 2, 3, 5, 6, 7, 10]
    assert square_class_witnesses(1) == [1]
    assert len(square_class_witnesses(30)) == 19


def test_square_class_sieve_matches_trial_division():
    def squarefree(n):
        return all(n % (d * d) for d in range(2, isqrt(n) + 1))
    witnesses = square_class_witnesses(5000)
    assert witnesses == [n for n in range(1, 5001) if squarefree(n)]
    for bound in range(1, 200):
        assert square_class_witnesses(bound) == [n for n in witnesses if n <= bound]


def test_square_class_guard():
    assert len(square_class_witnesses(SQUARE_CLASS_GUARD)) == 607926
    with pytest.raises(SizeGuardExceeded) as info:
        square_class_witnesses(SQUARE_CLASS_GUARD + 1)
    assert (info.value.size, info.value.guard) == (SQUARE_CLASS_GUARD + 1, SQUARE_CLASS_GUARD)


def test_square_classes_pairwise_inequivalent():
    witnesses = square_class_witnesses(40)
    assert witnesses == sorted(witnesses)
    for a, b in itertools.combinations(witnesses, 2):
        # the ratio a/b is a square in Q iff a*b is a perfect square
        product = a * b
        assert isqrt(product) ** 2 != product


def test_pointed_cat_data_carrier():
    datum = PointedCatData(FiniteAbelianGroup((5,)), braiding=BraidingParam(5, 2))
    assert len(datum.module_classes(alg_closed(0))) == 2
    twisted = PointedCatData(FiniteAbelianGroup((5,)), cocycle_tag=3)
    with pytest.raises(UnsupportedFieldGroupPair):
        twisted.module_classes(alg_closed(0))


def test_skeleton_end_rings_length_checked():
    from modcat.basedring import group_ring
    from modcat.skeleton import TwoCatSkeleton, validate_skeleton
    from modcat.errors import ValidationError
    good = TwoCatSkeleton.build(["a"], [[True]], end_rings=[group_ring([2])])
    validate_skeleton(good)
    with pytest.raises(ValidationError):
        validate_skeleton(TwoCatSkeleton.build(["a"], [[True]],
                                               end_rings=[group_ring([2])] * 2))


def test_square_class_growth_is_monotone():
    counts = [len(square_class_witnesses(b)) for b in range(1, 60)]
    assert all(x <= y for x, y in zip(counts, counts[1:]))
    assert counts[-1] > counts[0]
