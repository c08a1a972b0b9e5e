from __future__ import annotations

from itertools import combinations, product

import pytest

from cayley.core import cyclic_group, symmetric_group
from cayley.errors import (
    MismatchedParentError,
    NoSuchElementError,
    NotPrimeError,
    NotSubgroupError,
    OnlyOneSubgroupError,
)
from cayley.morphisms import find_isomorphism
from cayley.products import direct_product
from cayley.subgroups import (
    Subgroup,
    as_group,
    bot,
    closure,
    conjugate_subgroup,
    distinct_subgroups_of_order,
    element_of_order,
    is_normal,
    join,
    meet,
    subgroup_from_members,
    subgroup_of_order,
    top,
)

from oracles import naive_closure, naive_subgroup_sets, small_group_corpus


def all_subgroups(g):
    return [Subgroup(g, tuple(sorted(s))) for s in sorted(naive_subgroup_sets(g), key=sorted)]


def test_closure_is_minimal_subgroup(s3):
    subsets = naive_subgroup_sets(s3)
    for gens in [(), (1,), (3,), (1, 3), (2, 5)]:
        got = set(closure(s3, gens).members)
        candidates = [s for s in subsets if set(gens) <= s]
        expected = min(candidates, key=len)
        assert got == set(expected)


def test_closure_examples(c6, s3):
    assert closure(c6, []).members == (0,)
    assert closure(c6, [1]).members == tuple(range(6))
    three_cycle = next(x for x in range(6) if s3.element_order(x) == 3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    assert closure(s3, [three_cycle, transposition]).members == tuple(range(6))


def test_subgroup_from_members_validates(s3):
    with pytest.raises(NotSubgroupError):
        subgroup_from_members(s3, [0, 1, 2])  # two transpositions, not closed
    with pytest.raises(NotSubgroupError, match="inverse of 3 missing"):
        subgroup_from_members(s3, [0, 3])  # a 3-cycle without its inverse
    with pytest.raises(NotSubgroupError, match=r"product 1\*2 escapes"):
        subgroup_from_members(s3, [0, 1, 2])
    with pytest.raises(NotSubgroupError, match="index 6 out of range"):
        subgroup_from_members(s3, [0, 1, 6])
    sub = subgroup_from_members(s3, [0, 3, 4])
    assert sub.members == (0, 3, 4)


def test_closure_rejects_out_of_range_generators(c6):
    # A negative index must not wrap round to the last element.
    with pytest.raises(NotSubgroupError, match="index -1 out of range"):
        closure(c6, [-1])
    with pytest.raises(NotSubgroupError, match="index 6 out of range"):
        closure(c6, [2, 6])


def test_lattice_laws():
    for g in [symmetric_group(3), cyclic_group(12)]:
        subs = all_subgroups(g)
        for a, b in product(subs, repeat=2):
            assert meet(a, b).members == meet(b, a).members
            assert join(a, b).members == join(b, a).members
            assert meet(a, a).members == a.members
            assert join(a, a).members == a.members
            assert meet(a, join(a, b)).members == a.members
            assert join(a, meet(a, b)).members == a.members
        for a, b, c in combinations(subs, 3):
            assert meet(meet(a, b), c).members == meet(a, meet(b, c)).members
            assert join(join(a, b), c).members == join(a, join(b, c)).members


def test_join_matches_naive_closure_of_the_union():
    for g in small_group_corpus(10):
        subs = all_subgroups(g)
        for a, b in product(subs, repeat=2):
            assert join(a, b).members == naive_closure(g, list(a.members + b.members)), g.order


def test_lattice_identities(s3):
    for a in all_subgroups(s3):
        assert meet(a, top(s3)).members == a.members
        assert join(a, bot(s3)).members == a.members


def test_meet_join_in_s3(s3):
    a3 = closure(s3, [next(x for x in range(6) if s3.element_order(x) == 3)])
    t = closure(s3, [next(x for x in range(6) if s3.element_order(x) == 2)])
    assert meet(a3, t).members == (0,)
    assert join(a3, t).members == tuple(range(6))


def test_mismatched_parent(c6, s3):
    with pytest.raises(MismatchedParentError):
        meet(top(c6), top(s3))


def test_normality(s3):
    assert is_normal(bot(s3)) and is_normal(top(s3))
    a3 = subgroup_of_order(s3, 3)
    assert is_normal(a3)
    t = subgroup_of_order(s3, 2)
    assert not is_normal(t)
    # Independent characterization: normal iff every conjugate equals H.
    for h in all_subgroups(s3):
        conjugates_fixed = all(
            conjugate_subgroup(h, g).members == h.members for g in range(6)
        )
        assert is_normal(h) == conjugates_fixed


def test_element_of_order_examples(c6, s3):
    assert element_of_order(c6, 3) == 2
    assert element_of_order(c6, 2) == 3
    two = element_of_order(s3, 2)
    assert s3.element_order(two) == 2
    assert all(s3.element_order(x) != 2 for x in range(two))
    with pytest.raises(NoSuchElementError):
        element_of_order(cyclic_group(15), 7)
    with pytest.raises(NotPrimeError):
        element_of_order(c6, 4)


def test_cauchy_exhaustive():
    groups = list(small_group_corpus(10))
    groups += [cyclic_group(n) for n in range(2, 101)]
    groups += [direct_product(cyclic_group(6), cyclic_group(10)).group]
    for g in groups:
        n = g.order
        p = 2
        while p <= n:
            if n % p == 0:
                x = element_of_order(g, p)
                assert g.element_order(x) == p
            p += 1
            while not all(p % d for d in range(2, int(p**0.5) + 1)):
                p += 1


def test_subgroup_of_order(s3, c6):
    a3 = subgroup_of_order(s3, 3)
    assert len(a3) == 3
    assert set(a3.members) == {0} | {x for x in range(6) if s3.element_order(x) == 3}
    assert subgroup_of_order(c6, 2).members == (0, 3)
    assert len(subgroup_of_order(cyclic_group(4), 2)) == 2


def test_distinct_subgroups(klein):
    a, b = distinct_subgroups_of_order(klein, 2)
    assert len(a) == len(b) == 2 and a.members != b.members
    assert meet(a, b).members == (0,)
    with pytest.raises(OnlyOneSubgroupError):
        distinct_subgroups_of_order(cyclic_group(4), 2)
    c3c3 = direct_product(cyclic_group(3), cyclic_group(3)).group
    a, b = distinct_subgroups_of_order(c3c3, 3)
    assert meet(a, b).members == (0,)
    # C3 x C3 has exactly four subgroups of order 3.
    assert sum(1 for s in naive_subgroup_sets(c3c3) if len(s) == 3) == 4


def test_as_group(s3):
    assert as_group(bot(s3)).group.order == 1
    a3 = subgroup_of_order(s3, 3)
    promoted = as_group(a3)
    assert promoted.group.order == 3
    assert find_isomorphism(promoted.group, cyclic_group(3)) is not None
    # The embedding is a homomorphism.
    for i in range(3):
        for j in range(3):
            assert (
                s3.mul(promoted.embed[i], promoted.embed[j])
                == promoted.embed[promoted.group.mul(i, j)]
            )
    whole = as_group(top(s3))
    assert whole.group == s3


def test_as_group_order_and_lagrange():
    for g in [symmetric_group(3), cyclic_group(12)]:
        for h in all_subgroups(g):
            assert as_group(h).group.order == len(h)
            assert g.order % len(h) == 0


def test_is_normal_and_as_group_match_naive_loops():
    for g in small_group_corpus(10):
        rows = g.table.tolist()
        inv = [rows[y].index(0) for y in range(g.order)]
        for x in range(g.order):
            h = closure(g, [x])
            members = set(h.members)
            normal = all(
                rows[rows[y][m]][inv[y]] in members for y in range(g.order) for m in members
            )
            assert is_normal(h) == normal
            section = {m: i for i, m in enumerate(h.members)}
            expected = [[section[rows[a][b]] for b in h.members] for a in h.members]
            assert as_group(h).group.table.tolist() == expected
