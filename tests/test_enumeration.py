from __future__ import annotations

import os

import pytest

from cayley import _fillcore
from cayley.core import from_table
from cayley.enumeration import count_groups, enumerate_groups, enumerate_tables
from cayley.errors import BudgetExceededError
from cayley.morphisms import find_isomorphism

from oracles import regular_subgroup_census

# Classical numbers of isomorphism classes by order. Orders of shape p^2 or
# p*q also follow from the existence criterion (1 class when no noncyclic
# group exists, else 2); order 8 is cross-checked by the independent regular
# permutation census below, and order 12's five classes are enumerable by
# hand (two abelian, the dihedral, the alternating, and the dicyclic one).
KNOWN_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2,
    11: 1, 12: 5, 14: 2, 15: 1, 16: 14,
}


@pytest.mark.parametrize("n,expected", sorted(KNOWN_COUNTS.items()))
def test_counts_match_known_values(n, expected):
    assert count_groups(n) == expected


@pytest.mark.parametrize("n,expected", [(21, 2), (25, 2), (33, 1)])
def test_extended_budget_counts(n, expected):
    assert count_groups(n, budget=33) == expected


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        enumerate_groups(17)
    with pytest.raises(BudgetExceededError):
        enumerate_groups(0)
    with pytest.raises(BudgetExceededError):
        enumerate_groups(65, budget=100)


def test_prime_orders_are_cyclic():
    for p in [2, 3, 5, 7, 11, 13]:
        report = enumerate_groups(p, budget=16)
        assert report.count == 1
        assert report.representatives[0].is_cyclic()


def test_representatives_pairwise_nonisomorphic():
    report = enumerate_groups(8)
    for i, a in enumerate(report.representatives):
        for b in report.representatives[i + 1 :]:
            assert find_isomorphism(a, b) is None


def test_every_table_isomorphic_to_exactly_one_representative():
    for n in [6, 8]:
        report = enumerate_groups(n)
        tables, _ = enumerate_tables(n)
        for flat in tables:
            g = from_table(n, [list(flat[i * n : (i + 1) * n]) for i in range(n)])
            matches = sum(
                1 for rep in report.representatives if find_isomorphism(g, rep)
            )
            assert matches == 1


def test_stats_accounting():
    report = enumerate_groups(8)
    assert report.stats.tables_completed == report.count + report.stats.iso_rejections
    assert report.stats.nodes > 0
    assert report.count == len(report.representatives)


def test_determinism():
    a = enumerate_groups(10)
    b = enumerate_groups(10)
    assert [g.table.tolist() for g in a.representatives] == [g.table.tolist() for g in b.representatives]
    assert a.stats == b.stats


def _kernel_outcome(kernel, n):
    try:
        return kernel.enumerate_group_tables(n)
    except ValueError as exc:
        return ("ValueError", str(exc))


KERNEL_EDGE_CASES = {
    0: ("ValueError", "order must be in 1..64"),
    1: ([(0,)], 1),
    65: ("ValueError", "order must be in 1..64"),
}


@pytest.mark.parametrize("n", [0, *range(1, 17), 65])
def test_backend_parity(compiled_kernel, n):
    # Same tables in the same order, the same node count, the same errors.
    assert compiled_kernel.MAX_KERNEL_ORDER == _fillcore.MAX_KERNEL_ORDER
    expected = _kernel_outcome(_fillcore, n)
    assert _kernel_outcome(compiled_kernel, n) == expected
    if n in KERNEL_EDGE_CASES:
        assert expected == KERNEL_EDGE_CASES[n]


def test_representatives_are_valid_groups():
    report = enumerate_groups(12)
    for rep in report.representatives:
        rep.validate()
        assert rep.order == 12


def test_census_agrees_on_small_orders():
    for n in [4, 6]:
        assert regular_subgroup_census(n) == KNOWN_COUNTS[n]


@pytest.mark.skipif(
    not os.environ.get("CAYLEY_STRESS"),
    reason="several minutes; set CAYLEY_STRESS=1 to run",
)
def test_order32_stress_count():
    # 51 isomorphism classes, deduplicated from 54462 canonical tables.
    assert count_groups(32, budget=32) == 51


def test_order16_fingerprint_collisions_are_resolved_by_search():
    # At order 16 two pairs of non-isomorphic classes share a fingerprint,
    # so deduplication genuinely depends on the backtracking search.
    from collections import Counter

    from cayley.morphisms import fingerprint

    report = enumerate_groups(16)
    assert report.count == 14
    collisions = [n for n in Counter(fingerprint(g) for g in report.representatives).values() if n > 1]
    assert collisions == [2, 2]
    reps = report.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert find_isomorphism(reps[i], reps[j]) is None
