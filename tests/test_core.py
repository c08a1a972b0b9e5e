from __future__ import annotations

import numpy as np
import pytest

from cayley.core import (
    MAX_ORDER,
    closure_indices,
    cyclic_group,
    from_table,
    greedy_generators,
    symmetric_group,
)
from cayley.errors import (
    NoIdentityError,
    NotAssociativeError,
    NotClosedError,
    NotLatinError,
    SizeCapError,
)
from cayley.morphisms import generating_sequence
from cayley.products import cyclic_power_semidirect, direct_product
from cayley.subgroups import closure, conjugate_subgroup

from oracles import (
    naive_closure,
    naive_element_order,
    naive_greedy_by_index,
    naive_greedy_by_order,
    naive_is_group_table,
    small_group_corpus,
)

# A Latin square with identity 0 that is not a group table: element 1 has
# order 2, impossible in a group of order 5.
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_trivial_table():
    g = from_table(1, [[0]])
    assert g.order == 1
    assert g.element_order(0) == 1
    assert g.cyclic_generator() == 0


def test_order_two_table():
    g = from_table(2, [[0, 1], [1, 0]])
    assert g.element_order(1) == 2
    assert g.is_abelian()


def test_not_latin():
    with pytest.raises(NotLatinError):
        from_table(2, [[0, 1], [1, 1]])


def test_out_of_range_entry():
    with pytest.raises(NotClosedError):
        from_table(2, [[0, 1], [1, 2]])


def test_table_entries_must_be_integers_below_the_cap():
    # Floats, strings and bools are not element indices, and an entry past
    # the cap is rejected before the int32 cast could wrap it onto 0.
    for bad in (
        [[0, 1], [1, 0.7]],
        [[0, 1], [1, 0.0]],
        [[0, 1], [1, "0"]],
        [[False, True], [True, False]],
        [[0, 1], [1, 2**33]],
        [[0, 1], [1, 2**70]],
        np.array([[0, 1], [1, 2**32]], dtype=np.int64),
        np.array([[0, 1], [1, 2**32]], dtype=np.uint64),
        np.array([[0, 1], [1, -(2**32)]], dtype=np.int64),
    ):
        with pytest.raises(NotClosedError):
            from_table(2, bad)
    assert from_table(2, np.array([[0, 1], [1, 0]], dtype=np.uint8)) == cyclic_group(2)


def test_no_identity():
    with pytest.raises(NoIdentityError):
        from_table(2, [[1, 0], [0, 1]])


def test_not_associative_with_witness():
    assert not naive_is_group_table(NONASSOCIATIVE_LOOP)
    with pytest.raises(NotAssociativeError) as excinfo:
        from_table(5, NONASSOCIATIVE_LOOP)
    i, j, k = excinfo.value.triple
    t = NONASSOCIATIVE_LOOP
    assert t[t[i][j]][k] != t[i][t[j][k]]


def _reduced_latin_squares(n: int):
    """Every n x n Latin square whose row 0 and column 0 are 0..n-1, by
    backtracking over the remaining cells in row-major order."""
    rows = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    row_used = [{i} for i in range(n)]
    col_used = [{j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(c):
        if c == len(cells):
            yield [r[:] for r in rows]
            return
        i, j = cells[c]
        for v in range(n):
            if v not in row_used[i] and v not in col_used[j]:
                rows[i][j] = v
                row_used[i].add(v)
                col_used[j].add(v)
                yield from fill(c + 1)
                row_used[i].remove(v)
                col_used[j].remove(v)

    yield from fill(0)


def _assert_generator_witness(rows, excinfo):
    """The witness is (x, g, y) with (xg)y != x(gy) and g one of the greedy
    generators of range(n) that the associativity check runs over."""
    x, g, y = excinfo.value.triple
    assert rows[rows[x][g]][y] != rows[x][rows[g][y]]
    table = np.array(rows, dtype=np.int32)
    assert g in greedy_generators(table, range(len(rows)))


def test_validator_matches_oracle_on_every_reduced_latin_square():
    squares = groups = 0
    for n in range(1, 7):
        for rows in _reduced_latin_squares(n):
            squares += 1
            if naive_is_group_table(rows):
                groups += 1
                assert from_table(n, rows).order == n
            else:
                with pytest.raises(NotAssociativeError) as excinfo:
                    from_table(n, rows)
                _assert_generator_witness(rows, excinfo)
    # Reduced Latin squares of orders 1..6: 1 + 1 + 1 + 4 + 56 + 9408.
    assert (squares, groups) == (9471, 93)


def test_light_criterion_rejects_large_nonassociative_loop():
    # NONASSOCIATIVE_LOOP x C_m for m = 51 and 60 (orders 255 and 300): the
    # generator-based associativity check must still find a witness when the
    # loop is one factor of a larger table.
    loop = NONASSOCIATIVE_LOOP
    for m in (51, 60):
        n = len(loop) * m
        rows = [
            [loop[a // m][b // m] * m + (a + b) % m for b in range(n)] for a in range(n)
        ]
        with pytest.raises(NotAssociativeError) as excinfo:
            from_table(n, rows)
        _assert_generator_witness(rows, excinfo)


def test_element_indices_are_range_checked(c6):
    for bad in (-1, 6):
        for call in (
            lambda: c6.mul(bad, 2),
            lambda: c6.mul(2, bad),
            lambda: c6.inv(bad),
            lambda: c6.conj(bad, 1),
            lambda: c6.conj(1, bad),
            lambda: c6.powers(bad),
            lambda: conjugate_subgroup(closure(c6, [2]), bad),
        ):
            with pytest.raises(IndexError, match=f"element {bad} out of range for order 6"):
                call()
    assert (c6.mul(5, 2), c6.inv(5), c6.conj(1, 5)) == (1, 1, 1)


def test_closure_indices_matches_naive_closure():
    for g in small_group_corpus(10):
        n = g.order
        gen_lists = [[a] for a in range(n)] + [[a, b] for a in range(n) for b in range(n)]
        for gens in gen_lists:
            assert closure_indices(g.table, gens) == naive_closure(g, gens)


def test_validator_agrees_with_naive_oracle():
    tables = [
        [[0]],
        [[0, 1], [1, 0]],
        cyclic_group(4).table.tolist(),
        symmetric_group(3).table.tolist(),
        NONASSOCIATIVE_LOOP,
        [[0, 1], [1, 1]],
        [[1, 0], [0, 1]],
    ]
    for rows in tables:
        ok = naive_is_group_table(rows)
        try:
            from_table(len(rows), rows)
            accepted = True
        except Exception:
            accepted = False
        assert accepted == ok


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert g.element_order(1) == 6
    # Powers of index 2 under addition mod 6: 2, 4, 0 -> order 3.
    walk, steps = 2, 1
    while walk != 0:
        walk = (walk + 2) % 6
        steps += 1
    assert steps == 3
    assert g.element_order(2) == 3
    assert cyclic_group(1).order == 1
    assert g.cyclic_generator() == 1


def test_cyclic_rejects_zero():
    with pytest.raises(SizeCapError):
        cyclic_group(0)


def test_symmetric_group_s3(s3):
    assert s3.order == 6
    assert not s3.is_abelian()
    noncommuting = [
        (i, j)
        for i in range(6)
        for j in range(6)
        if s3.mul(i, j) != s3.mul(j, i)
    ]
    assert noncommuting
    assert max(s3.element_orders()) == 3
    assert not s3.is_cyclic()
    assert symmetric_group(1).order == 1


def test_symmetric_group_size_cap():
    with pytest.raises(SizeCapError):
        symmetric_group(8)
    assert MAX_ORDER == 4096


def test_element_orders_examples(s3):
    assert cyclic_group(15).element_order(1) == 15
    transpositions = [x for x in range(6) if s3.element_order(x) == 2]
    assert transpositions
    for t in transpositions:
        assert s3.mul(t, t) == 0


def test_lagrange_over_corpus():
    for g in small_group_corpus(10):
        for m in g.element_orders():
            assert g.order % m == 0


def test_cyclic_iff_max_order_is_group_order():
    for g in small_group_corpus(10):
        has_full = max(g.element_orders()) == g.order
        assert g.is_cyclic() == has_full
        gen = g.cyclic_generator()
        if gen is not None:
            assert g.element_order(gen) == g.order
            assert all(
                g.element_order(x) < g.order for x in range(gen)
            ), "generator must be the smallest index"


def test_validation_pass_recheckable():
    for g in [cyclic_group(12), symmetric_group(4)]:
        g.validate()
        assert int(g.table[g.inverse[3], 3]) == 0


def test_mul_matches_table(klein):
    assert klein.order == 4
    for i in range(4):
        for j in range(4):
            assert klein.mul(i, j) == int(klein.table[i, j])
    assert klein.is_abelian()
    assert sorted(klein.element_orders()) == [1, 2, 2, 2]


def test_immutability():
    g = cyclic_group(3)
    with pytest.raises(ValueError):
        g.table[0, 0] = 1


def test_group_equality_and_hash():
    a = cyclic_group(5)
    b = cyclic_group(5)
    assert a == b and hash(a) == hash(b)
    assert a != symmetric_group(3)


def test_conjugacy_and_center(s3):
    assert s3.conjugacy_class_sizes() == (1, 2, 3)
    assert s3.center_size() == 1
    c9 = cyclic_group(9)
    assert c9.center_size() == 9
    assert c9.conjugacy_class_sizes() == tuple([1] * 9)
    assert c9.is_abelian()


def test_large_cyclic_validates():
    g = cyclic_group(300)
    assert g.element_order(1) == 300
    assert np.array_equal(g.table[0], np.arange(300))


def _greedy_corpus():
    return small_group_corpus(10) + [
        cyclic_group(300),
        direct_product(cyclic_group(4), cyclic_group(80)).group,
        cyclic_power_semidirect(97, 3, 35).group,
    ]


def test_greedy_generators_match_the_naive_rules():
    for g in _greedy_corpus():
        by_order = generating_sequence(g)
        by_index = greedy_generators(g.table, range(g.order))  # Light's criterion
        assert by_order == naive_greedy_by_order(g), g
        assert by_index == naive_greedy_by_index(g), g
        for gens in (by_order, by_index):
            assert closure_indices(g.table, gens) == tuple(range(g.order))
            for i, x in enumerate(gens):
                assert x not in closure_indices(g.table, gens[:i])


def test_powers_walk_the_cyclic_subgroup():
    for g in _greedy_corpus():
        for x in range(0, g.order, max(1, g.order // 40)):
            powers = g.powers(x)
            expected = [0]
            while len(expected) < len(powers):
                expected.append(g.mul(expected[-1], x))
            assert powers == expected
            assert g.mul(powers[-1], x) == 0
            assert len(powers) == g.element_order(x) == naive_element_order(g, x)
        assert g.element_orders() == tuple(naive_element_order(g, x) for x in range(g.order))
    with pytest.raises(IndexError):
        cyclic_group(3).powers(3)


def test_centralizer_sizes_match_direct_counts():
    for g in _greedy_corpus():
        t = g.table
        sizes = g.centralizer_sizes()
        for x in range(0, g.order, max(1, g.order // 40)):
            assert sizes[x] == sum(g.mul(x, y) == g.mul(y, x) for y in range(g.order))
        center = sum(1 for x in range(g.order) if np.array_equal(t[x], t[:, x]))
        assert g.center_size() == center
        assert not sizes.flags.writeable
