"""Independent brute-force oracles used by the tests.

Everything here recomputes expected values from first principles, without
going through the library's own implementations, so tests never compare an
operation against itself.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import permutations, product

import numpy as np

from cayley.core import FiniteGroup, from_table
from cayley.enumeration import enumerate_groups
from cayley.errors import (
    GroupError,
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    NotLatinError,
)
from cayley.morphisms import find_isomorphism, fingerprint


def naive_is_group_table(rows: list[list[int]]) -> bool:
    """Group axioms checked by direct triple loops (no numpy, no library)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    if any(not 0 <= v < n for r in rows for v in r):
        return False
    if rows[0] != list(range(n)) or any(rows[i][0] != i for i in range(n)):
        return False
    for i in range(n):
        if sorted(rows[i]) != list(range(n)):
            return False
        if sorted(rows[j][i] for j in range(n)) != list(range(n)):
            return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    return False
    return True


def reference_validation_error(rows: list[list[int]]) -> GroupError | None:
    """The error of the first group axiom that an n x n table (n =
    len(rows)) fails, checked one after the other in the order range,
    identity, Latin rows, Latin columns, associativity, inverses; None for
    a group table. Associativity is Light's criterion as the validator
    applies it: over the greedy generators of range(n), each the least
    index outside the closure of {0} under right multiplication by those
    before it, and the witness is the first failing generator, then the
    first failing (x, y) in row-major order. Plain loops throughout."""
    n = len(rows)
    for r, row in enumerate(rows):
        for c, v in enumerate(row):
            if not 0 <= v < n:
                return NotClosedError(f"entry at row {r}, column {c} out of range")
    if rows[0] != list(range(n)) or [row[0] for row in rows] != list(range(n)):
        return NoIdentityError("index 0 is not a two-sided identity")
    for i, row in enumerate(rows):
        if len(set(row)) != n:
            return NotLatinError(f"row {i} repeats an entry")
    for j in range(n):
        if len({row[j] for row in rows}) != n:
            return NotLatinError(f"column {j} repeats an entry")
    gens: list[int] = []
    reached = {0}
    for x in range(n):
        if x not in reached:
            gens.append(x)
            reached, stack = {0}, [0]
            while stack:
                a = stack.pop()
                for g in gens:
                    if rows[a][g] not in reached:
                        reached.add(rows[a][g])
                        stack.append(rows[a][g])
    for g in gens:
        for x in range(n):
            left, right = rows[rows[x][g]], rows[x]
            for y in range(n):
                if left[y] != right[rows[g][y]]:
                    return NotAssociativeError((x, g, y))
    for x in range(n):
        if not any(rows[x][y] == 0 and rows[y][x] == 0 for y in range(n)):
            return NoInverseError("an element lacks a two-sided inverse")
    return None


def naive_closure(group: FiniteGroup, gens: list[int]) -> tuple[int, ...]:
    """Closure of {0} and the generators under the two-sided operation,
    adding all products of pairs until nothing new appears."""
    rows = group.table.tolist()
    members = {0, *gens}
    while True:
        new = {rows[a][b] for a in members for b in members} - members
        if not new:
            return tuple(sorted(members))
        members |= new


def naive_element_order(group: FiniteGroup, x: int) -> int:
    """Order of x by multiplying on the right until the identity returns."""
    m, y = 1, x
    while y != 0:
        y = group.mul(y, x)
        m += 1
    return m


def naive_greedy_by_order(group: FiniteGroup) -> list[int]:
    """Generating sequence that repeatedly adjoins the element outside the
    closure so far with the largest (element order, -index)."""
    orders = [naive_element_order(group, x) for x in range(group.order)]
    gens: list[int] = []
    closed = {0}
    while len(closed) < group.order:
        outside = [x for x in range(group.order) if x not in closed]
        gens.append(max(outside, key=lambda x: (orders[x], -x)))
        closed = set(naive_closure(group, gens))
    return gens


def naive_greedy_by_index(group: FiniteGroup) -> list[int]:
    """Generating sequence that repeatedly adjoins the smallest index
    outside the closure so far."""
    gens: list[int] = []
    closed = {0}
    while len(closed) < group.order:
        gens.append(min(set(range(group.order)) - closed))
        closed = set(naive_closure(group, gens))
    return gens


def naive_bfs_layers(group: FiniteGroup, gens: list[int]) -> list[set[int]]:
    """Per depth d, the elements that a breadth-first search from 0 along
    gens[:d+1] reaches and one along gens[:d] does not: a fresh queue and
    set per depth, stepping by group.mul."""
    layers, before = [], {0}
    for d in range(len(gens)):
        seen, queue = {0}, deque([0])
        while queue:
            x = queue.popleft()
            for g in gens[: d + 1]:
                y = group.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        layers.append(seen - before)
        before = seen
    return layers


def naive_composition_table(perms: tuple[tuple[int, ...], ...]) -> list[list[int]]:
    """Index table of a family of permutations under composition: entry
    (i, j) is the index of perms[i] after perms[j], by hashing every composite."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[v] for v in b)] for b in perms] for a in perms]


def naive_subgroup_sets(group: FiniteGroup) -> set[frozenset[int]]:
    """All subgroups by filtering every subset (exponential; small groups only)."""
    n = group.order
    assert n <= 12, "subset enumeration oracle is for small groups"
    found = set()
    for bits in range(1 << n):
        if not bits & 1:
            continue
        members = [i for i in range(n) if bits >> i & 1]
        mset = set(members)
        if all(group.mul(a, b) in mset for a in members for b in members):
            found.add(frozenset(members))
    return found


def naive_hom_maps(src: FiniteGroup, dst: FiniteGroup) -> list[tuple[int, ...]]:
    """All homomorphisms by filtering every total map (tiny groups only)."""
    assert dst.order ** src.order <= 5_000_000
    homs = []
    for candidate in product(range(dst.order), repeat=src.order):
        if candidate[0] != 0:
            continue
        if all(
            candidate[src.mul(x, y)] == dst.mul(candidate[x], candidate[y])
            for x in range(src.order)
            for y in range(src.order)
        ):
            homs.append(candidate)
    return homs


def totient(n: int) -> int:
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def relabel(group: FiniteGroup, perm: list[int]) -> FiniteGroup:
    """The isomorphic copy with element i renamed perm[i] (perm[0] must be 0)."""
    n = group.order
    assert perm[0] == 0
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[group.mul(i, j)]
    return from_table(n, rows)


def relabel_seeded(group: FiniteGroup, seed: int) -> FiniteGroup:
    """group with its non-identity elements renamed by a seeded permutation,
    by one numpy gather: relabel builds nested lists, which near the size
    cap take seconds and several hundred MB."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(group.order - 1)])
    table = np.empty_like(group.table)
    table[perm[:, None], perm[None, :]] = perm[group.table]
    return from_table(group.order, table)


def is_multiplicative(src: FiniteGroup, dst: FiniteGroup, mapping) -> bool:
    """f(x * y) = f(x) * f(y) on all n^2 pairs, compared a block of rows x
    at a time so that memory stays a few MB per block near the size cap."""
    m = np.asarray(mapping)
    for start in range(0, src.order, 256):
        rows = m[start : start + 256]
        if not np.array_equal(m[src.table[start : start + 256]], dst.table[rows[:, None], m]):
            return False
    return True


@lru_cache(maxsize=None)
def cached_enumeration(n: int, budget: int = 64):
    return enumerate_groups(n, budget=budget)


def small_group_corpus(max_order: int = 10) -> list[FiniteGroup]:
    """One representative per isomorphism class for every order up to max_order."""
    corpus: list[FiniteGroup] = []
    for n in range(1, max_order + 1):
        corpus.extend(cached_enumeration(n).representatives)
    return corpus


# Second, independent count of the groups of order n: census of the regular
# order-n subgroups of the symmetric group on n points, generated from
# canonical starting elements and generator pairs (extended one generator at
# a time whenever a pair closes up on a proper subgroup).


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[v] for v in b)


def _uniform_cycle_perms(n: int) -> list[tuple[int, ...]]:
    """Permutations whose cycles all share one length d > 1 (with d | n):
    exactly the possible non-identity elements of a regular subgroup."""
    out = []
    for perm in permutations(range(n)):
        lengths = set()
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                length += 1
            lengths.add(length)
        if len(lengths) == 1 and lengths != {1}:
            out.append(perm)
    return out


def _block_shift(n: int, d: int) -> tuple[int, ...]:
    return tuple(base + (i + 1) % d for base in range(0, n, d) for i in range(d))


def _perm_closure(gens: list[tuple[int, ...]], cap: int) -> set[tuple[int, ...]] | None:
    ident = tuple(range(len(gens[0])))
    members = {ident} | set(gens)
    if len(members) > cap:
        return None
    frontier = list(members)
    while frontier:
        new = []
        for m in list(members):
            for f in frontier:
                for prod_ in (_compose(m, f), _compose(f, m)):
                    if prod_ not in members:
                        members.add(prod_)
                        new.append(prod_)
                        if len(members) > cap:
                            return None
        frontier = new
    return members


def regular_subgroup_census(n: int) -> int:
    """Number of isomorphism classes of order n, via regular permutation
    subgroups of Sym(n). Independent of the table-fill oracle."""
    singles = _uniform_cycle_perms(n)
    starts = [
        _block_shift(n, d) for d in range(2, n + 1) if n % d == 0
    ]
    reps: list[FiniteGroup] = []
    fingerprints: dict[tuple, list[int]] = {}

    def consider(members: set[tuple[int, ...]]) -> None:
        by_image = {perm[0]: perm for perm in members}
        if len(by_image) != n:
            return  # not regular
        rows = [list(by_image[i]) for i in range(n)]
        group = from_table(n, rows)
        key = fingerprint(group)
        for idx in fingerprints.get(key, []):
            if find_isomorphism(group, reps[idx]) is not None:
                return
        fingerprints.setdefault(key, []).append(len(reps))
        reps.append(group)

    def extend(gens: list[tuple[int, ...]]) -> None:
        members = _perm_closure(gens, n)
        if members is None:
            return
        size = len(members)
        if size == n:
            consider(members)
            return
        if n % size != 0 or size * 2 > n:
            return
        orbit = {perm[0] for perm in members}
        target = min(set(range(n)) - orbit)
        for c in singles:
            if c[0] == target:
                extend(gens + [c])

    for a in starts:
        for b in singles:
            extend([a, b])
    return len(reps)
