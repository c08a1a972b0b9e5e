"""Concrete finite groups as validated Cayley tables.

A group of order n is a dense n x n numpy table of element indices with
the identity pinned at index 0, its only representation: walks read single
entries or the columns they need. Validation checks all four structural
invariants (identity, Latin property, associativity, inverses); any
group object in circulation has passed them.

Subgroup closure is a breadth-first search from the identity under right
multiplication by the generators, reading only the generator columns of
the table. `greedy_generators`, the one generating-sequence routine,
adjoins each candidate outside that closure. Associativity is checked at
every order on its generators of range(n) only (Light's criterion); the
group keeps them, and morphisms checks multiplicativity on them.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    NoIdentityError,
    NoInverseError,
    NotAssociativeError,
    NotClosedError,
    NotLatinError,
    SizeCapError,
)

MAX_ORDER = 4096


def closure_indices(table: np.ndarray, gens: Iterable[int]) -> tuple[int, ...]:
    """Smallest subset containing 0 and the generators, closed under the table.

    Breadth-first search from 0 under right multiplication by the
    generators. In a finite group the words in the generators already form
    the generated subgroup, so only the generator columns are read:
    O(n * |gens|) work. On a table that is not a group the result is still
    a subset of the closure under the full operation."""
    columns = table[:, sorted({int(g) for g in gens})].T.tolist()
    seen = bytearray(table.shape[0])
    seen[0] = 1
    members = [0]
    for x in members:
        for column in columns:
            y = column[x]
            if not seen[y]:
                seen[y] = 1
                members.append(y)
    return tuple(sorted(members))


def greedy_generators(table: np.ndarray, candidates: Iterable[int]) -> list[int]:
    """Walk the candidates once, adjoining each one outside the closure of
    those adjoined before it: a greedy irredundant generating sequence, not
    necessarily of minimum length, that generates every candidate."""
    gens: list[int] = []
    closed = np.zeros(table.shape[0], dtype=bool)
    closed[0] = True
    for x in candidates:
        if not closed[x]:
            gens.append(int(x))
            closed[list(closure_indices(table, gens))] = True
    return gens


def _associativity_witness(table: np.ndarray, gens: list[int]) -> tuple[int, int, int] | None:
    """Return a triple (x, g, y) with (xg)y != x(gy), or None if there is none.

    Light's criterion: the elements a with (xa)y = x(ay) for all x, y
    include 0 and are closed under products, and every element is a
    left-nested word in gens, the greedy generators of range(n). So
    checking g over gens decides associativity exactly, in
    O(n^2 * generators), and g is always one of them."""
    for g in gens:
        lhs = table[table[:, g], :]
        rhs = table[:, table[g, :]]
        if not np.array_equal(lhs, rhs):
            x, y = map(int, np.argwhere(lhs != rhs)[0])
            return (x, int(g), y)
    return None


class FiniteGroup:
    """A finite group on elements 0..order-1, identity at 0, immutable.
    `table` is its one representation (walks read single entries or the
    columns they need); `generators` are the greedy generators of range(order)
    found by validation; derived values are cached in `_memo`."""

    __slots__ = ("order", "table", "inverse", "generators", "_hash", "_memo")

    def __init__(self, order: int, table: np.ndarray, inverse: np.ndarray, generators: tuple):
        # Internal constructor: callers go through from_table().
        self.order = order
        self.table = table
        self.inverse = inverse
        self.generators = generators
        self._hash: int | None = None
        self._memo: dict = {}  # derived-invariant cache (values immutable)

    # Arithmetic.

    def _element(self, x: int) -> int:
        """x itself, or IndexError if it is not an element (numpy would
        wrap a negative index to another element)."""
        if not 0 <= x < self.order:
            raise IndexError(f"element {x} out of range for order {self.order}")
        return x

    def mul(self, i: int, j: int) -> int:
        return int(self.table[self._element(i), self._element(j)])

    def inv(self, i: int) -> int:
        return int(self.inverse[self._element(i)])

    def conj(self, x: int, g: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def powers(self, x: int) -> list[int]:
        """[x^0, x^1, ..., x^(m-1)], where m is the order of x."""
        self._element(x)
        out = [0]
        y = x
        while y != 0:
            out.append(y)
            y = int(self.table[y, x])
        return out

    def element_order(self, x: int) -> int:
        return len(self.powers(x))

    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, indexed by element.

        Each cyclic subgroup is walked once: if x has order m, then x^j
        has order m / gcd(j, m)."""
        if "element_orders" not in self._memo:
            orders = [0] * self.order
            for x in range(self.order):
                if not orders[x]:
                    walk = self.powers(x)
                    for j, y in enumerate(walk):
                        orders[y] = len(walk) // math.gcd(j, len(walk))
            self._memo["element_orders"] = tuple(orders)
        return self._memo["element_orders"]

    # Structure predicates.

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def cyclic_generator(self) -> int | None:
        """Smallest-index element of full order, or None if not cyclic."""
        for x, m in enumerate(self.element_orders()):
            if m == self.order:
                return x
        return None

    def is_cyclic(self) -> bool:
        return self.cyclic_generator() is not None

    def centralizer_sizes(self) -> np.ndarray:
        """Number of elements commuting with each element (cached, read-only)."""
        sizes = self._memo.get("centralizer_sizes")
        if sizes is None:
            sizes = (self.table == self.table.T).sum(axis=0)
            sizes.setflags(write=False)
            self._memo["centralizer_sizes"] = sizes
        return sizes

    def center_size(self) -> int:
        return int((self.centralizer_sizes() == self.order).sum())

    def conjugacy_class_sizes(self) -> tuple[int, ...]:
        """Sizes of the conjugacy classes, sorted ascending.

        The class of x has size order / |centralizer(x)|, and each class of
        size s contributes s elements with that centralizer index."""
        sizes = self.order // self.centralizer_sizes()
        out: list[int] = []
        for s in sorted(set(sizes.tolist())):
            count = int((sizes == s).sum())
            out.extend([int(s)] * (count // s))
        return tuple(out)

    def validate(self) -> None:
        """Re-run the full construction-time validation pass."""
        _validate(self.order, self.table)

    # Value semantics.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.order, self.table.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _validate(n: int, table: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check all group axioms on an n x n index table; return the inverse
    array and the greedy generators of range(n)."""
    if n < 1:
        raise SizeCapError("order must be at least 1")
    if n > MAX_ORDER:
        raise SizeCapError(f"order {n} exceeds the cap of {MAX_ORDER}")
    if table.shape != (n, n):
        raise NotClosedError(f"table shape {table.shape} does not match order {n}")
    if table.min(initial=0) < 0 or table.max(initial=0) >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotClosedError(f"entry at row {bad[0]}, column {bad[1]} out of range")
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise NoIdentityError("index 0 is not a two-sided identity")
    if not np.array_equal(np.sort(table, axis=1), np.broadcast_to(idx, (n, n))):
        row = next(i for i in range(n) if len(set(table[i].tolist())) != n)
        raise NotLatinError(f"row {row} repeats an entry")
    if not np.array_equal(np.sort(table, axis=0), np.broadcast_to(idx[:, None], (n, n))):
        col = next(j for j in range(n) if len(set(table[:, j].tolist())) != n)
        raise NotLatinError(f"column {col} repeats an entry")
    gens = greedy_generators(table, range(n))
    triple = _associativity_witness(table, gens)
    if triple is not None:
        raise NotAssociativeError(triple)
    rows_idx, cols_idx = np.nonzero(table == 0)
    inverse = np.empty(n, dtype=table.dtype)
    inverse[rows_idx] = cols_idx
    if not np.array_equal(table[inverse, idx], np.zeros(n, dtype=table.dtype)):
        raise NoInverseError("an element lacks a two-sided inverse")
    return inverse, tuple(gens)


def from_table(order: int, table: Sequence[Sequence[int]] | np.ndarray) -> FiniteGroup:
    """Validate an index table and wrap it as a FiniteGroup (on a copy)."""
    arr = np.asarray(table)
    if arr.ndim != 2:
        raise NotClosedError(f"table must be two-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise NotClosedError(f"table entries must be integers, got {arr.dtype}")
    # No entry may reach MAX_ORDER; checked before the int32 cast would wrap one.
    if arr.size and (arr.min() < 0 or arr.max() >= MAX_ORDER):
        r, c = np.argwhere((arr < 0) | (arr >= MAX_ORDER))[0]
        raise NotClosedError(f"entry at row {r}, column {c} out of range")
    arr = arr.astype(np.int32)
    inverse, gens = _validate(order, arr)
    arr.setflags(write=False)
    inverse.setflags(write=False)
    return FiniteGroup(order, arr, inverse, gens)


def cyclic_group(n: int) -> FiniteGroup:
    """The cyclic group of order n; element i is the generator to the power i."""
    if n < 1:
        raise SizeCapError("cyclic group order must be at least 1")
    if n > MAX_ORDER:
        raise SizeCapError(f"order {n} exceeds the cap of {MAX_ORDER}")
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    return from_table(n, table)


def symmetric_group(k: int) -> FiniteGroup:
    """The symmetric group on {0..k-1}; elements are permutations in
    lexicographic one-line order (the identity permutation is index 0)."""
    if k < 1:
        raise SizeCapError("symmetric group degree must be at least 1")
    n = math.factorial(k)
    if n > MAX_ORDER:
        raise SizeCapError(f"degree {k} gives order {n}, beyond the cap of {MAX_ORDER}")
    perms = list(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.empty((n, n), dtype=np.int32)
    for i, sigma in enumerate(perms):
        for j, tau in enumerate(perms):
            table[i, j] = index[tuple(sigma[t] for t in tau)]
    return from_table(n, table)
