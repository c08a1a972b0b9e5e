"""Concrete finite groups as validated Cayley tables.

A group of order n is a dense n x n numpy table of element indices with
the identity pinned at index 0, its only representation: walks read single
entries or the columns they need. Validation accepts a table on three
axioms: index 0 is a two-sided identity, the operation is associative and
every element has a two-sided inverse. Such a table is a group, so it is
Latin; the Latin property is implied, and it is checked only once another
check has failed, to name the failure. Any group object in circulation has
passed validation.

Input enters as a numpy array, taken as it is, or as nested rows. A list or
tuple of equal-length list or tuple rows whose entries are ints in 0..255,
the first not a bool, is read through bytearray() into one uint8 buffer;
numpy's dtype discovery on such a list costs several times more. Every
other nested input goes through np.asarray, with the errors it gets there.

Subgroup closure is a breadth-first search from the identity under right
multiplication by the generators, reading only the generator columns of
the table; the search grows as generators are adjoined. `greedy_generators`,
the one generating-sequence routine, adjoins each candidate outside that
closure. Associativity is checked at every order on its generators of
range(n) only (Light's criterion), in row blocks of bounded size; the
group keeps them, and morphisms checks multiplicativity on them.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import islice, permutations
from typing import Iterable, Iterator, Sequence

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
# Entries gathered per block by the blocked numpy passes (associativity,
# conjugacy class ids, carrier composites); keeps each block to a few MB at
# the size cap.
_BLOCK_ENTRIES = 1 << 18


class _Closure:
    """The closure of {0} under right multiplication by the generators
    adjoined so far, grown by breadth-first search as generators are
    adjoined. Only the generator columns of the table are read."""

    __slots__ = ("table", "seen", "members", "columns")

    def __init__(self, table: np.ndarray):
        self.table = table
        self.seen = bytearray(table.shape[0])
        self.seen[0] = 1
        self.members = [0]
        self.columns: list[list[int]] = []

    def adjoin(self, gens: list[int]) -> None:
        """Every member so far times each new generator, then every newly
        reached element times all generators."""
        new = self.table[:, gens].T.tolist()
        self.columns += new
        seen, members, columns = self.seen, self.members, self.columns
        old = len(members)
        for pos, x in enumerate(members):
            for column in new if pos < old else columns:
                y = column[x]
                if not seen[y]:
                    seen[y] = 1
                    members.append(y)


def closure_indices(table: np.ndarray, gens: Iterable[int]) -> tuple[int, ...]:
    """Smallest subset containing 0 and the generators, closed under the table.

    Breadth-first search from 0 under right multiplication by the
    generators. In a finite group the words in the generators already form
    the generated subgroup, so only the generator columns are read:
    O(n * |gens|) work. On a table that is not a group the result is still
    a subset of the closure under the full operation."""
    closure = _Closure(table)
    closure.adjoin(sorted({int(g) for g in gens}))
    return tuple(sorted(closure.members))


def _adjoined(table: np.ndarray, candidates: Iterable[int]) -> Iterator[int]:
    """Each candidate outside the closure of those adjoined before it, as
    it is adjoined; the one closure grows with each."""
    closure = _Closure(table)
    for x in candidates:
        if not closure.seen[x]:
            closure.adjoin([x])
            yield int(x)


def greedy_generators(table: np.ndarray, candidates: Iterable[int]) -> list[int]:
    """Walk the candidates once, adjoining each one outside the closure of
    those adjoined before it: a greedy irredundant generating sequence, not
    necessarily of minimum length, that generates every candidate."""
    return list(_adjoined(table, candidates))


def _associativity_witness(table: np.ndarray, gens: list[int]) -> tuple[int, int, int] | None:
    """Return the first triple (x, g, y) with (xg)y != x(gy), g in gens
    order and then (x, y) in row-major order, or None if there is none.

    Light's criterion: the elements a with (xa)y = x(ay) for all x, y
    include 0 and are closed under products, and every element is a
    left-nested word in gens, the greedy generators of range(n). So
    checking g over gens decides associativity exactly, in
    O(n^2 * generators), and g is always one of them. Rows x are compared
    a block at a time, so the temporaries stay O(_BLOCK_ENTRIES)."""
    n = table.shape[0]
    rows = max(1, _BLOCK_ENTRIES // n)
    for g in gens:
        gy = table[g]
        for start in range(0, n, rows):
            block = table[start : start + rows]
            lhs = table[block[:, g]]
            rhs = np.take(block, gy, axis=1)
            if not np.array_equal(lhs, rhs):
                x, y = map(int, np.argwhere(lhs != rhs)[0])
                return (start + x, int(g), y)
    return None


def _memoized(compute):
    """compute(g, *args), cached in g._memo under the function and its
    arguments: the one cache of derived values. A hit is one dict lookup.
    Every caller gets the same value, so values are immutable or never
    mutated."""

    @functools.wraps(compute)
    def cached(g, *args):
        key = (compute, args)
        try:
            return g._memo[key]
        except KeyError:
            value = g._memo[key] = compute(g, *args)
            return value

    return cached


class FiniteGroup:
    """A finite group on elements 0..order-1, identity at 0, immutable.
    `table` is its one representation (walks read single entries or the
    columns they need); `generators` are the greedy generators of range(order)
    found by validation; derived values are cached in `_memo` by
    `_memoized`."""

    __slots__ = ("order", "table", "inverse", "generators", "_hash", "_memo")

    def __init__(self, order: int, table: np.ndarray, inverse: np.ndarray, generators: tuple):
        # Internal constructor: callers go through from_table(). Only
        # enumeration wraps tables unvalidated, and never hands them out.
        self.order = order
        self.table = table
        self.inverse = inverse
        self.generators = generators
        self._hash: int | None = None
        self._memo: dict = {}  # derived-invariant cache (values immutable)

    # Arithmetic.

    def _element(self, x: int) -> int:
        """x as an int, or IndexError if it is not an element (numpy would
        wrap a negative index, and int() would truncate 2.5 or parse "2")."""
        try:
            i = operator.index(x)
        except TypeError:
            raise IndexError(f"element {x!r} is not an integer") from None
        if not 0 <= i < self.order:
            raise IndexError(f"element {x} out of range for order {self.order}")
        return i

    def mul(self, i: int, j: int) -> int:
        return int(self.table[self._element(i), self._element(j)])

    def inv(self, i: int) -> int:
        return int(self.inverse[self._element(i)])

    def conj(self, x: int, g: int) -> int:
        """g * x * g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def powers(self, x: int) -> list[int]:
        """[x^0, x^1, ..., x^(m-1)], where m is the order of x.

        NoInverseError if the walk has not returned to 0 after `order`
        steps, which no group table allows; it bounds the walk on the
        unvalidated tables that enumeration colours."""
        self._element(x)
        out = [0]
        y = x
        while y != 0:
            if len(out) == self.order:
                raise NoInverseError(f"the powers of {x} do not return to the identity")
            out.append(y)
            y = self.table.item(y, x)
        return out

    def element_order(self, x: int) -> int:
        return len(self.powers(x))

    def conjugates(self, xs, hs=None) -> np.ndarray:
        """Entry (i, j) is h * x * h^-1 for the i-th h of hs, every element
        when hs is None, and x = xs[j]: the one conjugation gather. xs is
        any numpy column index; a slice gathers from a view of the table."""
        if hs is None:
            products, inverses = self.table[:, xs], self.inverse[:, None]
        else:
            hs = np.asarray(hs, dtype=np.intp)[:, None]
            products, inverses = self.table[hs, xs], self.inverse[hs]
        return self.table[products, inverses]

    @_memoized
    def element_orders(self) -> tuple[int, ...]:
        """Order of every element, indexed by element (cached).

        Each cyclic subgroup is walked once: if x has order m, then x^j
        has order m / gcd(j, m)."""
        orders = [0] * self.order
        for x in range(self.order):
            if not orders[x]:
                walk = self.powers(x)
                for j, y in enumerate(walk):
                    orders[y] = len(walk) // math.gcd(j, len(walk))
        return tuple(orders)

    # Structure predicates.

    def is_abelian(self) -> bool:
        return self.center_size() == self.order

    def cyclic_generator(self) -> int | None:
        """Smallest-index element of full order, or None if not cyclic."""
        for x, m in enumerate(self.element_orders()):
            if m == self.order:
                return x
        return None

    def is_cyclic(self) -> bool:
        return self.cyclic_generator() is not None

    @_memoized
    def centralizer_sizes(self) -> np.ndarray:
        """Number of elements commuting with each element (cached, read-only)."""
        sizes = (self.table == self.table.T).sum(axis=0)
        sizes.setflags(write=False)
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
        _validate(self.order, self.table, int(self.table.min()), int(self.table.max()))

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


def _validate(n: int, table: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Check the group axioms on an n x n index table whose entries span
    lo..hi; return the inverse array and the greedy generators of range(n).

    A table is accepted after the identity, Light's criterion and
    two-sided inverses, in a bounded number of O(n^2) passes: an
    associative table with a two-sided identity and inverses is a group,
    hence Latin. Once any check fails, the table is not a group and the
    Latin checks run, so every table raises the error of the first failing
    axiom in the order range, identity, Latin rows, Latin columns,
    associativity."""
    if n < 1:
        raise SizeCapError("order must be at least 1")
    if n > MAX_ORDER:
        raise SizeCapError(f"order {n} exceeds the cap of {MAX_ORDER}")
    if table.shape != (n, n):
        raise NotClosedError(f"table shape {table.shape} does not match order {n}")
    if lo < 0 or hi >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotClosedError(f"entry at row {bad[0]}, column {bad[1]} out of range")
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise NoIdentityError("index 0 is not a two-sided identity")
    # A group has at most log2(n) greedy generators, since each one at least
    # doubles the subgroup of those before it; a table with more is no group,
    # and neither the closure nor Light's criterion runs past that bound.
    limit = n.bit_length()
    gens = list(islice(_adjoined(table, range(n)), limit))
    triple = None
    if len(gens) < limit:
        triple = _associativity_witness(table, gens)
        if triple is None:
            inverse = table.argmin(axis=1)  # the first 0 in each row that has one
            if not (table[idx, inverse].any() or table[inverse, idx].any()):
                return inverse.astype(table.dtype), tuple(gens)
    if not np.array_equal(np.sort(table, axis=1), np.broadcast_to(idx, (n, n))):
        row = next(i for i in range(n) if len(set(table[i].tolist())) != n)
        raise NotLatinError(f"row {row} repeats an entry")
    if not np.array_equal(np.sort(table, axis=0), np.broadcast_to(idx[:, None], (n, n))):
        col = next(j for j in range(n) if len(set(table[:, j].tolist())) != n)
        raise NotLatinError(f"column {col} repeats an entry")
    # A Latin table with an identity is a group once it is associative, so
    # here it is not, and Light's criterion over all its greedy generators
    # names the witness.
    if triple is None:
        triple = _associativity_witness(table, greedy_generators(table, range(n)))
    raise NotAssociativeError(triple)


def _entries(table: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """The table as a numpy array, before any check of its values: nested
    int rows through bytearray() (see the module docstring), joined into one
    buffer, and any other input, or a row that bytearray() refuses (an entry
    outside 0..255, a float, a str, a numpy bool), through np.asarray, so
    each rejected table keeps the error it gets there. bytearray() accepts
    and refuses the same rows as bytes() and converts each in under half
    the time on CPython 3.11 to 3.13, and no slower on 3.10."""
    if isinstance(table, (list, tuple)) and table:
        first = table[0]
        if isinstance(first, (list, tuple)) and first and not isinstance(first[0], bool):
            m = len(first)
            if all(isinstance(row, (list, tuple)) and len(row) == m for row in table):
                try:
                    data = bytearray().join(map(bytearray, table))
                except (TypeError, ValueError):
                    pass
                else:
                    return np.frombuffer(data, np.uint8).reshape(len(table), m)
    try:
        return np.asarray(table)
    except ValueError as exc:  # numpy's "inhomogeneous shape"
        raise NotClosedError("table rows are not all sequences of one length") from exc


def from_table(order: int, table: Sequence[Sequence[int]] | np.ndarray) -> FiniteGroup:
    """Validate an index table and wrap it as a FiniteGroup (on a copy).

    `table` is a numpy array or nested rows. A list or tuple of
    equal-length list or tuple rows of ints in 0..255, the first not a
    bool, is read through bytearray, not numpy's dtype discovery; any other
    input through np.asarray, with the same errors. Ragged rows raise
    NotClosedError."""
    arr = _entries(table)
    if arr.ndim != 2:
        raise NotClosedError(f"table must be two-dimensional, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise NotClosedError(f"table entries must be integers, got {arr.dtype}")
    lo, hi = (int(arr.min()), int(arr.max())) if arr.size else (0, 0)
    # No entry may reach MAX_ORDER; checked before the int32 cast would wrap one.
    if lo < 0 or hi >= MAX_ORDER:
        r, c = np.argwhere((arr < 0) | (arr >= MAX_ORDER))[0]
        raise NotClosedError(f"entry at row {r}, column {c} out of range")
    arr = arr.astype(np.int32)
    inverse, gens = _validate(order, arr, lo, hi)
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
    table = idx[:, None] + idx[None, :]
    table %= n
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
