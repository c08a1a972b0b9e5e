"""Subgroups as validated subsets, the complete lattice on them, and
prime-order element/subgroup extraction."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from ._fillcore import smallest_prime_factor
from .core import FiniteGroup, closure_indices, from_table, greedy_generators
from .errors import (
    MismatchedParentError,
    NoSuchElementError,
    NotPrimeError,
    NotSubgroupError,
    OnlyOneSubgroupError,
)


def is_prime(n: int) -> bool:
    return n >= 2 and smallest_prime_factor(n) == n


@dataclass(frozen=True)
class Subgroup:
    """A subset of a parent group's elements, closed under its operation."""

    parent: FiniteGroup
    members: tuple[int, ...]
    _member_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_member_set", frozenset(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set

    def is_trivial(self) -> bool:
        return len(self.members) == 1

    def is_full(self) -> bool:
        return len(self.members) == self.parent.order


def subgroup_from_members(parent: FiniteGroup, members: Iterable[int]) -> Subgroup:
    """Validate a member set (indices, identity, inverses, closure)."""
    ordered = sorted(set(_indices(parent, members)) | {0})
    idx = np.array(ordered, dtype=np.intp)
    inside = _mask(parent.order, idx)
    lacking = ~inside[parent.inverse[idx]]
    if lacking.any():
        raise NotSubgroupError(f"inverse of {ordered[int(np.argmax(lacking))]} missing")
    escapes = ~inside[parent.table[np.ix_(idx, idx)]]
    if escapes.any():
        i, j = map(int, np.argwhere(escapes)[0])
        raise NotSubgroupError(f"product {ordered[i]}*{ordered[j]} escapes the member set")
    return Subgroup(parent, tuple(ordered))


def _indices(parent: FiniteGroup, xs: Iterable[int]) -> list[int]:
    """Each x as an index of parent, or NotSubgroupError naming the first
    that is out of range or not an integer (int() would truncate 2.5)."""
    out = []
    for x in xs:
        try:
            i = operator.index(x)
        except TypeError:
            raise NotSubgroupError(f"index {x!r} is not an integer") from None
        if not 0 <= i < parent.order:
            raise NotSubgroupError(f"index {x} out of range")
        out.append(i)
    return out


def _mask(n: int, members) -> np.ndarray:
    """Boolean membership mask over 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return mask


def closure(parent: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators."""
    return Subgroup(parent, closure_indices(parent.table, _indices(parent, gens)))


def bot(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, (0,))


def top(parent: FiniteGroup) -> Subgroup:
    return Subgroup(parent, tuple(range(parent.order)))


def _check_same_parent(a: Subgroup, b: Subgroup) -> None:
    if a.parent is not b.parent and a.parent != b.parent:
        raise MismatchedParentError("subgroups have different parent groups")


def meet(a: Subgroup, b: Subgroup) -> Subgroup:
    """Intersection (always a subgroup)."""
    _check_same_parent(a, b)
    return Subgroup(a.parent, tuple(sorted(set(a.members) & set(b.members))))


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """Subgroup generated by the union, closed over greedy generators of
    the union rather than over all its members."""
    _check_same_parent(a, b)
    return closure(a.parent, greedy_generators(a.parent.table, a.members + b.members))


def is_normal(h: Subgroup) -> bool:
    """Whether x m x^-1 lies in H for each generator x of the parent and
    every m in H. That is exact: conjugation by x is a bijection, so
    x H x^-1 = H once it lies in H, and the generators generate the parent."""
    parent, members = h.parent, list(h.members)
    return bool(_mask(parent.order, members)[parent.conjugates(members, parent.generators)].all())


def conjugate_subgroup(h: Subgroup, g: int) -> Subgroup:
    """The subgroup g H g^-1."""
    conjugates = h.parent.conjugates(list(h.members), [h.parent._element(g)])
    return Subgroup(h.parent, tuple(sorted(conjugates[0].tolist())))


def element_of_order(group: FiniteGroup, p: int) -> int:
    """Smallest-index element of order exactly p (p a prime dividing |G|)."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if group.order % p != 0:
        raise NoSuchElementError(f"{p} does not divide the group order {group.order}")
    for x, m in enumerate(group.element_orders()):
        if m == p:
            return x
    # Cauchy's theorem guarantees the scan above succeeds.
    raise NoSuchElementError(f"no element of order {p} found")


def subgroup_of_order(group: FiniteGroup, p: int) -> Subgroup:
    """The cyclic subgroup generated by the smallest element of order p."""
    return closure(group, [element_of_order(group, p)])


def distinct_subgroups_of_order(group: FiniteGroup, p: int) -> tuple[Subgroup, Subgroup]:
    """Two distinct order-p subgroups of a noncyclic group of order p^2."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    first: Subgroup | None = None
    for x, m in enumerate(group.element_orders()):
        if m != p:
            continue
        candidate = closure(group, [x])
        if first is None:
            first = candidate
        elif candidate.members != first.members:
            return first, candidate
    raise OnlyOneSubgroupError(f"only one subgroup of order {p} exists")


class AsGroup(NamedTuple):
    """A subgroup re-indexed as a standalone group.

    embed maps subgroup indices to parent indices; section is the inverse
    map, an int32 array over the parent that holds -1 off the subgroup.
    """

    group: FiniteGroup
    embed: tuple[int, ...]
    section: np.ndarray


def as_group(h: Subgroup) -> AsGroup:
    """Promote a subgroup to a FiniteGroup of its own (identity stays at 0)."""
    members = h.members
    k = len(members)
    section = np.full(h.parent.order, -1, dtype=np.int32)
    section[list(members)] = np.arange(k, dtype=np.int32)
    section.setflags(write=False)
    table = section[h.parent.table[np.ix_(members, members)]]
    return AsGroup(from_table(k, table), members, section)
