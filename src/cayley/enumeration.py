"""Independent brute-force enumeration of all groups of a small order up
to isomorphism: the ground-truth oracle for the classification claims.

The table search is a kernel with one algorithm in two builds: the
optional C extension _fillcore_c (compiled from _fillcore.c by setup.py)
and the pure-Python reference _fillcore. The compiled one is used whenever
it imports, otherwise the pure one; BACKEND names the choice. Both return
identical tables in identical order.

The kernel may emit isomorphic duplicates. Each leaf is first wrapped
unvalidated, only to compute its colour key (the sorted element colours,
see morphisms) and to be searched. A leaf is a duplicate when a
representative with the same key relabels onto it: the generator-image
search from the representative proposes a map f, and f is accepted only
once it is a permutation and one gather shows
leaf[f[x], f[y]] == f[rep[x, y]] on all n^2 pairs. Such a leaf is a
relabelled group table, so it is a group and needs no validation. Only a
leaf that relabels no representative is validated by from_table, which
raises its error if it is not a group, and becomes a representative. The
oracle uses no group catalog and never concludes a positive from an
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fillcore
from .core import FiniteGroup, from_table
from .errors import BudgetExceededError, NoInverseError
from .morphisms import _colour_key, _image_search, generating_sequence

DEFAULT_BUDGET = 16
HARD_ORDER_LIMIT = _fillcore.MAX_KERNEL_ORDER

try:
    from . import _fillcore_c as _kernel  # type: ignore[attr-defined]

    BACKEND = "compiled"
except ImportError:  # pragma: no cover - depends on the build environment
    _kernel = _fillcore
    BACKEND = "pure"


def enumerate_tables(n: int) -> tuple[list[tuple[int, ...]], int]:
    """Raw kernel run: canonical-search tables plus the node count."""
    return _kernel.enumerate_group_tables(n)


@dataclass(frozen=True)
class EnumerationStats:
    nodes: int
    tables_completed: int
    iso_rejections: int
    backend: str


@dataclass(frozen=True)
class EnumerationReport:
    order: int
    representatives: tuple[FiniteGroup, ...]
    count: int
    stats: EnumerationStats


def check_order_fits(n: int, budget: int) -> None:
    """BudgetExceededError unless enumerate_groups(n, budget) may run:
    n within the budget and within the kernel's order limit."""
    if n > budget:
        raise BudgetExceededError(f"order {n} exceeds the enumeration budget {budget}", needed=n)
    if n > HARD_ORDER_LIMIT:
        raise BudgetExceededError(f"kernel supports orders up to {HARD_ORDER_LIMIT}")


def _leaf(n: int, table: np.ndarray) -> FiniteGroup | None:
    """A kernel leaf as an unvalidated FiniteGroup with its colour key
    cached, or None unless its entries lie below n and every power walk
    returns to 0 within n steps, as in every group table. It is only
    coloured and searched, and never leaves this module."""
    if int(table.max()) >= n:
        return None
    # The first 0 in each row: the inverse, if the table is a group.
    leaf = FiniteGroup(n, table, table.argmin(axis=1), ())
    try:
        _colour_key(leaf)
    except NoInverseError:
        return None
    return leaf


def _is_relabelling(rep: FiniteGroup, leaf: FiniteGroup) -> bool:
    """Whether the leaf's table is rep's under a relabelling: the first map
    f that the search from rep's generating sequence finds is accepted
    only if it is a permutation and leaf[f[x], f[y]] == f[rep[x, y]] for
    all n^2 pairs, one gather. The leaf needs an equal colour key."""
    maps = _image_search(rep, leaf, generating_sequence(rep), find_all=False)
    if not maps:
        return False
    f = np.asarray(maps[0])
    if not np.array_equal(np.sort(f), np.arange(rep.order)):
        return False
    return bool(np.array_equal(leaf.table[f[:, None], f], f[rep.table]))


def enumerate_groups(n: int, budget: int | None = None) -> EnumerationReport:
    """All groups of order n up to isomorphism: the kernel's leaves less
    those that relabel a representative with the same colour key (see the
    module docstring); each representative is validated by from_table."""
    if budget is None:
        budget = DEFAULT_BUDGET
    if n < 1:
        raise ValueError(f"order {n} is not a group order; it must be at least 1")
    check_order_fits(n, budget)
    tables, nodes = enumerate_tables(n)
    representatives: list[FiniteGroup] = []
    buckets: dict[tuple, list[FiniteGroup]] = {}
    rejections = 0
    for flat in tables:
        # Kernel entries lie below HARD_ORDER_LIMIT, so each fits in a byte.
        table = np.frombuffer(bytes(flat), np.uint8).reshape(n, n)
        leaf = _leaf(n, table)
        if leaf is not None and any(
            _is_relabelling(rep, leaf) for rep in buckets.get(_colour_key(leaf), ())
        ):
            rejections += 1
            continue
        group = from_table(n, table)
        buckets.setdefault(_colour_key(group), []).append(group)
        representatives.append(group)
    stats = EnumerationStats(
        nodes=nodes,
        tables_completed=len(tables),
        iso_rejections=rejections,
        backend=BACKEND,
    )
    return EnumerationReport(n, tuple(representatives), len(representatives), stats)


def count_groups(n: int, budget: int | None = None) -> int:
    """Number of isomorphism classes of groups of order n."""
    return enumerate_groups(n, budget=budget).count
