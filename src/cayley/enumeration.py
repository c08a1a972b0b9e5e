"""Independent brute-force enumeration of all groups of a small order up
to isomorphism: the ground-truth oracle for the classification claims.

The table search is a kernel with one algorithm in two builds: the
optional C extension _fillcore_c (compiled from _fillcore.c by setup.py)
and the pure-Python reference _fillcore. The compiled one is used whenever
it imports, otherwise the pure one; BACKEND names the choice. Both return
identical tables in identical order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fillcore
from .core import FiniteGroup, from_table
from .errors import BudgetExceededError
from .morphisms import _colour_key, find_isomorphism

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


def enumerate_groups(n: int, budget: int | None = None) -> EnumerationReport:
    """All groups of order n up to isomorphism.

    The kernel's canonical search is complete but may emit isomorphic
    duplicates; they are removed here by bucketing on the colour key (the
    sorted element colours, see morphisms) followed by the full
    isomorphism search, so the oracle never trusts an invariant for a
    positive identification.
    """
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
        group = from_table(n, np.array(flat, dtype=np.int32).reshape(n, n))
        bucket = buckets.setdefault(_colour_key(group), [])
        if any(find_isomorphism(group, rep) is not None for rep in bucket):
            rejections += 1
            continue
        bucket.append(group)
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
