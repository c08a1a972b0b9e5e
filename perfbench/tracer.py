"""Per-layer tracing for the benchmark.

The tracer wraps the public functions of each cayley module and records one
span per call: name, start, end, the span that caused it and the benchmark
operation it belongs to. Spans stay in memory until `dump` writes them.
Every module-level binding of a wrapped function is patched (for example
`from_table` is bound in core, subgroups, morphisms, products, fileformat
and enumeration), so calls made through any import path are seen.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import Counter
from time import perf_counter_ns

# (module, function, metric prefix). The kernel is entered only through
# enumeration.enumerate_tables, so that binding stands for the kernel layer.
LAYER_FUNCTIONS = (
    ("enumeration", "enumerate_tables", "kernel"),
    ("core", "from_table", "core.from_table"),
    ("core", "closure_indices", "core.closure_indices"),
    ("core", "cyclic_group", "core.cyclic_group"),
    ("subgroups", "is_normal", "subgroups.is_normal"),
    ("subgroups", "as_group", "subgroups.as_group"),
    ("subgroups", "subgroup_from_members", "subgroups.subgroup_from_members"),
    ("morphisms", "fingerprint", "morphisms.fingerprint"),
    ("morphisms", "find_isomorphism", "morphisms.find_isomorphism"),
    ("morphisms", "generating_sequence", "morphisms.generating_sequence"),
    ("morphisms", "automorphism_group", "morphisms.automorphism_group"),
    ("morphisms", "make_hom", "morphisms.make_hom"),
    ("products", "direct_product", "products.direct_product"),
    ("products", "semidirect_product", "products.semidirect_product"),
    ("recognition", "internal_semidirect", "recognition.internal_semidirect"),
    ("recognition", "internal_direct", "recognition.internal_direct"),
    ("classification", "classify", "classification.classify"),
    ("classification", "canonical_semidirect", "classification.canonical_semidirect"),
    ("enumeration", "enumerate_groups", "enumeration.enumerate_groups"),
    ("fileformat", "read_group", "fileformat.read_group"),
    ("fileformat", "write_group", "fileformat.write_group"),
    ("cli", "main", "cli.main"),
)
LABELS = tuple(label for _, _, label in LAYER_FUNCTIONS)


def module_of(label: str) -> str:
    return label.split(".", 1)[0]


def _count_kernel(counters, args, kwargs, result):
    tables, nodes = result
    counters["kernel.tables"] += len(tables)
    counters["kernel.nodes"] += nodes


def _count_enumeration(counters, args, kwargs, result):
    counters["enumeration.classes"] += result.count


def _count_isomorphism(counters, args, kwargs, result):
    counters["morphisms.find_isomorphism.hits"] += result is not None


def _count_automorphisms(counters, args, kwargs, result):
    counters["morphisms.automorphism_group.autos"] += len(result.perms)


def _count_read_bytes(counters, args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)):
        counters["fileformat.read_group.bytes"] += os.path.getsize(source)


# Counts taken from a wrapped call's arguments and result, where the work
# happens, so ratios are formed from the layer's own numbers.
COUNTERS = {
    "kernel": _count_kernel,
    "enumeration.enumerate_groups": _count_enumeration,
    "morphisms.find_isomorphism": _count_isomorphism,
    "morphisms.automorphism_group": _count_automorphisms,
    "fileformat.read_group": _count_read_bytes,
}


class Tracer:
    """Spans and per-function totals for the wrapped cayley functions."""

    def __init__(self) -> None:
        # label -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {label: [0, 0, 0] for label in LABELS}
        self.counters: Counter = Counter()
        # (span id, parent id or -1, op index, label index, start ns, end ns)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.op = -1
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Replace every cayley module-level binding of each wrapped function."""
        for module, _, _ in LAYER_FUNCTIONS:
            importlib.import_module(f"cayley.{module}")
        modules = [m for name, m in sys.modules.items()
                   if name == "cayley" or name.startswith("cayley.")]
        for index, (module, func, label) in enumerate(LAYER_FUNCTIONS):
            original = getattr(sys.modules[f"cayley.{module}"], func)
            wrapper = self._wrap(index, label, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, index: int, label: str, fn):
        stat = self.stats[label]
        count = COUNTERS.get(label)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans.append((span_id, parent, self.op, index, start, end))
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return wrapper

    def merge(self, payload: dict, op: int) -> None:
        """Add a child process's dumped totals and spans under operation `op`."""
        for label, (calls, total, self_ns) in payload["stats"].items():
            stat = self.stats[label]
            stat[0] += calls
            stat[1] += total
            stat[2] += self_ns
        self.counters.update(payload["counters"])
        base = self._next_id
        for span_id, parent, _, index, start, end in payload["spans"]:
            self.spans.append((base + span_id, parent if parent < 0 else base + parent,
                               op, index, start, end))
        self._next_id = base + len(payload["spans"])

    def dump(self, path: str | os.PathLike) -> None:
        payload = {"labels": list(LABELS), "stats": self.stats,
                   "counters": dict(self.counters), "spans": self.spans}
        with open(path, "w", encoding="ascii") as handle:
            json.dump(payload, handle, separators=(",", ":"))
