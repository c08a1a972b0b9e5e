"""perfbench/tracer.py wraps library functions by module and name, and only
under --trace 1; each of them must exist on cayley."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layer_functions() -> tuple:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "LAYER_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYER_FUNCTIONS")


def test_every_traced_function_resolves():
    layers = _layer_functions()
    assert layers
    missing = [
        f"{module}.{name}"
        for module, name, _ in layers
        if not callable(getattr(importlib.import_module(f"cayley.{module}"), name, None))
    ]
    assert missing == []
