"""Every function the benchmark's layer tracer hooks still exists.

perfbench/tracing.py wraps module attributes by name (``LAYER_HOOKS``), so a
refactor that drops or renames one breaks the benchmark. This checks each
name against the package, reading the hook table from that file.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import legiplan  # noqa: F401  (the tracer hooks the package as imported)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _layer_hooks() -> tuple:
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYER_HOOKS


@pytest.mark.parametrize("hook", _layer_hooks(), ids=lambda hook: f"{hook.module}.{hook.attr}")
def test_traced_name_resolves(hook):
    assert callable(getattr(sys.modules[hook.module], hook.attr, None))
