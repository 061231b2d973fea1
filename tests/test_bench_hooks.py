"""Every function the benchmark's layer tracer hooks still exists, and a
traced benchmark run completes.

perfbench/tracing.py wraps module attributes by name (``LAYER_HOOKS``), so a
refactor that drops or renames one breaks the benchmark. This checks each
name against the package, reading the hook table from that file.
"""
from __future__ import annotations

import importlib.util
import json
import subprocess
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


def test_a_traced_scoring_run_completes():
    # The hooks patch sys.modules["legiplan.planner"], which parsing and
    # scoring never load: the run depends on the first hook reading
    # legiplan.run_closed_loop, which imports it.
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score_logs", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=TRACING.parent.parent, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
