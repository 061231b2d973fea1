"""What ``import legiplan`` loads: parsing a scenario and scoring a logged
path load neither the planner nor the SVG writer, and every name of the
package still resolves to the object its defining module holds."""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import legiplan
from legiplan import legibility, model, planner
from tests.conftest import SCENARIO_DIR

DEFERRED_MODULES = ("legiplan.planner", "legiplan.svg_render")

# Run in a fresh interpreter: parse a shipped scene, read a log of a straight
# path to its target and score it, then look at sys.modules and the package.
_CHILD = """
import json, sys
import numpy as np
import legiplan

spec = legiplan.parse_scenario(open(sys.argv[1], "rb").read())
start, end = spec.robot.position, spec.target_goal().position
xy = np.linspace([start.x, start.y], [end.x, end.y], 9)
rows = [(0.4 * i, x, y, 0.0, 0.5, 0.0, 1.0) for i, (x, y) in enumerate(xy.tolist())]
log = legiplan.scenario_io.format_trajectory_csv(rows)
trajectory, _ = legiplan.scenario_io.read_trajectory_csv(log)
score = legiplan.evaluate_trajectory(trajectory, spec).score
scoring_loaded = sorted(m for m in sys.modules if m.startswith("legiplan."))
submodules = {name: type(getattr(legiplan, name.split(".")[1])).__name__
              for name in ("legiplan.planner", "legiplan.svg_render")}
deferred = {
    name: getattr(legiplan, name) is getattr(getattr(legiplan, module), name)
    for name, module in legiplan._DEFERRED.items() if name != module
}
star = {}
exec("from legiplan import *", star)
print(json.dumps({
    "score": score, "scoring_loaded": scoring_loaded, "submodules": submodules,
    "deferred": deferred, "unbound": sorted(set(legiplan.__all__) - set(star)),
    "task_cost": type(legiplan.task_cost).__name__,
}))
"""


def _child_report() -> dict:
    src_root = str(Path(legiplan.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(SCENARIO_DIR / "restaurant_side.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
        check=True, timeout=120,
    )
    return json.loads(done.stdout)


def test_parsing_and_scoring_load_neither_the_planner_nor_the_svg_writer():
    report = _child_report()
    assert 0.0 <= report["score"] <= 1.0
    assert not set(DEFERRED_MODULES) & set(report["scoring_loaded"])
    assert "legiplan.scenario_io" in report["scoring_loaded"]
    # Then, still before any use, the two submodules resolve as attributes,
    # each deferred name is its module's object and `import *` binds them all.
    assert report["submodules"] == dict.fromkeys(DEFERRED_MODULES, "module")
    assert report["deferred"] and all(report["deferred"].values())
    assert report["unbound"] == []
    assert report["task_cost"] == "function"  # not rebound to the submodule


def test_the_moved_parameter_classes_keep_every_import_path():
    for cls in (legiplan.PlannerParams, legiplan.TaskCostWeights, legiplan.LegibilityParams):
        assert cls.__module__ == "legiplan.model" and getattr(model, cls.__name__) is cls
    assert planner.PlannerParams is legiplan.PlannerParams
    assert sys.modules["legiplan.task_cost"].TaskCostWeights is legiplan.TaskCostWeights
    assert legibility.LegibilityParams is legiplan.LegibilityParams


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'legiplan' has no attribute 'no_such_name'"):
        legiplan.no_such_name  # noqa: B018


def test_no_dataclass_has_a_generated_docstring():
    # Without a docstring, dataclass() builds one with inspect.signature: about
    # 0.35 ms more per class at every import, on a 2-vCPU host.
    generated = []
    for info in pkgutil.iter_modules(legiplan.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"legiplan.{info.name}")
        for name, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            if cls.__module__ == module.__name__ and cls.__doc__.startswith(f"{name}("):
                generated.append(f"{module.__name__}.{name}")
    assert generated == []
