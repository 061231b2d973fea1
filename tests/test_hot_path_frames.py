"""The planning cycle calls numpy's C routines directly: no Python frame of
numpy's wrapper modules is entered by a warm plan_once, and a repeated
ScenarioSpec construction imports nothing."""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from legiplan import load_scenario, plan_once

from tests.conftest import SCENARIO_DIR

NUMPY_DIR = Path(np.__file__).resolve().parent
# numpy's Python layers in front of a C routine: np.clip, np.cumsum, np.argmin,
# np.argsort, np.all (fromnumeric), np.full (numeric), np.stack (shape_base),
# np.broadcast_to (stride tricks) and ndarray.any and friends (_methods).
WRAPPER_FILES = {
    "_core/fromnumeric.py", "_core/numeric.py", "_core/shape_base.py",
    "lib/_stride_tricks_impl.py", "_core/_methods.py",
}
# ndarray.clip's own Python step; it calls the clip ufunc, which np.clip
# reaches too.
ALLOWED = {("_core/_methods.py", "_clip")}


def _frames_entered(fn) -> list[tuple[str, str]]:
    """(file, function) of every Python frame entered while ``fn()`` runs."""
    entered = []

    def profile(frame, event, arg):
        if event == "call":
            entered.append((frame.f_code.co_filename, frame.f_code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return entered


def _numpy_wrappers(entered: list[tuple[str, str]]) -> list[tuple[str, str]]:
    found = []
    for filename, name in entered:
        path = Path(filename)
        if not path.is_relative_to(NUMPY_DIR):
            continue
        rel = path.relative_to(NUMPY_DIR).as_posix()
        if rel in WRAPPER_FILES and (rel, name) not in ALLOWED:
            found.append((rel, name))
    return found


@pytest.mark.parametrize("name, mode", [
    ("restaurant_side", "legible"),
    ("fig4_fov_sweep_left", "baseline"),
])
def test_a_planning_cycle_enters_no_numpy_wrapper(name, mode):
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, mode=mode))
    plan_once(spec, rng_seed=1)  # warm-up: first-call caches and imports
    entered = _frames_entered(lambda: plan_once(spec, rng_seed=2))
    assert entered, "the profile hook saw no frame"
    assert _numpy_wrappers(entered) == []


def test_a_second_scenario_construction_imports_nothing():
    spec = load_scenario(str(SCENARIO_DIR / "fig1_two_goals.json"))

    def again():
        dataclasses.replace(spec, seed=spec.seed + 1)

    again()
    entered = _frames_entered(again)
    assert any(name == "__post_init__" for _, name in entered)
    assert [f for f in entered if "importlib._bootstrap" in f[0]] == []
