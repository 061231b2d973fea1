"""Closed-loop guarantees over random 64-bit seeds: every run either raises
PlannerFailure or keeps non-negative clearance and the kinodynamic bounds, and
the run on the scene's mirror is its mirror, bit for bit."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legiplan import PlannerFailure, Point2, run_closed_loop  # noqa: E402
from legiplan.model import clearance_points  # noqa: E402
from legiplan.scenario_io import load_scenario  # noqa: E402
from tests.conftest import (  # noqa: E402
    SCENARIO_DIR,
    assert_mirrors,
    run_mirrored,
    run_or_failure,
)


def _cycle_start(sim, spec, cycle: int):
    """The robot state cycle ``cycle`` planned from."""
    idx = cycle * spec.planner.execute_steps
    pos = sim.executed.waypoints[idx]
    return dataclasses.replace(
        spec.robot,
        position=Point2(float(pos[0]), float(pos[1])),
        heading=float(sim.headings[idx]),
        speed=float(sim.controls[idx - 1, 0]) if idx else spec.robot.speed,
    )


@pytest.mark.parametrize("name", ["fig3_obstacle_detour", "restaurant_side"])
@pytest.mark.parametrize("mode", ["baseline", "legible"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_run_keeps_clearance_and_bounds_or_fails(name, mode, seed):
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(
        spec, seed=seed, planner=dataclasses.replace(spec.planner, mode=mode)
    )
    try:
        sim = run_closed_loop(spec)
    except PlannerFailure:
        return
    margins = clearance_points(sim.executed.waypoints, spec.obstacles) - spec.robot.radius
    assert np.min(margins) >= 0.0
    for cycle, plan in enumerate(sim.plan_results):
        assert plan.controls.respects(_cycle_start(sim, spec, cycle), spec.planner.dt), cycle


@pytest.mark.parametrize("name", ["fig3_obstacle_detour", "restaurant_side"])
@pytest.mark.parametrize("mode", ["baseline", "legible"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_mirrored_scene_runs_the_mirrored_path(name, mode, seed):
    # A PlannerFailure on one side is raised on the other, with mirrored
    # partial logs.
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(
        spec, seed=seed, planner=dataclasses.replace(spec.planner, mode=mode)
    )
    assert_mirrors(run_or_failure(spec), run_mirrored(spec))
