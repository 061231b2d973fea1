"""Shared fixtures: scenario paths, scenario documents and small hand-built worlds."""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import legiplan.planner as planner_module
from legiplan import (
    CircleObstacle,
    Goal,
    LegibilityParams,
    ObserverState,
    PlannerFailure,
    PlannerParams,
    Point2,
    RobotState,
    ScenarioSpec,
    TaskCostWeights,
    run_closed_loop,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SCENARIO_NAMES = (
    "fig1_two_goals",
    "fig3_obstacle_detour",
    "fig4_fov_sweep_left",
    "fig4_fov_sweep_center",
    "fig4_fov_sweep_right",
    "restaurant_front",
    "restaurant_side",
)


# The smallest valid scenario document: every other key takes its default.
MINIMAL = {
    "robot": {"position": [0.0, 0.0]},
    "goals": [{"id": "G", "position": [2.0, 0.0], "is_target": True}],
}

# A goal x written as an integer literal of 5,000 nines: beyond Python's
# int-to-str digit limit (4,300 unless PYTHONINTMAXSTRDIGITS changes it).
LONG_LITERAL = json.dumps(MINIMAL).replace("[2.0, 0.0]", "[" + "9" * 5000 + ", 0.0]")
needs_digit_limit = pytest.mark.skipif(
    not 0 < sys.get_int_max_str_digits() < 5000, reason="needs an int digit limit below 5000"
)

# MINIMAL's goal in a document that sets every key the parser reads, so the
# fuzz can hit each: all robot keys, an observer with every key, one obstacle
# of each type, and every planner, task_weights and legibility key.
BASE = {
    "version": 1,
    "robot": {
        "position": [0.0, 0.0], "heading_deg": 0.0, "speed": 0.2, "radius": 0.3,
        "v_max": 1.0, "a_max": 1.0, "omega_max_deg": 90.0,
    },
    "goals": MINIMAL["goals"],
    "observers": [{
        "id": "O", "position": [2.0, 1.0], "heading_deg": -90.0, "fov_deg": 120.0,
        "attached_goal": "G",
    }],
    "obstacles": [
        {"type": "circle", "center": [1.0, 1.5], "radius": 0.3},
        {"type": "rect", "min": [0.8, -1.5], "max": [1.2, -0.5]},
    ],
    "planner": {
        "dt": 0.4, "horizon_w": 12, "mode": "legible", "cem_population": 16,
        "cem_elites": 4, "cem_iterations": 2, "cem_init_std": {"v": 0.5, "omega_deg": 45.0},
        "execute_steps": 1, "goal_tolerance": 0.3, "max_cycles": 50,
    },
    "task_weights": {
        "w_goal": 1.0, "w_clearance": 2.0, "w_approach": 0.5, "w_smooth": 0.1,
        "w_speed": 0.2, "d_safe": 0.5, "v_pref": 0.8,
    },
    "legibility": {"lambda_sim": 1.0, "lambda_fov": 1.0, "h_max": 3.0, "eps_v": 1e-6},
    "seed": 7,
}


def document_slots(value, path=()):
    """Every place in `value` a mutation can write: each existing key or
    index, plus one new key per object."""
    if isinstance(value, dict):
        yield (*path, "new_key")
        for key, child in value.items():
            yield (*path, key)
            yield from document_slots(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield (*path, i)
            yield from document_slots(child, (*path, i))


@pytest.fixture(scope="session")
def scenario_dir() -> Path:
    return SCENARIO_DIR


def make_robot(**overrides) -> RobotState:
    fields = dict(
        position=Point2(0.0, 0.0),
        heading=0.0,
        speed=0.0,
        radius=0.3,
        v_max=1.0,
        a_max=1.0,
        omega_max=math.pi / 2,
    )
    fields.update(overrides)
    return RobotState(**fields)


def make_scenario(**overrides) -> ScenarioSpec:
    """Small two-goal world with a fast planner, for unit tests."""
    fields = dict(
        robot=make_robot(),
        goals=(
            Goal("G1", Point2(4.0, 0.8), is_target=True),
            Goal("G2", Point2(4.0, -0.8)),
        ),
        observers=(ObserverState("O1", Point2(4.8, 0.8), math.pi, attached_goal="G1"),),
        obstacles=(CircleObstacle(Point2(2.0, -0.9), 0.3),),
        planner=PlannerParams(
            cem_population=32, cem_iterations=3, horizon_w=8, max_cycles=120
        ),
        task_weights=TaskCostWeights(w_goal=2.0, v_pref=0.8),
        legibility=LegibilityParams(lambda_sim=4.0, lambda_fov=1.0),
        seed=3,
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


def random_trajectory(rng: np.random.Generator, steps: int = 8, dt: float = 0.4):
    from legiplan import Trajectory

    start = rng.uniform(-3, 3, size=2)
    deltas = rng.normal(scale=0.4, size=(steps, 2))
    return Trajectory(np.vstack([start, start + np.cumsum(deltas, axis=0)]), dt)


def mirrored(spec: ScenarioSpec) -> ScenarioSpec:
    """The same scene mirrored in the x axis (y -> -y): robot, goals, observers
    and obstacles, with every heading negated and left unwrapped."""

    def flip(p: Point2) -> Point2:
        return Point2(p.x, -p.y)

    def flip_obstacle(obs):
        if isinstance(obs, CircleObstacle):
            return dataclasses.replace(obs, center=flip(obs.center))
        return dataclasses.replace(
            obs, min=Point2(obs.min.x, -obs.max.y), max=Point2(obs.max.x, -obs.min.y)
        )

    return dataclasses.replace(
        spec,
        robot=dataclasses.replace(
            spec.robot, position=flip(spec.robot.position), heading=-spec.robot.heading
        ),
        goals=tuple(dataclasses.replace(g, position=flip(g.position)) for g in spec.goals),
        observers=tuple(
            dataclasses.replace(o, position=flip(o.position), heading=-o.heading)
            for o in spec.observers
        ),
        obstacles=tuple(flip_obstacle(obs) for obs in spec.obstacles),
    )


def run_or_failure(spec: ScenarioSpec):
    """run_closed_loop's result, or the PlannerFailure it raised."""
    try:
        return run_closed_loop(spec)
    except PlannerFailure as failure:
        return failure


def run_mirrored(spec: ScenarioSpec):
    """run_or_failure on mirrored(spec), with the omega channel of every noise
    draw negated: each candidate is then the mirror of the same candidate in
    the run on spec."""
    draw = planner_module._draw_noise

    def omega_negated(*args):
        noise = draw(*args)
        noise[..., 1] *= -1.0
        return noise

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner_module, "_draw_noise", omega_negated)
        return run_or_failure(mirrored(spec))


def assert_mirrors(here, there) -> None:
    """`there` is the mirror of `here`, bit for bit: both runs, or both
    PlannerFailures with their partial logs. `==` on floats, so +0.0 and -0.0
    count as equal."""
    assert type(there) is type(here)
    if isinstance(here, PlannerFailure):
        assert there.breakdown == here.breakdown
        here, there = here.partial, there.partial
    assert there.reached == here.reached
    assert there.cycles_used == here.cycles_used
    xy, mirror_xy = here.executed.waypoints, there.executed.waypoints
    assert np.all(mirror_xy[:, 0] == xy[:, 0])
    assert np.all(mirror_xy[:, 1] == -xy[:, 1])
    headings = -here.headings
    headings[headings == -math.pi] = math.pi
    assert np.all(there.headings == headings)
    assert np.all(there.controls[:, 0] == here.controls[:, 0])
    assert np.all(there.controls[:, 1] == -here.controls[:, 1])
    assert [p.breakdown for p in there.plan_results] == [p.breakdown for p in here.plan_results]
