"""Shared fixtures: scenario paths, scenario documents and small hand-built worlds."""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest

from legiplan import (
    CircleObstacle,
    Goal,
    LegibilityParams,
    ObserverState,
    PlannerParams,
    Point2,
    RobotState,
    ScenarioSpec,
    TaskCostWeights,
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
