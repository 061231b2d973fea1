"""Legibility-aware local motion planning and scenario simulation."""

import importlib

from .evaluation import (
    LegibilityReport,
    PosteriorModel,
    correctness,
    evaluate_trajectory,
    goal_posterior,
    legibility_score,
)
from .legibility import (
    PredictedPathSet,
    designated_observer,
    fov_cost,
    h_weight,
    legibility_aware_cost,
    sim_cost,
    theta_dev,
    visibility,
    weighted_similarity,
)
from .model import (
    CircleObstacle,
    Goal,
    LegibilityParams,
    Obstacle,
    ObserverState,
    PlannerFailure,
    PlannerParams,
    Point2,
    RectObstacle,
    RobotState,
    ScenarioError,
    ScenarioSpec,
    TaskCostWeights,
    Trajectory,
    arc_length_prefix,
    clearance,
    velocities,
)
from .scenario_io import (
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .task_cost import CostBreakdown, task_cost  # eager: the function, over the submodule

# Deferred names and the submodule each loads on first use: parsing a scenario
# and scoring a logged path load neither the planner nor the SVG writer.
_DEFERRED = {
    **dict.fromkeys(("ControlSequence", "PlanResult", "SimulationResult", "plan_once", "rollout",
                     "run_closed_loop", "planner"), "planner"),
    **dict.fromkeys(("render_svg", "svg_render"), "svg_render"),
}

__version__ = "0.1.0"

__all__ = [
    "CircleObstacle",
    "ControlSequence",
    "CostBreakdown",
    "Goal",
    "LegibilityParams",
    "LegibilityReport",
    "Obstacle",
    "ObserverState",
    "PlanResult",
    "PlannerFailure",
    "PlannerParams",
    "Point2",
    "PosteriorModel",
    "PredictedPathSet",
    "RectObstacle",
    "RobotState",
    "ScenarioError",
    "ScenarioSpec",
    "SimulationResult",
    "TaskCostWeights",
    "Trajectory",
    "arc_length_prefix",
    "clearance",
    "correctness",
    "designated_observer",
    "evaluate_trajectory",
    "fov_cost",
    "goal_posterior",
    "h_weight",
    "legibility_aware_cost",
    "legibility_score",
    "load_scenario",
    "parse_scenario",
    "plan_once",
    "render_svg",
    "rollout",
    "run_closed_loop",
    "serialize_scenario",
    "sim_cost",
    "task_cost",
    "theta_dev",
    "velocities",
    "visibility",
    "weighted_similarity",
]


def __getattr__(name: str):
    """A deferred name, imported with its submodule on first use (PEP 562)."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_DEFERRED[name]}", __name__)  # a renamed copy's own
    return module if name == _DEFERRED[name] else globals().setdefault(name, getattr(module, name))
