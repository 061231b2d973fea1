"""Observer-perspective legibility costs.

Covers the deviation angle and visibility test, the distance-ratio weighting
h(q), the weighted velocity-cosine similarity between a candidate and the
per-goal predicted paths, the field-of-view cost, and the combined
legibility-aware objective that adds both terms to the task cost.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Goal,
    Obstacle,
    ObserverState,
    Point2,
    RobotState,
    ScenarioSpec,
    Trajectory,
    velocities,
)
from .task_cost import CostBreakdown, TaskCostWeights, task_cost

# Per-goal predicted local paths, keyed by goal id. Must cover every goal in
# the scenario (including the target) and share dt/horizon with the
# candidate being scored.
PredictedPathSet = dict[str, Trajectory]


@dataclass(frozen=True)
class LegibilityParams:
    lambda_sim: float = 1.0  # weight of the similarity cost
    lambda_fov: float = 1.0  # weight of the field-of-view cost
    h_max: float = 3.0  # clamp for the distance-ratio weighting
    eps_v: float = 1e-6  # m/s, below this a velocity carries no direction

    def __post_init__(self) -> None:
        if self.lambda_sim < 0 or self.lambda_fov < 0:
            raise ValueError("lambda_sim and lambda_fov must be nonnegative")
        if self.h_max <= 0 or self.eps_v <= 0:
            raise ValueError("h_max and eps_v must be positive")


def designated_observer(scenario: ScenarioSpec) -> ObserverState | None:
    """The observer the legibility terms are computed for.

    Prefers the observer attached to the target goal, falls back to the
    first observer, and returns None when the scenario has no observers.
    """
    if not scenario.observers:
        return None
    target_id = scenario.target_goal().id
    for obs in scenario.observers:
        if obs.attached_goal == target_id:
            return obs
    return scenario.observers[0]


def theta_dev_points(points: np.ndarray, observer: ObserverState) -> np.ndarray:
    """Deviation angle in [0, pi] between the observer's gaze and each point.

    Points coinciding with the observer position get angle 0 by convention.
    `points` has shape (..., 2).
    """
    pts = np.asarray(points, dtype=float)
    rel = pts - observer.position.as_array()
    norm = np.linalg.norm(rel, axis=-1)
    gaze = np.array([math.cos(observer.heading), math.sin(observer.heading)])
    safe = np.where(norm == 0.0, 1.0, norm)
    cosang = (rel @ gaze) / safe
    angles = np.arccos(np.clip(cosang, -1.0, 1.0))
    return np.where(norm == 0.0, 0.0, angles)


def theta_dev(q: Point2, observer: ObserverState) -> float:
    return float(theta_dev_points(q.as_array(), observer))


def visibility(q: Point2, observer: ObserverState) -> bool:
    """True iff q lies inside the observer's FOV wedge (boundary inclusive).

    Depth is infinite; only the angular deviation matters.
    """
    return bool(visibility_points(q.as_array(), observer))


def visibility_points(points: np.ndarray, observer: ObserverState | None) -> np.ndarray:
    """Visibility mask (1.0 visible / 0.0 not) for an array of points.

    With no observer everything counts as visible.
    """
    pts = np.asarray(points, dtype=float)
    if observer is None:
        return np.ones(pts.shape[:-1], dtype=float)
    return (theta_dev_points(pts, observer) <= observer.fov / 2.0).astype(float)


def h_weight(q: Point2, g_star: Point2, g: Point2, h_max: float = 3.0) -> float:
    """Distance-ratio weighting d(q, G*) / d(q, G), clamped to [0, h_max].

    Exactly 1 when g is the target itself; h_max when q sits on the
    unintended goal.
    """
    return float(h_weight_points(q.as_array(), g_star.as_array(), g.as_array(), h_max))


def h_weight_points(
    points: np.ndarray, g_star_xy: np.ndarray, g_xy: np.ndarray, h_max: float
) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if bool(np.all(g_star_xy == g_xy)):
        return np.ones(pts.shape[:-1], dtype=float)
    d_star = np.linalg.norm(pts - g_star_xy, axis=-1)
    d_g = np.linalg.norm(pts - g_xy, axis=-1)
    ratio = np.where(d_g == 0.0, h_max, d_star / np.where(d_g == 0.0, 1.0, d_g))
    return np.minimum(ratio, h_max)


def masked_cosines(
    vel_a: np.ndarray, vel_b: np.ndarray, eps_v: float
) -> np.ndarray:
    """Per-step cosine between two velocity arrays; near-zero speeds give 0.

    Broadcasts over leading batch dimensions; last two axes are (T, 2).
    """
    na = np.linalg.norm(vel_a, axis=-1)
    nb = np.linalg.norm(vel_b, axis=-1)
    usable = (na >= eps_v) & (nb >= eps_v)
    denom = np.where(usable, na * nb, 1.0)
    cos = np.sum(vel_a * vel_b, axis=-1) / denom
    return np.where(usable, cos, 0.0)


def weighted_similarity_batch(
    cand_waypoints: np.ndarray,
    cand_velocities: np.ndarray,
    pred_velocities: np.ndarray,
    goals_xy: np.ndarray,
    g_star_xy: np.ndarray,
    observer: ObserverState | None,
    params: LegibilityParams,
) -> np.ndarray:
    """Visibility- and h-weighted cosine similarity of a candidate batch to
    the predicted path of each of G goals.

    cand_* have shape (n, T, 2), pred_velocities (G, T, 2) and goals_xy
    (G, 2); returns shape (G, n). Visibility is computed once for all goals.
    """
    cos = masked_cosines(
        cand_velocities[np.newaxis], pred_velocities[:, np.newaxis], params.eps_v
    )  # (G, n, T)
    vis = visibility_points(cand_waypoints, observer)
    return np.stack([
        np.sum(vis * h_weight_points(cand_waypoints, g_star_xy, g_xy, params.h_max) * c, axis=-1)
        for g_xy, c in zip(goals_xy, cos)
    ])


def _check_comparable(candidate: Trajectory, predicted: Trajectory) -> None:
    if candidate.waypoints.shape != predicted.waypoints.shape:
        raise ValueError(
            "candidate and predicted trajectories must share waypoint count: "
            f"{candidate.waypoints.shape[0]} vs {predicted.waypoints.shape[0]}"
        )
    if candidate.dt != predicted.dt:
        raise ValueError(
            f"candidate and predicted trajectories must share dt: "
            f"{candidate.dt} vs {predicted.dt}"
        )


def weighted_similarity(
    candidate: Trajectory,
    predicted: Trajectory,
    goal: Goal,
    g_star: Point2,
    observer: ObserverState | None,
    params: LegibilityParams,
) -> float:
    """Weighted cosine similarity between a candidate and one predicted path."""
    _check_comparable(candidate, predicted)
    result = weighted_similarity_batch(
        candidate.waypoints[np.newaxis],
        velocities(candidate)[np.newaxis],
        velocities(predicted)[np.newaxis],
        goal.position.as_array()[np.newaxis],
        g_star.as_array(),
        observer,
        params,
    )
    return float(result[0, 0])


def sim_cost(
    candidate: Trajectory,
    predictions: PredictedPathSet,
    goals: tuple[Goal, ...] | list[Goal],
    observer: ObserverState | None,
    params: LegibilityParams,
) -> float:
    """Similarity cost: likeness to unintended predictions minus likeness to
    the target's prediction."""
    targets = [g for g in goals if g.is_target]
    if len(targets) != 1:
        raise ValueError(f"goals must contain exactly one target, found {len(targets)}")
    g_star = targets[0]
    missing = [g.id for g in goals if g.id not in predictions]
    if missing:
        raise ValueError(f"predictions missing for goals: {missing}")
    for goal in goals:
        _check_comparable(candidate, predictions[goal.id])

    sims = weighted_similarity_batch(
        candidate.waypoints[np.newaxis],
        velocities(candidate)[np.newaxis],
        np.stack([velocities(predictions[goal.id]) for goal in goals]),
        np.array([goal.position.as_array() for goal in goals]),
        g_star.position.as_array(),
        observer,
        params,
    )
    total = 0.0
    for goal, sim in zip(goals, sims[:, 0]):
        total += float(-sim if goal.is_target else sim)
    return total


def fov_cost(candidate: Trajectory, observer: ObserverState | None) -> float:
    """Sum of tanh(theta_dev / (fov/2)) over waypoints; 0 when dead ahead."""
    return float(fov_cost_batch(candidate.waypoints[np.newaxis], observer)[0])


def fov_cost_batch(cand_waypoints: np.ndarray, observer: ObserverState | None) -> np.ndarray:
    """fov_cost for a batch of shape (n, T, 2); zero with no observer."""
    if observer is None:
        return np.zeros(cand_waypoints.shape[0], dtype=float)
    angles = theta_dev_points(cand_waypoints, observer)
    return np.sum(np.tanh(angles / (observer.fov / 2.0)), axis=-1)


def legibility_aware_cost(
    candidate: Trajectory,
    goal_star: Point2,
    predictions: PredictedPathSet,
    goals: tuple[Goal, ...] | list[Goal],
    observer: ObserverState | None,
    obstacles: tuple[Obstacle, ...] | list[Obstacle],
    robot: RobotState,
    task_weights: TaskCostWeights,
    params: LegibilityParams,
) -> CostBreakdown:
    """Combined objective: task cost plus weighted similarity and FOV costs.

    A collided candidate keeps the collision sentinel as its total; the
    legibility terms cannot rescue it.
    """
    breakdown = task_cost(candidate, goal_star, obstacles, robot, task_weights)
    if breakdown.collided:
        return breakdown
    sim = sim_cost(candidate, predictions, goals, observer, params)
    fov = fov_cost(candidate, observer)
    total = breakdown.total + params.lambda_sim * sim + params.lambda_fov * fov
    return dataclasses.replace(breakdown, sim_term=sim, fov_term=fov, total=total)
