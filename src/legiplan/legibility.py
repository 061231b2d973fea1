"""Observer-perspective legibility costs.

Covers the deviation angle and visibility test, the distance-ratio weighting
h(q), the weighted velocity-cosine similarity between a candidate and the
per-goal predicted paths, the field-of-view cost, and the combined
legibility-aware objective that adds both terms to the task cost. One batch
kernel, legible_cost_batch, scores both the planner's search and the
reported CostBreakdown, so the two agree by construction.
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
from .task_cost import COLLISION_COST, CostBreakdown, TaskCostWeights, task_cost_batch

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
    visible: np.ndarray,
    params: LegibilityParams,
) -> np.ndarray:
    """Visibility- and h-weighted cosine similarity of a candidate batch to
    the predicted path of each of G goals.

    cand_* have shape (n, T, 2), pred_velocities (G, T, 2), goals_xy (G, 2)
    and the visibility mask ``visible`` (n, T); returns shape (G, n).
    """
    cos = masked_cosines(
        cand_velocities[np.newaxis], pred_velocities[:, np.newaxis], params.eps_v
    )  # (G, n, T)
    return np.stack([
        np.sum(visible * h_weight_points(cand_waypoints, g_star_xy, g_xy, params.h_max) * c, axis=-1)
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
        visibility_points(candidate.waypoints[np.newaxis], observer),
        params,
    )
    return float(result[0, 0])


def _prediction_velocities(
    candidate: Trajectory, predictions: PredictedPathSet, goals: tuple[Goal, ...] | list[Goal]
) -> np.ndarray:
    """Velocities of each goal's predicted path in goals order, (G, T, 2), once
    the goals hold one target and every prediction matches the candidate."""
    targets = [g for g in goals if g.is_target]
    if len(targets) != 1:
        raise ValueError(f"goals must contain exactly one target, found {len(targets)}")
    missing = [g.id for g in goals if g.id not in predictions]
    if missing:
        raise ValueError(f"predictions missing for goals: {missing}")
    for goal in goals:
        _check_comparable(candidate, predictions[goal.id])
    return np.stack([velocities(predictions[goal.id]) for goal in goals])


def _signed_similarity(
    cand_waypoints: np.ndarray, dt: float, pred_velocities: np.ndarray,
    goals: tuple[Goal, ...] | list[Goal], visible: np.ndarray, params: LegibilityParams,
) -> np.ndarray:
    """Similarity cost of a batch (n, T, 2), shape (n,): the similarity to each
    goal's prediction summed in goals order, the target's negated."""
    g_star_xy = next(g for g in goals if g.is_target).position.as_array()
    goals_xy = np.array([goal.position.as_array() for goal in goals])
    step_v = np.diff(cand_waypoints, axis=1) / dt
    cand_velocities = np.concatenate([step_v, step_v[:, -1:]], axis=1)  # as model.velocities
    sims = weighted_similarity_batch(
        cand_waypoints, cand_velocities, pred_velocities, goals_xy, g_star_xy, visible, params
    )
    total = np.zeros(cand_waypoints.shape[0], dtype=float)
    for goal, sim in zip(goals, sims):
        total += -sim if goal.is_target else sim
    return total


def sim_cost(
    candidate: Trajectory,
    predictions: PredictedPathSet,
    goals: tuple[Goal, ...] | list[Goal],
    observer: ObserverState | None,
    params: LegibilityParams,
) -> float:
    """Similarity cost: likeness to unintended predictions minus likeness to
    the target's prediction."""
    pred_velocities = _prediction_velocities(candidate, predictions, goals)
    waypoints = candidate.waypoints[np.newaxis]
    visible = visibility_points(waypoints, observer)
    return float(_signed_similarity(waypoints, candidate.dt, pred_velocities, goals, visible, params)[0])


def _observer_terms(
    cand_waypoints: np.ndarray, observer: ObserverState | None
) -> tuple[np.ndarray, np.ndarray]:
    """Visibility mask (n, T) and FOV cost (n,) of a batch (n, T, 2), from one
    deviation-angle pass. With no observer all is visible and the cost is 0."""
    if observer is None:
        return np.ones(cand_waypoints.shape[:2]), np.zeros(cand_waypoints.shape[0])
    half_fov = observer.fov / 2.0
    angles = theta_dev_points(cand_waypoints, observer)
    return (angles <= half_fov).astype(float), np.sum(np.tanh(angles / half_fov), axis=-1)


def fov_cost(candidate: Trajectory, observer: ObserverState | None) -> float:
    """Sum of tanh(theta_dev / (fov/2)) over waypoints; 0 when dead ahead."""
    return float(fov_cost_batch(candidate.waypoints[np.newaxis], observer)[0])


def fov_cost_batch(cand_waypoints: np.ndarray, observer: ObserverState | None) -> np.ndarray:
    """fov_cost for a batch of shape (n, T, 2); zero with no observer."""
    return _observer_terms(cand_waypoints, observer)[1]


def legible_cost_batch(
    waypoints: np.ndarray, dt: float, pred_velocities: np.ndarray,
    goals: tuple[Goal, ...] | list[Goal], observer: ObserverState | None,
    obstacles: tuple[Obstacle, ...] | list[Obstacle], robot_radius: float,
    task_weights: TaskCostWeights, params: LegibilityParams,
) -> dict[str, np.ndarray]:
    """Combined objective of a batch (n, T, 2), for the legible search and the
    reported CostBreakdown alike. ``pred_velocities`` (G, T, 2) holds the goals'
    predicted path velocities in goals order. Returns task_cost_batch's terms
    plus "sim", "fov" and total = task + lambda_sim*sim + lambda_fov*fov, each
    (n,); a collided row keeps COLLISION_COST, legibility cannot rescue it.
    """
    g_star_xy = next(g for g in goals if g.is_target).position.as_array()
    task = task_cost_batch(waypoints, dt, g_star_xy, obstacles, robot_radius, task_weights)
    visible, fov = _observer_terms(waypoints, observer)
    sim = _signed_similarity(waypoints, dt, pred_velocities, goals, visible, params)
    total = task["total"] + params.lambda_sim * sim + params.lambda_fov * fov
    return {**task, "sim": sim, "fov": fov, "total": np.where(task["collided"], COLLISION_COST, total)}


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
    """legible_cost_batch of one candidate; ``goal_star`` must be the target's
    position. A collided candidate reports zero legibility terms."""
    pred_velocities = _prediction_velocities(candidate, predictions, goals)
    if goal_star != next(g for g in goals if g.is_target).position:
        raise ValueError("goal_star must be the target goal's position")
    breakdown = CostBreakdown.from_terms(legible_cost_batch(
        candidate.waypoints[np.newaxis], candidate.dt, pred_velocities, goals, observer,
        obstacles, robot.radius, task_weights, params,
    ))
    if breakdown.collided:
        return dataclasses.replace(breakdown, sim_term=0.0, fov_term=0.0)
    return breakdown
