"""Observer-perspective legibility costs.

Covers the deviation angle and visibility test, the distance-ratio weighting
h(q), the weighted velocity-cosine similarity between a candidate and the
per-goal predicted paths, the field-of-view cost, and the combined
legibility-aware objective that adds both terms to the task cost. One batch
kernel, legible_objective, scores both the planner's search and the
reported CostBreakdown, so the two agree by construction; it builds its
per-cycle constants once. The kernels work on contiguous x and y coordinate
planes, and each public (..., 2) function splits its input into planes and
calls the kernel.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    Goal,
    LegibilityParams,
    Obstacle,
    ObserverState,
    Point2,
    RobotState,
    ScenarioSpec,
    TaskCostWeights,
    Trajectory,
    _hypot2,
    _planes,
    velocities,
    velocity_points,
)
from .task_cost import COLLISION_COST, CostBreakdown, _task_terms

# Per-goal predicted local paths, keyed by goal id. Must cover every goal in
# the scenario (including the target) and share dt/horizon with the
# candidate being scored.
PredictedPathSet = dict[str, Trajectory]


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
    position, gaze, _ = _observer_view(observer)
    rel = np.asarray(points, dtype=float) - position
    return _deviation_angles(rel.transpose(-1, *range(rel.ndim - 1)), gaze)


def _deviation_angles(rel: np.ndarray, gaze: np.ndarray) -> np.ndarray:
    """theta_dev_points of points given as planes (2, ...) relative to the
    observer, whose unit gaze vector is ``gaze``; the planes may be views.

    The angle is arctan2(|cross|, dot), elementwise, so a point's angle does
    not depend on its batch. The + 0.0 turns the observer's own -0.0 dot into
    +0.0, which keeps its angle 0.
    """
    rx, ry = rel
    return np.arctan2(np.abs(rx * gaze[1] - ry * gaze[0]), rx * gaze[0] + ry * gaze[1] + 0.0)


def _observer_view(observer: ObserverState | None) -> tuple:
    """An observer's position and unit gaze vector, both (2,), and half FOV;
    three Nones with no observer."""
    if observer is None:
        return None, None, None
    gaze = np.array([math.cos(observer.heading), math.sin(observer.heading)])
    return observer.position.as_array(), gaze, observer.fov / 2.0


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
    p = q.as_array()
    d_star = _hypot2(p[0] - g_star.x, p[1] - g_star.y)
    return float(_h_weights(p, d_star, g.as_array(), g == g_star, h_max))


def _h_weights(p, d_star, goals, on_target, h_max: float) -> np.ndarray:
    """h_weight on planes (2, ...) of points and goals, given the points'
    target distances and the mask of goals on the target, where h is 1."""
    d_g = _hypot2(p[0] - goals[0], p[1] - goals[1])
    on_goal = d_g == 0.0
    ratio = np.where(on_goal, h_max, d_star / np.where(on_goal, 1.0, d_g))
    return np.where(on_target, 1.0, np.minimum(ratio, h_max))


def masked_cosines(vel_a: np.ndarray, vel_b: np.ndarray, eps_v: float) -> np.ndarray:
    """Per-step cosine between two velocity arrays; near-zero speeds give 0.

    Broadcasts over leading batch dimensions; last two axes are (T, 2).
    """
    a, b = _planes(vel_a), _planes(vel_b)
    return _masked_cosines(a, _hypot2(*a), b, _hypot2(*b), eps_v)


def _masked_cosines(a, speed_a, b, speed_b, eps_v: float) -> np.ndarray:
    """masked_cosines on velocity planes (2, ...), given their speeds."""
    usable = (speed_a >= eps_v) & (speed_b >= eps_v)
    denom = np.where(usable, speed_a * speed_b, 1.0)
    # The value of np.sum(vel_a * vel_b, axis=-1), except that two -0.0
    # products give -0.0 where that sum gave +0.0; callers' sums erase it.
    cos = (a[0] * b[0] + a[1] * b[1]) / denom
    return np.where(usable, cos, 0.0)


class _LegibleCycle(NamedTuple):
    """The legible objective's per-cycle constants, as planes in goals order.

    The target's position (2,); the goals' (2, G, 1, 1), the mask (G, 1, 1)
    of goals on the target's position, and the similarity cost's signs
    (G, 1), -1 for the target (None from bare positions); the predicted
    velocities (2, G, R, T) and their speeds (G, R, T), of which a batch reads
    its leading rows, R = 1 or at least its rows; _observer_view's observer. A
    NamedTuple, since a frozen dataclass adds ~0.8 ms to the module's import.
    """

    target_xy: np.ndarray
    goals: np.ndarray
    on_target: np.ndarray
    signs: np.ndarray | None
    pred_vel: np.ndarray
    pred_speeds: np.ndarray
    observer: tuple

    @classmethod
    def of(cls, pred_velocities, goals_xy, target_xy, signs=None, observer=None):
        goals = _planes(goals_xy)[:, :, np.newaxis, np.newaxis]
        vel = _planes(pred_velocities)[:, :, np.newaxis]
        on_target = (goals[0] == target_xy[0]) & (goals[1] == target_xy[1])
        return cls(target_xy, goals, on_target, signs, vel, _hypot2(*vel), _observer_view(observer))

    @classmethod
    def of_goals(cls, pred_velocities, goals, observer=None):
        # Goal-id order, so the similarity sum's bits do not follow the list order.
        order = sorted(range(len(goals)), key=lambda i: goals[i].id)
        goals, pred_velocities = [goals[i] for i in order], pred_velocities[order]
        target_xy = next(g for g in goals if g.is_target).position.as_array()
        signs = np.array([[-1.0 if goal.is_target else 1.0] for goal in goals])
        goals_xy = np.array([goal.position.as_array() for goal in goals])
        return cls.of(pred_velocities, goals_xy, target_xy, signs, observer)

    def similarities(self, p, vel, speeds, d_star, visible, params) -> np.ndarray:
        """Similarity (G, n) to each goal's prediction of a batch given as
        _candidate_planes, with its visibility mask (n, T)."""
        b, speed_b = self.pred_vel[..., : len(speeds), :], self.pred_speeds[..., : len(speeds), :]
        cos = _masked_cosines(vel, speeds, b, speed_b, params.eps_v)
        h = _h_weights(p, d_star, self.goals, self.on_target, params.h_max)  # (G, n, T)
        return np.add.reduce(visible * h * cos, axis=-1)

    def signed_similarity(self, *args) -> np.ndarray:
        """Similarity cost (n,): similarities(*args) summed in goals order from
        +0.0 (so a lone -0.0 still gives +0.0), the target's negated."""
        return np.add.reduce(self.signs * self.similarities(*args), axis=0, initial=0.0)


def _candidate_planes(waypoints: np.ndarray, velocities: np.ndarray, target_xy: np.ndarray):
    """The planes (2, n, T) of a batch and of its velocities, then its speeds
    and target distances (n, T)."""
    p, vel = _planes(waypoints), _planes(velocities)
    return p, vel, _hypot2(*vel), _hypot2(p[0] - target_xy[0], p[1] - target_xy[1])


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
    return _LegibleCycle.of(pred_velocities, goals_xy, g_star_xy).similarities(
        *_candidate_planes(cand_waypoints, cand_velocities, g_star_xy), visible, params
    )


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


def sim_cost(
    candidate: Trajectory,
    predictions: PredictedPathSet,
    goals: tuple[Goal, ...] | list[Goal],
    observer: ObserverState | None,
    params: LegibilityParams,
) -> float:
    """Similarity cost: likeness to unintended predictions minus likeness to
    the target's prediction."""
    cycle = _LegibleCycle.of_goals(_prediction_velocities(candidate, predictions, goals), goals)
    wp = candidate.waypoints[np.newaxis]
    planes = _candidate_planes(wp, velocity_points(wp, candidate.dt), cycle.target_xy)
    return float(cycle.signed_similarity(*planes, visibility_points(wp, observer), params)[0])


def _observer_terms(p: np.ndarray, position, gaze, half_fov) -> tuple[np.ndarray, np.ndarray]:
    """Visibility mask (n, T) and FOV cost (n,) of a batch's planes (2, n, T),
    from one deviation-angle pass over _observer_view's observer. With no
    observer all is visible and the cost is 0."""
    if position is None:
        return np.ones(p.shape[1:]), np.zeros(p.shape[1])
    angles = _deviation_angles(p - position[:, np.newaxis, np.newaxis], gaze)
    return (angles <= half_fov).astype(float), np.add.reduce(np.tanh(angles / half_fov), axis=-1)


def fov_cost(candidate: Trajectory, observer: ObserverState | None) -> float:
    """Sum of tanh(theta_dev / (fov/2)) over waypoints; 0 when dead ahead."""
    return float(fov_cost_batch(candidate.waypoints[np.newaxis], observer)[0])


def fov_cost_batch(cand_waypoints: np.ndarray, observer: ObserverState | None) -> np.ndarray:
    """fov_cost for a batch of shape (n, T, 2); zero with no observer."""
    return _observer_terms(_planes(cand_waypoints), *_observer_view(observer))[1]


def legible_objective(
    dt: float, pred_velocities: np.ndarray, goals: tuple[Goal, ...] | list[Goal],
    observer: ObserverState | None, obstacles: tuple[Obstacle, ...] | list[Obstacle],
    robot_radius: float, task_weights: TaskCostWeights, params: LegibilityParams,
) -> Callable[[np.ndarray], dict[str, np.ndarray]]:
    """The combined objective of one planning cycle as a function of a batch
    (n, T, 2) alone, its per-cycle constants built once; it scores the legible
    search and the reported CostBreakdown alike. ``pred_velocities`` (G, T, 2)
    holds the goals' predicted path velocities in goals order. The function
    returns task_cost_batch's terms plus "sim", "fov" and total = task +
    lambda_sim*sim + lambda_fov*fov, each (n,); a collided row keeps
    COLLISION_COST, legibility cannot rescue it. The bits do not depend on the
    batch's memory layout or on the order of ``goals``. The first call (the
    planner's largest, with its warm row) repeats the predictions to its rows,
    so an op on them runs one inner loop per goal; sums keep their row views.
    """
    cycle = _LegibleCycle.of_goals(pred_velocities, goals, observer)

    def objective(waypoints: np.ndarray) -> dict[str, np.ndarray]:
        nonlocal cycle
        rows = cycle  # this call's constants, whatever a concurrent call stores
        if (n := len(waypoints)) > rows.pred_speeds.shape[1]:
            wide = {k: getattr(rows, k).repeat(n, axis=-2) for k in ("pred_vel", "pred_speeds")}
            cycle = rows = rows._replace(**wide)
        # The task terms hand on the batch's planes, velocities, speeds and
        # target distances.
        task, *batch = _task_terms(
            waypoints, dt, rows.target_xy, obstacles, robot_radius, task_weights
        )
        visible, fov = _observer_terms(batch[0], *rows.observer)
        sim = rows.signed_similarity(*batch, visible, params)
        total = task["total"] + params.lambda_sim * sim + params.lambda_fov * fov
        total = np.where(task["collided"], COLLISION_COST, total)
        return {**task, "sim": sim, "fov": fov, "total": total}

    return objective


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
    """legible_objective of one candidate; ``goal_star`` must be the target's
    position. A collided candidate reports zero legibility terms."""
    pred_velocities = _prediction_velocities(candidate, predictions, goals)
    if goal_star != next(g for g in goals if g.is_target).position:
        raise ValueError("goal_star must be the target goal's position")
    return CostBreakdown.from_terms(legible_objective(
        candidate.dt, pred_velocities, goals, observer, obstacles, robot.radius,
        task_weights, params,
    )(candidate.waypoints[np.newaxis]))
