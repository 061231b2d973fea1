"""Task-specific trajectory cost: goal progress, obstacle clearance and
approach rate, smoothness, and speed tracking.

The batch entry point scores whole candidate populations at once; the public
single-trajectory function is a thin wrapper over it, so both routes always
agree.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Obstacle, Point2, RobotState, Trajectory, clearance_points

# Any trajectory touching an obstacle gets this finite sentinel so candidate
# ranking stays a total order under floating point.
COLLISION_COST = 1e12


@dataclass(frozen=True)
class TaskCostWeights:
    """Weights and scales for the task cost terms.

    The defaults assume v_max = 1 m/s (v_pref = 0.8 * v_max); the scenario
    parser recomputes v_pref from the robot when the file omits it.
    """

    w_goal: float = 1.0
    w_clearance: float = 2.0
    w_approach: float = 0.5
    w_smooth: float = 0.1
    w_speed: float = 0.2
    d_safe: float = 0.5  # m, clearance below this is penalized
    v_pref: float = 0.8  # m/s, preferred cruise speed

    def __post_init__(self) -> None:
        weights = (self.w_goal, self.w_clearance, self.w_approach, self.w_smooth, self.w_speed)
        if any(w < 0 or not np.isfinite(w) for w in weights):
            raise ValueError("all weights must be finite and nonnegative")
        if self.d_safe <= 0 or self.v_pref <= 0:
            raise ValueError("d_safe and v_pref must be positive")


@dataclass(frozen=True)
class CostBreakdown:
    """Per-term cost values for one candidate trajectory.

    The *_term fields hold the raw (unweighted) term values; total is the
    weighted sum, or COLLISION_COST when collided.
    """

    goal_term: float = 0.0
    clearance_term: float = 0.0
    approach_term: float = 0.0
    smooth_term: float = 0.0
    speed_term: float = 0.0
    sim_term: float = 0.0
    fov_term: float = 0.0
    total: float = 0.0
    collided: bool = False

    @classmethod
    def from_terms(cls, terms: dict[str, np.ndarray]) -> "CostBreakdown":
        """Row 0 of a batch kernel's term arrays; terms it lacks stay 0."""
        values = {f"{k}_term": float(v[0]) for k, v in terms.items() if k not in ("total", "collided")}
        return cls(**values, total=float(terms["total"][0]), collided=bool(terms["collided"][0]))

    def to_dict(self) -> dict:
        return {
            "goal_term": self.goal_term,
            "clearance_term": self.clearance_term,
            "approach_term": self.approach_term,
            "smooth_term": self.smooth_term,
            "speed_term": self.speed_term,
            "sim_term": self.sim_term,
            "fov_term": self.fov_term,
            "total": self.total,
            "collided": self.collided,
        }


def task_cost_batch(
    waypoints: np.ndarray,
    dt: float,
    goal_xy: np.ndarray,
    obstacles: tuple[Obstacle, ...],
    robot_radius: float,
    weights: TaskCostWeights,
) -> dict[str, np.ndarray]:
    """Score a batch of trajectories, shape (n, w+1, 2), against a goal.

    ``goal_xy`` is one goal for every row, shape (2,), or one goal per row,
    shape (n, 1, 2). Returns arrays keyed by term name plus "total" and
    "collided", each of shape (n,).
    """
    dists = np.linalg.norm(waypoints - goal_xy, axis=2)  # (n, T)
    j_goal = dists[:, -1] + dists.mean(axis=1)

    c = clearance_points(waypoints, obstacles) - robot_radius  # (n, T)
    collided = np.any(c < 0.0, axis=1)
    j_clr = np.sum((np.maximum(0.0, weights.d_safe - c) / weights.d_safe) ** 2, axis=1)
    j_app = np.sum(np.maximum(0.0, c[:, :-1] - c[:, 1:]), axis=1) / weights.d_safe

    accel = waypoints[:, 2:] - 2.0 * waypoints[:, 1:-1] + waypoints[:, :-2]
    j_sm = np.sum(accel**2, axis=(1, 2)) / dt**4

    step_v = np.diff(waypoints, axis=1) / dt
    speeds = np.linalg.norm(step_v, axis=2)  # (n, T-1)
    # Last velocity repeated so all w+1 indices contribute a speed term.
    speeds = np.concatenate([speeds, speeds[:, -1:]], axis=1)
    j_sp = np.sum((weights.v_pref - speeds) ** 2, axis=1) / weights.v_pref**2

    total = (
        weights.w_goal * j_goal
        + weights.w_clearance * j_clr
        + weights.w_approach * j_app
        + weights.w_smooth * j_sm
        + weights.w_speed * j_sp
    )
    total = np.where(collided, COLLISION_COST, total)
    return {
        "goal": j_goal,
        "clearance": j_clr,
        "approach": j_app,
        "smooth": j_sm,
        "speed": j_sp,
        "total": total,
        "collided": collided,
    }


def task_cost(
    traj: Trajectory,
    goal: Point2,
    obstacles: tuple[Obstacle, ...] | list[Obstacle],
    robot: RobotState,
    weights: TaskCostWeights,
) -> CostBreakdown:
    """Task cost of one trajectory toward one goal (legibility terms zero)."""
    terms = task_cost_batch(
        traj.waypoints[np.newaxis],
        traj.dt,
        goal.as_array(),
        tuple(obstacles),
        robot.radius,
        weights,
    )
    return CostBreakdown.from_terms(terms)
