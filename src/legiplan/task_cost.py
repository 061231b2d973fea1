"""Task-specific trajectory cost: goal progress, obstacle clearance and
approach rate, smoothness, and speed tracking.

The batch entry point scores whole candidate populations at once; the public
single-trajectory function is a thin wrapper over it, so both routes always
agree. Row differences are shifted slices of the flat batch, one inner loop per
op; a value that straddles two rows is never reduced, and each sum runs over
its row view, as the pairwise sum's order is the bits.
"""
from __future__ import annotations

import functools
from dataclasses import asdict, dataclass

import numpy as np

from .model import (
    EMPTY_CLEARANCE, Obstacle, Point2, RobotState, TaskCostWeights, Trajectory, _hypot2, _planes,
    clearance_points, velocity_points,
)

# Any trajectory touching an obstacle gets this finite sentinel so candidate
# ranking stays a total order under floating point.
COLLISION_COST = 1e12


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
        """Row 0 of a batch kernel's term arrays; terms it lacks stay 0, and so
        do sim and fov on a collided row: legibility cannot rescue a collision."""
        collided = bool(terms["collided"][0])
        skip = ("total", "collided", "sim", "fov") if collided else ("total", "collided")
        values = {f"{k}_term": float(v[0]) for k, v in terms.items() if k not in skip}
        return cls(**values, total=float(terms["total"][0]), collided=collided)

    def to_dict(self) -> dict:
        return asdict(self)


def task_cost_batch(
    waypoints: np.ndarray,
    dt: float,
    goal_xy: np.ndarray,
    obstacles: tuple[Obstacle, ...],
    robot_radius: float,
    weights: TaskCostWeights,
) -> dict[str, np.ndarray]:
    """Score a batch of trajectories, shape (n, w+1, 2), against a goal.

    ``goal_xy`` is any shape that broadcasts against (n, w+1, 2): one goal
    (2,), or per-row goals, fastest at the batch's own shape. Returns arrays
    keyed by term name plus "total" and "collided", each of shape (n,). The
    bits do not depend on the batch's memory layout; the module docstring has
    the straddle rule.
    """
    return _task_terms(waypoints, dt, goal_xy, obstacles, robot_radius, weights)[0]


def _clearance_terms(c: np.ndarray, d_safe: float) -> tuple[np.ndarray, ...]:
    """collided, clearance and approach terms (n,) of clearances c (n, T);
    the drops are flat, the one straddling two rows is never summed, and sums
    run on row views."""
    j_clr = np.add.reduce((np.maximum(0.0, d_safe - c) / d_safe) ** 2, axis=1)
    drops, flat = np.empty(c.size), c.reshape(-1)
    np.maximum(0.0, np.subtract(flat[:-1], flat[1:], out=drops[:-1]), out=drops[:-1])
    j_app = np.add.reduce(drops.reshape(c.shape)[:, :-1], axis=1) / d_safe
    return np.logical_or.reduce(c < 0.0, axis=1), j_clr, j_app  # .any(axis=1)'s ufunc


@functools.lru_cache(maxsize=8)
def _obstacle_free_row(horizon: int, robot_radius: float, d_safe: float) -> tuple[np.ndarray, ...]:
    """_clearance_terms of one obstacle-free row, which are every such row's; read-only."""
    row = _clearance_terms(np.full((1, horizon), EMPTY_CLEARANCE) - robot_radius, d_safe)
    return tuple(x.setflags(write=False) or x for x in row)


def _task_terms(
    waypoints: np.ndarray, dt: float, goal_xy: np.ndarray, obstacles: tuple[Obstacle, ...],
    robot_radius: float, weights: TaskCostWeights,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """task_cost_batch's terms, then what a caller's other terms reuse: the
    batch's planes and velocity planes (2, n, T), speeds and goal distances
    (n, T). Smoothness and velocity run on the flat batch and sum row views."""
    # In C order: the smoothness sum's bits follow the memory order.
    waypoints = np.ascontiguousarray(waypoints, dtype=float)
    p = _planes(waypoints)
    planar = p.transpose(1, 2, 0)  # (n, T, 2), its [..., 0] and [..., 1] the planes p
    dists = _hypot2(p[0] - goal_xy[..., 0], p[1] - goal_xy[..., 1])  # (n, T)
    # np.add.reduce(...) / count is mean's own arithmetic, and np.add.reduce
    # np.sum's, without their Python overhead.
    j_goal = dists[:, -1] + np.add.reduce(dists, axis=1) / dists.shape[1]

    if obstacles:
        c = clearance_points(planar, obstacles) - robot_radius
        collided, j_clr, j_app = _clearance_terms(c, weights.d_safe)
    else:
        row = _obstacle_free_row(p.shape[2], robot_radius, weights.d_safe)
        collided, j_clr, j_app = (x.repeat(len(planar)) for x in row)  # fresh arrays

    # accel[r, :-2] are row r's squared second differences; accel[r, -2:]
    # straddle two rows (or, in the last row, are never written).
    flat, accel = waypoints.reshape(-1), np.empty(waypoints.shape)
    a = np.multiply(flat[2:-2], 2.0, out=accel.reshape(-1)[:-4])
    np.square(np.add(np.subtract(flat[4:], a, out=a), flat[:-4], out=a), out=a)
    j_sm = np.add.reduce(accel[:, :-2], axis=(1, 2)) / dt**4

    vel = velocity_points(planar, dt).transpose(2, 0, 1)  # its contiguous planes
    speeds = _hypot2(*vel)  # (n, T)
    j_sp = np.add.reduce((weights.v_pref - speeds) ** 2, axis=1) / weights.v_pref**2

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
    }, p, vel, speeds, dists


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
