"""Scenario world model and shared trajectory/clearance geometry.

All positions are in meters, angles in radians, time in seconds. Every type
is an immutable value after construction and every operation is a pure
function, so everything here is safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from .legibility import LegibilityParams
    from .planner import PlannerParams
    from .task_cost import TaskCostWeights


class ScenarioError(ValueError):
    """A scenario violated the schema or an invariant.

    `path` locates the offending value (JSON-path style), `rule` states the
    violated rule.
    """

    def __init__(self, path: str, rule: str):
        super().__init__(f"{path}: {rule}")
        self.path = path
        self.rule = rule


# Clearance reported when there are no obstacles at all. A large finite
# value keeps downstream cost arithmetic finite.
EMPTY_CLEARANCE = 1e9


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = (angle + math.pi) % math.tau - math.pi
    if wrapped == -math.pi:
        wrapped = math.pi
    return wrapped


@dataclass(frozen=True)
class Point2:
    """A 2D point in world coordinates (meters)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"coordinates must be finite, got ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def distance_to(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RobotState:
    """Robot pose plus the kinodynamic limits every plan must respect."""

    position: Point2
    heading: float  # radians, (-pi, pi]
    speed: float  # m/s, 0 <= speed <= v_max
    radius: float  # m, disc footprint
    v_max: float  # m/s
    a_max: float  # m/s^2
    omega_max: float  # rad/s

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.v_max <= 0 or self.a_max <= 0 or self.omega_max <= 0:
            raise ValueError("radius, v_max, a_max and omega_max must be positive")
        if not 0 <= self.speed <= self.v_max:
            raise ValueError(f"speed {self.speed} outside [0, v_max={self.v_max}]")


@dataclass(frozen=True)
class Goal:
    """A candidate destination; exactly one goal per scenario is the target."""

    id: str
    position: Point2
    is_target: bool = False


# Default field of view: 120 degrees.
DEFAULT_FOV = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class ObserverState:
    """A human observer with a position, gaze heading and angular FOV."""

    id: str
    position: Point2
    heading: float  # radians
    fov: float = DEFAULT_FOV  # radians, (0, 2*pi]
    attached_goal: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.fov <= math.tau:
            raise ValueError(f"fov {self.fov} outside (0, 2*pi]")


@dataclass(frozen=True)
class CircleObstacle:
    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class RectObstacle:
    """Axis-aligned rectangle with min < max componentwise."""

    min: Point2
    max: Point2

    def __post_init__(self) -> None:
        if not (self.min.x < self.max.x and self.min.y < self.max.y):
            raise ValueError("rectangle min must be strictly below max componentwise")


Obstacle = Union[CircleObstacle, RectObstacle]


@dataclass(frozen=True)
class Trajectory:
    """A sequence of w+1 waypoints separated by a fixed time step dt."""

    waypoints: np.ndarray  # (w+1, 2) float64, read-only
    dt: float  # seconds

    def __post_init__(self) -> None:
        pts = np.array(self.waypoints, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"waypoints must have shape (n, 2), got {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("a trajectory needs at least 2 waypoints")
        if not np.all(np.isfinite(pts)):
            raise ValueError("waypoints must be finite")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        pts.flags.writeable = False
        object.__setattr__(self, "waypoints", pts)

    @property
    def horizon(self) -> int:
        """Number of steps w (one less than the waypoint count)."""
        return self.waypoints.shape[0] - 1

    @property
    def start(self) -> Point2:
        return Point2(float(self.waypoints[0, 0]), float(self.waypoints[0, 1]))

    @property
    def end(self) -> Point2:
        return Point2(float(self.waypoints[-1, 0]), float(self.waypoints[-1, 1]))

    def arc_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.waypoints, axis=0), axis=1)))


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete declarative world: robot, goals, observers, obstacles, params.

    Construction checks the cross-field invariants; see _check_invariants."""

    robot: RobotState
    goals: tuple[Goal, ...]
    observers: tuple[ObserverState, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    planner: "PlannerParams" = None  # type: ignore[assignment]
    task_weights: "TaskCostWeights" = None  # type: ignore[assignment]
    legibility: "LegibilityParams" = None  # type: ignore[assignment]
    seed: int = 0

    def __post_init__(self) -> None:
        # Late imports keep the module dependency graph acyclic.
        import dataclasses

        from .legibility import LegibilityParams
        from .planner import PlannerParams
        from .task_cost import TaskCostWeights

        if self.planner is None:
            object.__setattr__(self, "planner", PlannerParams())
        if self.task_weights is None:
            object.__setattr__(self, "task_weights", TaskCostWeights(v_pref=0.8 * self.robot.v_max))
        if self.legibility is None:
            object.__setattr__(self, "legibility", LegibilityParams())
        # Resolve robot-dependent sampling defaults so the spec is
        # self-contained (and serialization round trips exactly).
        if self.planner.cem_init_std_v is None or self.planner.cem_init_std_omega is None:
            std_v = self.planner.cem_init_std_v
            std_omega = self.planner.cem_init_std_omega
            object.__setattr__(
                self,
                "planner",
                dataclasses.replace(
                    self.planner,
                    cem_init_std_v=std_v if std_v is not None else 0.5 * self.robot.v_max,
                    cem_init_std_omega=(
                        std_omega if std_omega is not None else 0.5 * self.robot.omega_max
                    ),
                ),
            )
        self._check_invariants()

    def _check_invariants(self) -> None:
        """Cross-field invariants, reported at the scenario file's JSON paths."""
        if not 0 <= self.seed < 2**64:
            raise ScenarioError("$.seed", "must be a 64-bit unsigned integer")
        if len([g for g in self.goals if g.is_target]) != 1:
            raise ScenarioError("$.goals", "exactly one target goal required")
        ids = [g.id for g in self.goals]
        if len(set(ids)) != len(ids):
            raise ScenarioError("$.goals", "goal ids must be unique")
        obs_ids = [o.id for o in self.observers]
        if len(set(obs_ids)) != len(obs_ids):
            raise ScenarioError("$.observers", "observer ids must be unique")
        for i, obs in enumerate(self.observers):
            if obs.attached_goal is not None and obs.attached_goal not in ids:
                raise ScenarioError(
                    f"$.observers[{i}].attached_goal",
                    f"references unknown goal id {obs.attached_goal!r}",
                )
        radius = self.robot.radius
        points = [self.robot.position.as_array(), *(g.position.as_array() for g in self.goals)]
        start_clr, *goal_clr = clearance_points(np.array(points), self.obstacles)
        if start_clr < radius:
            raise ScenarioError("$.robot.position", "start clearance must be >= robot radius")
        for i, clr in enumerate(goal_clr):
            if clr < radius:
                raise ScenarioError(
                    f"$.goals[{i}].position", "goal clearance must be >= robot radius"
                )
        # Worst-case stopping rule: the horizon must be long enough to shed
        # v_max. A horizon_w beyond float range satisfies it trivially.
        p = self.planner
        try:
            stopping_span = self.robot.a_max * p.horizon_w * p.dt
        except OverflowError:
            stopping_span = math.inf
        if self.robot.v_max > stopping_span:
            raise ScenarioError("$.planner", "v_max must be <= a_max * horizon_w * dt")

    def target_goal(self) -> Goal:
        return next(g for g in self.goals if g.is_target)


def clearance_points(points: np.ndarray, obstacles: tuple[Obstacle, ...]) -> np.ndarray:
    """Signed distance from each point to the nearest obstacle surface.

    Negative inside an obstacle. With no obstacles every point gets the
    EMPTY_CLEARANCE sentinel. `points` has shape (..., 2).
    """
    pts = np.asarray(points, dtype=float)
    out = np.full(pts.shape[:-1], EMPTY_CLEARANCE, dtype=float)
    for obs in obstacles:
        if isinstance(obs, CircleObstacle):
            d = np.linalg.norm(pts - obs.center.as_array(), axis=-1) - obs.radius
        else:
            center = 0.5 * (obs.min.as_array() + obs.max.as_array())
            half = 0.5 * (obs.max.as_array() - obs.min.as_array())
            q = np.abs(pts - center) - half
            outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
            inside = np.minimum(np.max(q, axis=-1), 0.0)
            d = outside + inside
        np.minimum(out, d, out=out)
    return out


def clearance(p: Point2, obstacles: tuple[Obstacle, ...] | list[Obstacle]) -> float:
    """Signed clearance of a single point; see clearance_points."""
    return float(clearance_points(p.as_array(), tuple(obstacles)))


def velocities(traj: Trajectory) -> np.ndarray:
    """Per-step velocity vectors, shape (w+1, 2).

    Finite differences (q_{t+1} - q_t) / dt; the last value is repeated so
    every waypoint index has a velocity.
    """
    diffs = np.diff(traj.waypoints, axis=0) / traj.dt
    return np.vstack([diffs, diffs[-1:]])


def arc_length_prefix(traj: Trajectory, fraction: float) -> Trajectory:
    """Prefix of `traj` whose arc length first reaches fraction * total.

    The final waypoint is interpolated on the containing segment. For
    fraction 0 (or a zero-length trajectory) the result degenerates to the
    first waypoint repeated twice.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    pts = traj.waypoints
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = fraction * cum[-1]
    j = int(np.searchsorted(cum, target, side="left"))
    j = max(j, 1)
    if seg[j - 1] > 0.0:
        s = (target - cum[j - 1]) / seg[j - 1]
    else:
        s = 0.0
    endpoint = pts[j - 1] + s * (pts[j] - pts[j - 1])
    prefix = np.vstack([pts[:j], endpoint])
    return Trajectory(prefix, traj.dt)
