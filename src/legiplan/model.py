"""Scenario world model and shared trajectory/clearance geometry.

All positions are in meters, angles in radians, time in seconds. Every type
is an immutable value after construction and every operation is a pure
function, so everything here is safe to call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np


class ScenarioError(ValueError):
    """A scenario violated the schema or an invariant.

    `path` locates the offending value (JSON-path style), `rule` states the
    violated rule.
    """

    def __init__(self, path: str, rule: str):
        super().__init__(f"{path}: {rule}")
        self.path = path
        self.rule = rule


class PlannerFailure(RuntimeError):
    """Raised when every candidate stays in collision, none scores a finite
    cost, or a chosen path leaves the coordinate domain (COORD_LIMIT).

    Carries the best breakdown seen, and in closed-loop runs the partial
    simulation log up to the failing cycle.
    """

    def __init__(self, message: str, breakdown=None, partial=None):
        super().__init__(message)
        self.breakdown = breakdown
        self.partial = partial


# The coordinate domain of every Point2 and Trajectory: no distance or arc length overflows.
COORD_LIMIT = 1e150
_COORD_RULE = f"coordinates must lie within +-{COORD_LIMIT:g}"

# Clearance reported when there are no obstacles at all. A large finite
# value keeps downstream cost arithmetic finite.
EMPTY_CLEARANCE = 1e9


def _hypot2(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Length of the 2-D vectors (dx, dy), bit-identical to
    ``np.linalg.norm(np.stack([dx, dy], axis=-1), axis=-1)`` and faster.

    For float64 with ``ord=None`` and an ``axis``, numpy (2.4) computes
    ``sqrt(add.reduce(x * x, axis))``; over two elements that reduce is
    exactly ``x0*x0 + x1*x1``, so the same bits come out without the stack,
    the reduction machinery or norm's dispatch. Do not swap in
    near-equivalents that round differently (share of random float64 inputs
    whose last bit differs, numpy 2.4.6):
    - ``np.hypot`` / ``math.hypot``: ~17%, they rescale to avoid overflow;
    - the no-axis scalar ``np.linalg.norm(v)``: ~8%, it takes a BLAS ``dot``
      path, whose rounding depends on the host's kernel.
    """
    return np.sqrt(dx * dx + dy * dy)


def _as_float(value):
    """An int as a float (-inf or inf beyond float range), a bool (numpy's
    too) as NaN, which fails every range check, any other value as it is: for
    the float fields' checks, which 10**400 would pass or raise on."""
    if type(value) is float:  # the common case: no isinstance chain
        return value
    if isinstance(value, (bool, np.bool_)):
        return math.nan
    try:
        return float(value) if isinstance(value, int) else value
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _shown(value):
    """`value` for a message; an int past Python's int-to-str digit limit as -inf or inf."""
    try:
        repr(value)
    except ValueError:
        return _as_float(value)
    return value


def _as_count(value):
    """An integer, numpy's too, as an int; any other value, a bool included, as
    NaN, which fails every range check: for the integer fields."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return math.nan
    return int(value)


def _planes(points: np.ndarray) -> np.ndarray:
    """The x and y coordinate planes (2, ...) of points (..., 2), C-contiguous.

    A numpy op on contiguous planes runs about twice as fast as on the strided
    ``[..., 0]`` and ``[..., 1]`` views of interleaved points.
    """
    pts = np.asarray(points, dtype=float)
    return np.ascontiguousarray(pts.transpose(-1, *range(pts.ndim - 1)))


def wrap_angle(angle: float) -> float:
    """Wrap an angle into (-pi, pi]: exact, the identity there, odd away from +-pi."""
    wrapped = math.remainder(angle, math.tau)
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True)
class Point2:
    """A 2D point in world coordinates (meters)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (abs(_as_float(self.x)) <= COORD_LIMIT and abs(_as_float(self.y)) <= COORD_LIMIT):
            raise ValueError(f"{_COORD_RULE}, got ({_shown(self.x)}, {_shown(self.y)})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)

    def distance_to(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class RobotState:
    """Robot pose plus the kinodynamic limits every plan must respect."""

    position: Point2
    heading: float  # radians; the parser and planner.rollout_headings wrap it into (-pi, pi]
    speed: float  # m/s, 0 <= speed <= v_max
    radius: float  # m, disc footprint
    v_max: float  # m/s
    a_max: float  # m/s^2
    omega_max: float  # rad/s

    def __post_init__(self) -> None:
        for name in ("radius", "v_max", "a_max", "omega_max"):
            if not 0 < _as_float(getattr(self, name)) < math.inf:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(_as_float(self.heading)):
            raise ValueError(f"heading must be finite, got {_shown(self.heading)}")
        if not 0 <= _as_float(self.speed) <= self.v_max:
            raise ValueError(f"speed {_shown(self.speed)} outside [0, v_max={self.v_max}]")


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
        if not math.isfinite(_as_float(self.heading)):
            raise ValueError(f"heading must be finite, got {_shown(self.heading)}")
        if not 0 < _as_float(self.fov) <= math.tau:
            raise ValueError(f"fov {_shown(self.fov)} outside (0, 2*pi]")


@dataclass(frozen=True)
class CircleObstacle:
    """Disc of a positive radius around its center."""

    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if not 0 < _as_float(self.radius) < math.inf:
            raise ValueError(f"circle radius must be positive, got {_shown(self.radius)}")


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
        if not np.maximum.reduce(np.abs(pts), None) <= COORD_LIMIT:  # np.max's ufunc; NaN fails
            raise ValueError(f"waypoint {_COORD_RULE}")
        if not 0 < _as_float(self.dt) < math.inf:
            raise ValueError(f"dt must be positive, got {_shown(self.dt)}")
        pts.flags.writeable = False
        object.__setattr__(self, "waypoints", pts)

    @property
    def start(self) -> Point2:
        return Point2(float(self.waypoints[0, 0]), float(self.waypoints[0, 1]))

    @property
    def end(self) -> Point2:
        return Point2(float(self.waypoints[-1, 0]), float(self.waypoints[-1, 1]))

    def arc_length(self) -> float:
        return float(_running_length(self.waypoints)[1][-1])  # prefix_points' cum[-1]


# planner._candidate_rng keys on iteration << 32 in one uint64 word, so the
# iteration count must fit in 32 bits. The population is not in the key; its
# bound is only a size limit.
_KEY_FIELD_LIMIT = 2**32
# Longest plan accepted, in steps; the shipped scenes use 10-12.
HORIZON_W_MAX = 10_000

_MODES = ("baseline", "legible")
_COUNTS = (
    "horizon_w", "cem_population", "cem_elites", "cem_iterations", "execute_steps", "max_cycles",
)


@dataclass(frozen=True)
class PlannerParams:
    """Horizon, mode and cross-entropy optimizer settings."""

    dt: float = 0.4  # s
    horizon_w: int = 12  # steps per plan
    mode: str = "baseline"  # "baseline" | "legible"
    cem_population: int = 64
    cem_elites: int = 8
    cem_iterations: int = 4
    cem_init_std_v: float | None = None  # m/s, default 0.5 * v_max
    cem_init_std_omega: float | None = None  # rad/s, default 0.5 * omega_max
    execute_steps: int = 1
    goal_tolerance: float = 0.3  # m
    max_cycles: int = 500

    def __post_init__(self) -> None:
        for name in _COUNTS:
            object.__setattr__(self, name, _as_count(getattr(self, name)))
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {_shown(self.mode)!r}")
        if not 0 < _as_float(self.dt) < math.inf:
            raise ValueError("dt must be positive")
        if not self.horizon_w >= 2:
            raise ValueError("horizon_w must be >= 2")
        if self.horizon_w > HORIZON_W_MAX:
            raise ValueError(f"horizon_w must be <= {HORIZON_W_MAX}")
        if not self.cem_population >= 8:
            raise ValueError("cem_population must be >= 8")
        if not 2 <= self.cem_elites <= self.cem_population:
            raise ValueError("cem_elites must be in [2, cem_population]")
        if not self.cem_iterations >= 1:
            raise ValueError("cem_iterations must be >= 1")
        for name in ("cem_population", "cem_iterations"):
            if getattr(self, name) >= _KEY_FIELD_LIMIT:
                raise ValueError(f"{name} must be < 2**32")
        for name in ("cem_init_std_v", "cem_init_std_omega"):
            std = getattr(self, name)
            if std is not None and not 0 < _as_float(std) < math.inf:
                raise ValueError(f"{name} must be positive")
        if not 1 <= self.execute_steps <= self.horizon_w:
            raise ValueError("execute_steps must be in [1, horizon_w]")
        if not 0 < _as_float(self.goal_tolerance) < math.inf:
            raise ValueError("goal_tolerance must be positive")
        if not 1 <= self.max_cycles < math.inf:
            raise ValueError("max_cycles must be >= 1")


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
        if not all(0 <= _as_float(w) < np.inf for w in weights):
            raise ValueError("all weights must be finite and nonnegative")
        if not (0 < _as_float(self.d_safe) < np.inf and 0 < _as_float(self.v_pref) < np.inf):
            raise ValueError("d_safe and v_pref must be positive")


@dataclass(frozen=True)
class LegibilityParams:
    """Weights of the similarity and field-of-view costs, and their scales."""

    lambda_sim: float = 1.0  # weight of the similarity cost
    lambda_fov: float = 1.0  # weight of the field-of-view cost
    h_max: float = 3.0  # clamp for the distance-ratio weighting
    eps_v: float = 1e-6  # m/s, below this a velocity carries no direction

    def __post_init__(self) -> None:
        if not all(0 <= _as_float(v) < math.inf for v in (self.lambda_sim, self.lambda_fov)):
            raise ValueError("lambda_sim and lambda_fov must be nonnegative")
        if not all(0 < _as_float(v) < math.inf for v in (self.h_max, self.eps_v)):
            raise ValueError("h_max and eps_v must be positive")


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete declarative world: robot, goals, observers, obstacles, params.

    Construction checks the cross-field invariants; see _check_invariants."""

    robot: RobotState
    goals: tuple[Goal, ...]
    observers: tuple[ObserverState, ...] = ()
    obstacles: tuple[Obstacle, ...] = ()
    planner: PlannerParams = None  # type: ignore[assignment]
    task_weights: TaskCostWeights = None  # type: ignore[assignment]
    legibility: LegibilityParams = None  # type: ignore[assignment]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _as_count(self.seed))
        if self.planner is None:
            object.__setattr__(self, "planner", PlannerParams())
        if self.task_weights is None:
            object.__setattr__(self, "task_weights", TaskCostWeights(v_pref=0.8 * self.robot.v_max))
        if self.legibility is None:
            object.__setattr__(self, "legibility", LegibilityParams())
        # Resolve robot-dependent sampling defaults so the spec is
        # self-contained (and serialization round trips exactly). A std that is
        # set is positive, so `or` keeps it. Half of a denormal v_max or
        # omega_max rounds to 0: that default is the planner section's error.
        p, robot = self.planner, self.robot
        if p.cem_init_std_v is None or p.cem_init_std_omega is None:
            try:
                planner = replace(
                    p,
                    cem_init_std_v=p.cem_init_std_v or 0.5 * robot.v_max,
                    cem_init_std_omega=p.cem_init_std_omega or 0.5 * robot.omega_max,
                )
            except ValueError as exc:
                raise ScenarioError("$.planner", str(exc)) from None
            object.__setattr__(self, "planner", planner)
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
        points = [(p.x, p.y) for p in (self.robot.position, *(g.position for g in self.goals))]
        start_clr, *goal_clr = clearance_points(np.array(points, dtype=float), self.obstacles)
        if start_clr < radius:
            raise ScenarioError("$.robot.position", "start clearance must be >= robot radius")
        for i, clr in enumerate(goal_clr):
            if clr < radius:
                raise ScenarioError(
                    f"$.goals[{i}].position", "goal clearance must be >= robot radius"
                )
        # Worst-case stopping rule: the horizon must be long enough to shed
        # v_max. A product beyond float range (integer fields from a library
        # caller, each inside float range) reads as inf and satisfies it.
        p = self.planner
        if self.robot.v_max > _as_float(self.robot.a_max * p.horizon_w) * p.dt:
            raise ScenarioError("$.planner", "v_max must be <= a_max * horizon_w * dt")

    def target_goal(self) -> Goal:
        return next(g for g in self.goals if g.is_target)


def clearance_points(points: np.ndarray, obstacles: tuple[Obstacle, ...]) -> np.ndarray:
    """Signed distance from each point to the nearest obstacle surface.

    Negative inside an obstacle. With no obstacles every point gets the
    EMPTY_CLEARANCE sentinel. `points` has shape (..., 2).
    """
    pts = np.asarray(points, dtype=float)
    x, y = pts[..., 0], pts[..., 1]
    out = np.empty(pts.shape[:-1])
    out.fill(EMPTY_CLEARANCE)
    for obs in obstacles:
        # Plain-float constants: no small arrays built per obstacle and call.
        if isinstance(obs, CircleObstacle):
            d = _hypot2(x - obs.center.x, y - obs.center.y) - obs.radius
        else:
            lo, hi = obs.min, obs.max
            cx, cy = 0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y)
            hx, hy = 0.5 * (hi.x - lo.x), 0.5 * (hi.y - lo.y)
            qx = np.abs(x - cx) - hx
            qy = np.abs(y - cy) - hy
            outside = _hypot2(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
            inside = np.minimum(np.maximum(qx, qy), 0.0)
            d = outside + inside
        np.minimum(out, d, out=out)
    return out


def clearance(p: Point2, obstacles: tuple[Obstacle, ...] | list[Obstacle]) -> float:
    """Signed clearance of a single point; see clearance_points."""
    return float(clearance_points(p.as_array(), tuple(obstacles)))


def _running_length(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The w segment lengths of waypoints (w+1, 2) and the running arc length
    at each waypoint; inside COORD_LIMIT neither can overflow."""
    seg = _hypot2(*(pts[1:] - pts[:-1]).T)  # np.diff's bits, without its overhead
    return seg, np.concatenate([[0.0], seg.cumsum()])  # cumsum(): np.cumsum's bits


def velocity_points(waypoints: np.ndarray, dt: float) -> np.ndarray:
    """Per-step velocity vectors of waypoints (..., w+1, 2), same shape.

    Finite differences (q_{t+1} - q_t) / dt; the last value is repeated so
    every waypoint index has a velocity. Each plane is differenced as one flat
    run; a difference straddling two rows is 0 before the division, so it
    cannot overflow, and then holds the repeated value. Returns a view of planes.
    """
    p = _planes(waypoints)
    vel = np.empty(p.shape)
    flat, out = p.reshape(2, -1), vel.reshape(2, -1)
    np.subtract(flat[:, 1:], flat[:, :-1], out=out[:, :-1])  # np.diff's bits, faster
    vel[..., -1] = 0.0
    out /= dt
    vel[..., -1] = vel[..., -2]
    return vel.transpose(*range(1, vel.ndim), 0)


def velocities(traj: Trajectory) -> np.ndarray:
    """velocity_points of one trajectory, shape (w+1, 2)."""
    return velocity_points(traj.waypoints, traj.dt)


def prefix_points(
    waypoints: np.ndarray, fractions: tuple[float, ...] | list[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc-length prefixes of one path for every fraction at once.

    Returns the running arc length at each of the w+1 waypoints and, per
    fraction, the count j >= 1 of whole waypoints in the prefix and its
    endpoint: where the arc length first reaches fraction * total, on segment
    j - 1. The prefix is waypoints[:j] followed by that endpoint.
    """
    if len(fractions) == 0:
        raise ValueError("fractions must be non-empty")
    for fraction in fractions:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {_shown(fraction)}")
    seg, cum = _running_length(waypoints)
    # take(): the bits of fancy indexing, less dispatch.
    target = np.array(fractions, dtype=float) * cum[-1]
    i = np.maximum(cum.searchsorted(target), 1) - 1  # segment of each endpoint
    step = seg.take(i)
    s = np.divide(target - cum.take(i), step, out=np.zeros(len(i)), where=step > 0.0)
    start = waypoints.take(i, axis=0)
    return cum, i + 1, start + s[:, None] * (waypoints.take(i + 1, axis=0) - start)


def arc_length_prefix(traj: Trajectory, fraction: float) -> Trajectory:
    """Prefix of `traj` whose arc length first reaches fraction * total:
    the one-fraction case of prefix_points, as a Trajectory.

    For fraction 0 (or a zero-length trajectory) the result degenerates to
    the first waypoint repeated twice.
    """
    _, (j,), ends = prefix_points(traj.waypoints, (fraction,))
    return Trajectory(np.vstack([traj.waypoints[:j], ends]), traj.dt)
