"""Scenario file parsing/validation and trajectory log serialization.

Scenario files are strict JSON: unknown keys are rejected so a typo can
never silently change the physics. Angles are degrees in files and radians
internally; the conversion happens only at this boundary.
"""
from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Callable

import numpy as np

from .legibility import LegibilityParams
from .model import (
    DEFAULT_FOV,
    CircleObstacle,
    Goal,
    Obstacle,
    ObserverState,
    Point2,
    RectObstacle,
    RobotState,
    ScenarioError,
    ScenarioSpec,
    Trajectory,
    _as_float,
    clearance_points,
    wrap_angle,
)
from .planner import PlannerParams, SimulationResult
from .task_cost import TaskCostWeights

SCHEMA_VERSION = 1

CSV_COLUMNS = ("t", "x", "y", "heading", "v", "omega", "clearance")
CSV_HEADER = ",".join(CSV_COLUMNS)


def _check_keys(obj: dict, path: str, allowed: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}.{key}", "unknown key")


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "must be an object")
    return value


def _finite(value: int | float, path: str, rule: str) -> float:
    """`value` as a finite float; an integer beyond float range is not finite."""
    value = _as_float(value)
    if not math.isfinite(value):
        raise ScenarioError(path, rule)
    return value


def _number(obj: dict, path: str, key: str, default: float | None = None) -> float:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}", "required key missing")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}", "must be a number")
    return _finite(value, f"{path}.{key}", "must be finite")


def _integer(obj: dict, path: str, key: str, default: int | None = None) -> int:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}", "required key missing")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}", "must be an integer")
    return value


def _point(obj: dict, path: str, key: str) -> Point2:
    if key not in obj:
        raise ScenarioError(f"{path}.{key}", "required key missing")
    value = obj[key]
    if (
        not isinstance(value, list)
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)
    ):
        raise ScenarioError(f"{path}.{key}", "must be a [x, y] pair of numbers")
    x, y = (_finite(v, f"{path}.{key}", "coordinates must be finite") for v in value)
    return Point2(x, y)


def _string(obj: dict, path: str, key: str, default: str | None = None) -> str:
    if key not in obj:
        if default is None:
            raise ScenarioError(f"{path}.{key}", "required key missing")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}", "must be a string")
    return value


def _parse_robot(obj: dict, path: str) -> RobotState:
    _check_keys(
        obj, path,
        {"position", "heading_deg", "speed", "radius", "v_max", "a_max", "omega_max_deg"},
    )
    position = _point(obj, path, "position")
    speed = _number(obj, path, "speed", 0.0)
    radius = _number(obj, path, "radius", 0.3)
    v_max = _number(obj, path, "v_max", 1.0)
    a_max = _number(obj, path, "a_max", 1.0)
    omega_max_deg = _number(obj, path, "omega_max_deg", 90.0)
    if radius <= 0:
        raise ScenarioError(f"{path}.radius", "must be positive")
    if v_max <= 0:
        raise ScenarioError(f"{path}.v_max", "must be positive")
    if a_max <= 0:
        raise ScenarioError(f"{path}.a_max", "must be positive")
    if omega_max_deg <= 0:
        raise ScenarioError(f"{path}.omega_max_deg", "must be positive")
    if not 0 <= speed <= v_max:
        raise ScenarioError(f"{path}.speed", "must satisfy 0 <= speed <= v_max")
    return RobotState(
        position=position,
        heading=wrap_angle(math.radians(_number(obj, path, "heading_deg", 0.0))),
        speed=speed,
        radius=radius,
        v_max=v_max,
        a_max=a_max,
        omega_max=math.radians(omega_max_deg),
    )


def _parse_goal(obj: dict, path: str) -> Goal:
    _check_keys(obj, path, {"id", "position", "is_target"})
    is_target = obj.get("is_target", False)
    if not isinstance(is_target, bool):
        raise ScenarioError(f"{path}.is_target", "must be a boolean")
    return Goal(
        id=_string(obj, path, "id"),
        position=_point(obj, path, "position"),
        is_target=is_target,
    )


def _parse_observer(obj: dict, path: str) -> ObserverState:
    _check_keys(obj, path, {"id", "position", "heading_deg", "fov_deg", "attached_goal"})
    fov = DEFAULT_FOV
    if "fov_deg" in obj:
        fov_deg = _number(obj, path, "fov_deg")
        if not 0 < fov_deg <= 360.0:
            raise ScenarioError(f"{path}.fov_deg", "must lie in (0, 360]")
        fov = math.radians(fov_deg)
    attached = obj.get("attached_goal")
    if attached is not None and not isinstance(attached, str):
        raise ScenarioError(f"{path}.attached_goal", "must be a string")
    return ObserverState(
        id=_string(obj, path, "id"),
        position=_point(obj, path, "position"),
        heading=wrap_angle(math.radians(_number(obj, path, "heading_deg", 0.0))),
        fov=fov,
        attached_goal=attached,
    )


def _parse_obstacle(obj: dict, path: str) -> Obstacle:
    kind = _string(obj, path, "type")
    if kind == "circle":
        _check_keys(obj, path, {"type", "center", "radius"})
        radius = _number(obj, path, "radius")
        if radius <= 0:
            raise ScenarioError(f"{path}.radius", "must be positive")
        return CircleObstacle(center=_point(obj, path, "center"), radius=radius)
    if kind == "rect":
        _check_keys(obj, path, {"type", "min", "max"})
        low = _point(obj, path, "min")
        high = _point(obj, path, "max")
        if not (low.x < high.x and low.y < high.y):
            raise ScenarioError(path, "rect min must be strictly below max componentwise")
        return RectObstacle(min=low, max=high)
    raise ScenarioError(f"{path}.type", "must be 'circle' or 'rect'")


def _present(obj: dict, path: str, readers: dict[str, Callable]) -> dict:
    """Read and type-check the keys present in `obj`; absent keys are left
    to the dataclass defaults."""
    return {key: read(obj, path, key) for key, read in readers.items() if key in obj}


def _build(cls: type, path: str, fields: dict) -> Any:
    """Construct `cls`, reporting its ValueError as a ScenarioError at `path`."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


# The planner keys that are PlannerParams fields as they stand. cem_init_std
# is read and written by hand: it nests two fields and converts degrees.
_PLANNER_READERS: dict[str, Callable] = {
    "dt": _number, "horizon_w": _integer, "mode": _string,
    "cem_population": _integer, "cem_elites": _integer,
    "cem_iterations": _integer, "execute_steps": _integer,
    "goal_tolerance": _number, "max_cycles": _integer,
}


def _parse_planner(obj: dict, path: str) -> PlannerParams:
    _check_keys(obj, path, {*_PLANNER_READERS, "cem_init_std"})
    fields = _present(obj, path, _PLANNER_READERS)
    if fields.get("mode", "baseline") not in ("baseline", "legible"):
        raise ScenarioError(f"{path}.mode", "must be 'baseline' or 'legible'")
    if "cem_init_std" in obj:
        std_path = f"{path}.cem_init_std"
        std_obj = _as_object(obj["cem_init_std"], std_path)
        _check_keys(std_obj, std_path, {"v", "omega_deg"})
        if "v" in std_obj:
            fields["cem_init_std_v"] = _number(std_obj, std_path, "v")
        if "omega_deg" in std_obj:
            fields["cem_init_std_omega"] = math.radians(_number(std_obj, std_path, "omega_deg"))
    return _build(PlannerParams, path, fields)


def _number_fields(cls: type, obj: dict, path: str) -> dict:
    """Read a section whose keys are the (all float) field names of `cls`."""
    readers = dict.fromkeys((f.name for f in dataclasses.fields(cls)), _number)
    _check_keys(obj, path, set(readers))
    return _present(obj, path, readers)


def _parse_task_weights(obj: dict, path: str, robot: RobotState) -> TaskCostWeights:
    fields = _number_fields(TaskCostWeights, obj, path)
    # The class default for v_pref assumes v_max = 1; derive it from the robot.
    fields.setdefault("v_pref", 0.8 * robot.v_max)
    return _build(TaskCostWeights, path, fields)


def _parse_legibility(obj: dict, path: str) -> LegibilityParams:
    return _build(LegibilityParams, path, _number_fields(LegibilityParams, obj, path))


def _array(doc: dict, key: str, parse_item: Callable, required: bool = False) -> tuple:
    """Each object of the array at `$.key`, read by `parse_item(obj, path)`.
    A required array must be present and non-empty; an optional one may be
    absent."""
    path = f"$.{key}"
    if required and key not in doc:
        raise ScenarioError(path, "required key missing")
    items = doc.get(key, [])
    if not isinstance(items, list) or (required and not items):
        raise ScenarioError(path, "must be a non-empty array" if required else "must be an array")
    return tuple(
        parse_item(_as_object(item, f"{path}[{i}]"), f"{path}[{i}]")
        for i, item in enumerate(items)
    )


def parse_scenario(data: bytes | str | dict) -> ScenarioSpec:
    """Parse and fully validate a scenario document.

    Accepts raw bytes, a JSON string or an already-decoded object. Raises
    ScenarioError naming the JSON path and the violated rule; the
    cross-field invariants are ScenarioSpec's own.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError:
            raise ScenarioError("$", "file is not valid UTF-8") from None
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise ScenarioError("$", f"malformed JSON: {exc.msg} (line {exc.lineno})") from None
    doc = _as_object(data, "$")
    _check_keys(
        doc, "$",
        {"version", "robot", "goals", "observers", "obstacles", "planner",
         "task_weights", "legibility", "seed"},
    )
    version = _integer(doc, "$", "version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ScenarioError("$.version", f"unsupported schema version {version}")

    if "robot" not in doc:
        raise ScenarioError("$.robot", "required key missing")
    robot = _parse_robot(_as_object(doc["robot"], "$.robot"), "$.robot")

    goals = _array(doc, "goals", _parse_goal, required=True)
    observers = _array(doc, "observers", _parse_observer)
    obstacles = _array(doc, "obstacles", _parse_obstacle)

    planner = _parse_planner(_as_object(doc.get("planner", {}), "$.planner"), "$.planner")
    weights = _parse_task_weights(
        _as_object(doc.get("task_weights", {}), "$.task_weights"), "$.task_weights", robot
    )
    legibility = _parse_legibility(
        _as_object(doc.get("legibility", {}), "$.legibility"), "$.legibility"
    )

    return ScenarioSpec(
        robot=robot,
        goals=goals,
        observers=observers,
        obstacles=obstacles,
        planner=planner,
        task_weights=weights,
        legibility=legibility,
        seed=_integer(doc, "$", "seed", 0),
    )


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


def serialize_scenario(spec: ScenarioSpec) -> dict:
    """Scenario document (JSON-ready dict) with every default materialized."""
    return {
        "version": SCHEMA_VERSION,
        "robot": {
            "position": [spec.robot.position.x, spec.robot.position.y],
            "heading_deg": math.degrees(spec.robot.heading),
            "speed": spec.robot.speed,
            "radius": spec.robot.radius,
            "v_max": spec.robot.v_max,
            "a_max": spec.robot.a_max,
            "omega_max_deg": math.degrees(spec.robot.omega_max),
        },
        "goals": [
            {"id": g.id, "position": [g.position.x, g.position.y], "is_target": g.is_target}
            for g in spec.goals
        ],
        "observers": [
            {
                "id": o.id,
                "position": [o.position.x, o.position.y],
                "heading_deg": math.degrees(o.heading),
                "fov_deg": math.degrees(o.fov),
                "attached_goal": o.attached_goal,
            }
            for o in spec.observers
        ],
        "obstacles": [
            {
                "type": "circle",
                "center": [o.center.x, o.center.y],
                "radius": o.radius,
            }
            if isinstance(o, CircleObstacle)
            else {
                "type": "rect",
                "min": [o.min.x, o.min.y],
                "max": [o.max.x, o.max.y],
            }
            for o in spec.obstacles
        ],
        "planner": {
            **{key: getattr(spec.planner, key) for key in _PLANNER_READERS},
            "cem_init_std": {
                "v": spec.planner.cem_init_std_v,
                "omega_deg": math.degrees(spec.planner.cem_init_std_omega),
            },
        },
        "task_weights": dataclasses.asdict(spec.task_weights),
        "legibility": dataclasses.asdict(spec.legibility),
        "seed": spec.seed,
    }


def scenario_to_bytes(spec: ScenarioSpec) -> bytes:
    return (json.dumps(serialize_scenario(spec), indent=2, sort_keys=True) + "\n").encode("utf-8")


def _log_rows(
    trajectory: Trajectory,
    indices: list[int],
    headings: np.ndarray,
    controls: np.ndarray,
    initial_speed: float,
    obstacles: tuple[Obstacle, ...],
) -> list[tuple]:
    """Log rows at the waypoint `indices` of `trajectory`. Waypoint i > 0 gets
    the control of step i-1; waypoint 0, and the repeated start of a run that
    executed no step (it started at the goal), get (initial_speed, 0)."""
    positions = trajectory.waypoints[indices]
    rows = []
    for idx, (x, y), clr in zip(indices, positions, clearance_points(positions, obstacles)):
        v, omega = controls[idx - 1] if idx and len(controls) else (initial_speed, 0.0)
        rows.append(
            (idx * trajectory.dt, float(x), float(y), float(headings[idx]), float(v),
             float(omega), float(clr))
        )
    return rows


def simulation_rows(sim: SimulationResult, spec: ScenarioSpec) -> list[tuple]:
    """Log rows (t, x, y, heading, v, omega, clearance), one per cycle.

    Row 0 is the initial state; each subsequent row is the state after a
    cycle's executed controls (so t advances by dt * execute_steps). The v
    and omega columns hold the last applied control.
    """
    n_steps = sim.executed.waypoints.shape[0] - 1
    indices = list(range(0, n_steps + 1, spec.planner.execute_steps))
    if indices[-1] != n_steps:
        indices.append(n_steps)  # partial final cycle (stopped at the goal)
    return _log_rows(
        sim.executed, indices, sim.headings, sim.controls, spec.robot.speed, spec.obstacles
    )


def plan_rows(
    trajectory: Trajectory,
    headings: np.ndarray,
    controls: np.ndarray,
    initial_speed: float,
    spec: ScenarioSpec,
) -> list[tuple]:
    """Log rows for a single planned horizon (one row per waypoint)."""
    indices = list(range(trajectory.waypoints.shape[0]))
    return _log_rows(trajectory, indices, headings, controls, initial_speed, spec.obstacles)


# t is written with 6 decimals, so each t cell is off by at most 0.5e-6 and two
# steps that are equal in truth differ by at most 2e-6 as read; 1e-9 more
# covers the binary rounding of the parsed numbers.
_T_STEP_TOLERANCE = 4 * 0.5e-6 + 1e-9


def format_trajectory_csv(rows: list[tuple]) -> str:
    """Render log rows: t with 6 decimals, other floats with 9 significant digits."""
    lines = [CSV_HEADER]
    for t, x, y, heading, v, omega, clr in rows:
        lines.append(
            f"{t:.6f},{x:.9g},{y:.9g},{heading:.9g},{v:.9g},{omega:.9g},{clr:.9g}"
        )
    return "\n".join(lines) + "\n"


def write_trajectory_csv(path: str, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_trajectory_csv(rows))


def _is_log_row(line: str) -> bool:
    """Whether a CSV line holds one finite number per column of CSV_COLUMNS."""
    try:
        cells = [float(cell) for cell in line.split(",")]
    except ValueError:
        return False
    return len(cells) == len(CSV_COLUMNS) and all(map(math.isfinite, cells))


def read_trajectory_csv(data: str | bytes) -> tuple[Trajectory, dict[str, np.ndarray]]:
    """Parse a trajectory log back into a Trajectory plus its raw columns.

    The rows must be evenly spaced in t, up to the 6-decimal format; only the
    last step may be shorter.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = [line for line in data.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"trajectory CSV must start with header {CSV_HEADER!r}")
    rows = lines[1:]
    width = len(CSV_COLUMNS)
    try:
        # All cells in one pass; numpy parses each str cell as float() does.
        # Reshaped to the widest row, rows of uneven width fail here.
        widest = max((line.count(",") for line in rows), default=0) + 1
        cells = ",".join(rows).split(",") if rows else []
        values = np.array(cells, dtype=float).reshape(len(rows), widest)
        if not np.isfinite(values).all():
            raise ValueError
    except ValueError:  # a ragged row, or a non-numeric or non-finite cell
        number = next(n for n, line in enumerate(rows, 1) if not _is_log_row(line))
        raise ValueError(f"trajectory CSV data row {number} must hold {width} numbers") from None
    if len(values) < 2 or values.shape[1] != width:
        raise ValueError(f"trajectory CSV needs at least two data rows of {width} columns")
    t = values[:, 0]
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise ValueError("trajectory CSV rows must be strictly increasing in t")
    # Every step must equal the first, but the last may be shorter: a log ends
    # with the partial cycle that reached the goal.
    uneven = np.abs(steps - steps[0]) > _T_STEP_TOLERANCE
    uneven[-1] = steps[-1] - steps[0] > _T_STEP_TOLERANCE
    if uneven.any():
        k = int(np.argmax(uneven))  # the step into data row k + 2
        raise ValueError(
            f"trajectory CSV time steps must be even: data row {k + 2} is "
            f"{steps[k]:.6f} after data row {k + 1}, not {steps[0]:.6f}"
        )
    columns = {name: values[:, i] for i, name in enumerate(CSV_COLUMNS)}
    return Trajectory(values[:, 1:3], float(steps[0])), columns


def load_trajectory_csv(path: str) -> tuple[Trajectory, dict[str, np.ndarray]]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_trajectory_csv(fh.read())
