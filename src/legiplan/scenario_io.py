"""Scenario file parsing/validation and trajectory log serialization.

Scenario files are strict JSON: unknown keys are rejected so a typo can
never silently change the physics. Angles are degrees in files and radians
internally; the conversion happens only at this boundary.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Container
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from .model import (
    CircleObstacle,
    Goal,
    LegibilityParams,
    Obstacle,
    ObserverState,
    PlannerParams,
    Point2,
    RectObstacle,
    RobotState,
    ScenarioError,
    ScenarioSpec,
    TaskCostWeights,
    Trajectory,
    _as_float,
    _shown,
    clearance_points,
    wrap_angle,
)

if TYPE_CHECKING:  # an annotation only: parsing and scoring do not load the planner
    from .planner import SimulationResult

SCHEMA_VERSION = 1

CSV_COLUMNS = ("t", "x", "y", "heading", "v", "omega", "clearance")
CSV_HEADER = ",".join(CSV_COLUMNS)


def _as_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, "must be an object")
    return value


def _real(value: Any) -> float | None:
    """`value` as a float if it is a number and not a bool, else None; an
    integer beyond float range reads as -inf or inf, so it fails the caller's
    range check."""
    if type(value) is float:  # what JSON numbers mostly are: no isinstance chain
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return _as_float(value)


# Readers take a key's value with its object's path and the key, which make
# the error's path only when the value breaks the reader's rule.
def _number(value: Any, path: str, key: str) -> float:
    number = value if type(value) is float else _real(value)  # most keys skip a call
    if number is None:
        raise ScenarioError(f"{path}.{key}", "must be a number")
    if not math.isfinite(number):
        raise ScenarioError(f"{path}.{key}", "must be finite")
    return number


def _radians(value: Any, path: str, key: str) -> float:
    return math.radians(_number(value, path, key))


def _heading(value: Any, path: str, key: str) -> float:
    return wrap_angle(math.radians(_number(value, path, key)))


def _integer(value: Any, path: str, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}", "must be an integer")
    return value


def _string(value: Any, path: str, key: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}", "must be a string")
    return value


def _string_or_null(value: Any, path: str, key: str) -> str | None:
    return None if value is None else _string(value, path, key)


def _boolean(value: Any, path: str, key: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}", "must be a boolean")
    return value


def _point(value: Any, path: str, key: str) -> Point2:
    x, y = map(_real, value) if isinstance(value, list) and len(value) == 2 else (None, None)
    if x is None or y is None:
        raise ScenarioError(f"{path}.{key}", "must be a [x, y] pair of numbers")
    try:
        return Point2(x, y)  # which owns the coordinate rule
    except ValueError as exc:  # the path is built only on this rare branch
        raise ScenarioError(f"{path}.{key}", str(exc)) from None


# A section table maps each file key, in read order, to (field, reader,
# default). The default is in file units and goes through the reader; None
# makes the key required, and _KEEP leaves an absent key to the dataclass
# default. A nested section has a table for its reader and None for its
# field: its fields are merged in. Serializing writes each field back
# through _WRITERS, so a key is read and written from its one entry.
_KEEP = object()

# Degrees in files, radians in fields; points as [x, y].
_WRITERS: dict[Callable, Callable] = {
    _radians: math.degrees, _heading: math.degrees, _point: lambda p: [p.x, p.y],
}


def _table(**entries: tuple) -> dict:
    """A section table from `key=(reader, default)`, or `(reader, default,
    field)` where the field is not named as the key."""
    return {key: (field[0] if field else key, read, default)
            for key, (read, default, *field) in entries.items()}


def _field_table(cls: type, skip: Container[str] = ()) -> dict:
    """The table of a section whose keys are the field names of `cls`, read
    by their annotation (a string: the modules postpone annotations)."""
    readers = {"float": _number, "int": _integer, "str": _string}
    return {f.name: (f.name, readers[f.type], _KEEP)
            for f in dataclasses.fields(cls) if f.name not in skip}


_ROBOT = _table(
    position=(_point, None), speed=(_number, 0.0), radius=(_number, 0.3),
    v_max=(_number, 1.0), a_max=(_number, 1.0),
    omega_max_deg=(_radians, 90.0, "omega_max"), heading_deg=(_heading, 0.0, "heading"),
)
_GOAL = _table(is_target=(_boolean, False), id=(_string, None), position=(_point, None))
_OBSERVER = _table(
    fov_deg=(_radians, _KEEP, "fov"), attached_goal=(_string_or_null, _KEEP),
    id=(_string, None), position=(_point, None), heading_deg=(_heading, 0.0, "heading"),
)
# The obstacle key that names the class and table of the rest.
_KIND = "type"
_OBSTACLES = {
    "circle": (CircleObstacle, _table(radius=(_number, None), center=(_point, None))),
    "rect": (RectObstacle, _table(min=(_point, None), max=(_point, None))),
}
_OBSTACLE_KINDS = {cls: (kind, table) for kind, (cls, table) in _OBSTACLES.items()}

_CEM_INIT_STD = _table(
    v=(_number, _KEEP, "cem_init_std_v"), omega_deg=(_radians, _KEEP, "cem_init_std_omega"),
)
_PLANNER = {
    **_field_table(PlannerParams, skip=[field for field, _, _ in _CEM_INIT_STD.values()]),
    **_table(cem_init_std=(_CEM_INIT_STD, _KEEP, None)),
}
_TASK_WEIGHTS = _field_table(TaskCostWeights)
_LEGIBILITY = _field_table(LegibilityParams)


def _check_keys(obj: dict, path: str, allowed: Container[str], extra: Container[str] = ()) -> None:
    for key in obj:
        if key not in allowed and key not in extra:
            raise ScenarioError(f"{path}.{key}", "unknown key")


def _read(obj: dict, path: str, table: dict, fields: dict, extra: Container[str] = ()) -> dict:
    """`fields` with those of section `obj` at `path`, read by `table`; keys
    beyond the table's and `extra` are errors."""
    if not obj.keys() <= table.keys():  # one C-level test passes most sections
        _check_keys(obj, path, table, extra)
    for key, (field, read, default) in table.items():
        value = obj.get(key, default)
        if (value is None or value is _KEEP) and key not in obj:
            if value is _KEEP:
                continue
            raise ScenarioError(f"{path}.{key}", "required key missing")
        if field is None:
            sub = f"{path}.{key}"
            _read(_as_object(value, sub), sub, read, fields)
        else:
            fields[field] = read(value, path, key)
    return fields


def _write(obj: Any, table: dict) -> dict:
    """The section of `obj` that `table` reads, every key written."""
    section = {}
    for key, (field, read, _) in table.items():
        if field is None:
            section[key] = _write(obj, read)
        else:
            value, write = getattr(obj, field), _WRITERS.get(read)
            section[key] = value if write is None else write(value)
    return section


def _parse(cls: type, table: dict, obj: dict, path: str, extra: Container[str] = (),
           **defaults: Any) -> Any:
    """The `cls` object that `table` reads from `obj` at `path`, `defaults`
    giving fields for the keys it leaves out."""
    return _build(cls, path, _read(obj, path, table, defaults, extra))


def _build(cls: type, path: str, fields: dict) -> Any:
    """Construct `cls`, reporting its ValueError as a ScenarioError at `path`."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _top_section(doc: dict, key: str, cls: type, table: dict, **defaults: Any) -> Any:
    """The `cls` object of the top-level section `key`; an absent one reads
    as {}."""
    path = f"$.{key}"
    return _parse(cls, table, _as_object(doc.get(key, {}), path), path, **defaults)


def _parse_obstacle(obj: dict, path: str) -> Obstacle:
    if _KIND not in obj:
        raise ScenarioError(f"{path}.{_KIND}", "required key missing")
    kind = _string(obj[_KIND], path, _KIND)
    if kind not in _OBSTACLES:
        raise ScenarioError(f"{path}.{_KIND}", f"must be {' or '.join(map(repr, _OBSTACLES))}")
    return _parse(*_OBSTACLES[kind], obj, path, extra=(_KIND,))


def _write_obstacle(obstacle: Obstacle) -> dict:
    kind, table = _OBSTACLE_KINDS[type(obstacle)]
    return {_KIND: kind, **_write(obstacle, table)}


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
    ScenarioError naming the JSON path and the violated rule: a key's path
    for a missing or unknown key, a wrong JSON type, a non-finite number or a
    coordinate beyond COORD_LIMIT; the object's path for its dataclass's range
    rules; ScenarioSpec's own paths for the cross-field invariants.
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
        except ValueError:  # int() of a literal beyond Python's int-to-str digit limit
            raise ScenarioError("$", "integer literal has too many digits") from None
    doc = _as_object(data, "$")
    _check_keys(
        doc, "$",
        {"version", "robot", "goals", "observers", "obstacles", "planner",
         "task_weights", "legibility", "seed"},
    )
    version = _integer(doc.get("version", SCHEMA_VERSION), "$", "version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("$.version", f"unsupported schema version {_shown(version)}")

    if "robot" not in doc:
        raise ScenarioError("$.robot", "required key missing")
    robot = _top_section(doc, "robot", RobotState, _ROBOT)

    goals = _array(doc, "goals", partial(_parse, Goal, _GOAL), required=True)
    observers = _array(doc, "observers", partial(_parse, ObserverState, _OBSERVER))
    obstacles = _array(doc, "obstacles", _parse_obstacle)

    planner = _top_section(doc, "planner", PlannerParams, _PLANNER)
    # The class default for v_pref assumes v_max = 1; derive it from the robot.
    weights = _top_section(
        doc, "task_weights", TaskCostWeights, _TASK_WEIGHTS, v_pref=0.8 * robot.v_max
    )
    legibility = _top_section(doc, "legibility", LegibilityParams, _LEGIBILITY)

    return ScenarioSpec(
        robot=robot, goals=goals, observers=observers, obstacles=obstacles, planner=planner,
        task_weights=weights, legibility=legibility, seed=_integer(doc.get("seed", 0), "$", "seed"),
    )


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, "rb") as fh:
        return parse_scenario(fh.read())


def serialize_scenario(spec: ScenarioSpec) -> dict:
    """Scenario document (JSON-ready dict) with every default materialized."""
    return {
        "version": SCHEMA_VERSION,
        "robot": _write(spec.robot, _ROBOT),
        "goals": [_write(g, _GOAL) for g in spec.goals],
        "observers": [_write(o, _OBSERVER) for o in spec.observers],
        "obstacles": [_write_obstacle(o) for o in spec.obstacles],
        "planner": _write(spec.planner, _PLANNER),
        "task_weights": _write(spec.task_weights, _TASK_WEIGHTS),
        "legibility": _write(spec.legibility, _LEGIBILITY),
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


def _finite_floats(line: str) -> list[float] | None:
    """The cells of a CSV line as float() reads them, or None unless every
    cell is a finite number."""
    try:
        cells = [float(cell) for cell in line.split(",")]
    except ValueError:
        return None
    return cells if all(map(math.isfinite, cells)) else None


def _float_cells(rows: list[str]) -> np.ndarray:
    """The data rows' cells read one at a time by float(), shape (rows, cells).

    The slow path: it reads the spellings only float() accepts (`1_0`,
    non-ASCII digits), and when the rows are not all finite numbers of one
    width it names the first row that is not one number per CSV column.
    """
    parsed = [_finite_floats(line) for line in rows]
    if any(cells is None for cells in parsed) or len({len(cells) for cells in parsed}) > 1:
        width = len(CSV_COLUMNS)
        number = next(n for n, cells in enumerate(parsed, 1) if cells is None or len(cells) != width)
        raise ValueError(f"trajectory CSV data row {number} must hold {width} numbers")
    return np.array(parsed, dtype=float).reshape(len(parsed), len(parsed[0]) if parsed else 0)


def read_trajectory_csv(data: str | bytes) -> tuple[Trajectory, dict[str, np.ndarray]]:
    """Parse a trajectory log back into a Trajectory plus its raw columns.

    Each cell reads as float() reads it. The rows must be evenly spaced in t,
    up to the 6-decimal format; only the last step may be shorter.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = [line for line in data.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"trajectory CSV must start with header {CSV_HEADER!r}")
    rows = lines[1:]
    width = len(CSV_COLUMNS)
    values = None
    # numpy's C parser builds no str per cell, and a cell it accepts gets
    # float()'s bits; but it strips the separator \x1f around a number and
    # float() does not (splitlines breaks lines at \x1c-\x1e, not \x1f).
    # Fewer than two rows is an error anyway, and loadtxt warns on none.
    if len(rows) >= 2 and "\x1f" not in data:
        try:
            values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:  # a ragged row, or a cell numpy refuses (`1_0`, `zero`)
            pass
    if values is None or not np.isfinite(values).all():
        values = _float_cells(rows)
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
