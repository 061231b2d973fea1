"""Scenario file parsing, validation errors, serialization, CSV logs."""
from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

import legiplan
from legiplan import (
    CircleObstacle,
    Goal,
    ObserverState,
    PlannerParams,
    RectObstacle,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    parse_scenario,
    run_closed_loop,
    serialize_scenario,
)
from legiplan import model, scenario_io
from legiplan.model import DEFAULT_FOV, clearance, Point2
from legiplan.scenario_io import (
    CSV_COLUMNS,
    format_trajectory_csv,
    read_trajectory_csv,
    scenario_to_bytes,
    simulation_rows,
)
from tests.conftest import MINIMAL, SCENARIO_DIR, SCENARIO_NAMES, make_robot, make_scenario


def test_minimal_file_gets_defaults():
    spec = parse_scenario(json.dumps(MINIMAL))
    assert spec.robot.radius == 0.3
    assert spec.robot.v_max == 1.0
    assert spec.planner.dt == 0.4
    assert spec.planner.mode == "baseline"
    assert spec.task_weights.v_pref == pytest.approx(0.8)
    assert spec.legibility.h_max == 3.0
    assert spec.seed == 0
    assert spec.observers == ()
    # A file that omits a section gets exactly the library's defaults.
    assert spec == ScenarioSpec(robot=spec.robot, goals=spec.goals)


def test_two_targets_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["goals"].append({"id": "H", "position": [3.0, 0.0], "is_target": True})
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.goals"
    assert "exactly one target" in err.value.rule


def test_fov_degrees_convert_to_radians():
    doc = json.loads(json.dumps(MINIMAL))
    doc["observers"] = [
        {"id": "O", "position": [3.0, 1.0], "heading_deg": 180.0, "fov_deg": 120.0},
        {"id": "P", "position": [3.0, -1.0]},
    ]
    spec = parse_scenario(json.dumps(doc))
    assert spec.observers[0].fov == pytest.approx(2 * math.pi / 3)
    assert spec.observers[1].fov == DEFAULT_FOV
    assert spec.observers[0].heading == pytest.approx(math.pi)


def test_unknown_key_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["robot"]["turbo"] = True
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.robot.turbo"
    assert err.value.rule == "unknown key"


def test_unknown_top_level_key_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["extra_physics"] = {}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.extra_physics"


def test_malformed_json_reports_path():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(b"{not json")
    assert err.value.path == "$"


def test_invalid_utf8_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(b"\xff\xfe{}")
    assert "UTF-8" in err.value.rule


def test_start_clearance_enforced():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obstacles"] = [{"type": "circle", "center": [0.1, 0.0], "radius": 0.5}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.robot.position"


def test_goal_clearance_enforced():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obstacles"] = [{"type": "circle", "center": [2.1, 0.0], "radius": 0.4}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.goals[0].position"


def test_stopping_horizon_rule():
    doc = json.loads(json.dumps(MINIMAL))
    doc["robot"]["v_max"] = 3.0
    doc["robot"]["a_max"] = 0.5
    doc["planner"] = {"horizon_w": 2, "dt": 0.4}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert "a_max * horizon_w * dt" in err.value.rule


def test_unknown_attached_goal_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["observers"] = [
        {"id": "O", "position": [1.0, 1.0], "heading_deg": 0.0, "attached_goal": "nope"}
    ]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert "unknown goal id" in err.value.rule


def test_scenario_error_has_one_home():
    assert scenario_io.ScenarioError is model.ScenarioError
    assert legiplan.ScenarioError is model.ScenarioError


@pytest.mark.parametrize(
    "edit, path, rule",
    [
        (lambda d: d["robot"].update(speed=10**400), "$.robot.speed", "must be finite"),
        (
            lambda d: d["goals"][0].update(position=[10**400, 0]),
            "$.goals[0].position", "coordinates must lie within +-1e+150, got (inf, 0.0)",
        ),
        (lambda d: d.update(planner={"dt": -10**400}), "$.planner.dt", "must be finite"),
        (
            lambda d: d.update(observers=[{"id": "O", "position": [1, 1], "fov_deg": 10**400}]),
            "$.observers[0].fov_deg", "must be finite",
        ),
    ],
    ids=["robot.speed", "goal.position", "planner.dt", "observer.fov_deg"],
)
def test_integer_beyond_float_range_rejected(edit, path, rule):
    doc = json.loads(json.dumps(MINIMAL))
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert (err.value.path, err.value.rule) == (path, rule)


def test_integer_just_inside_float_range_accepted():
    # The largest integer that rounds to a finite float: a number, not an
    # error, in a float field with no upper bound.
    doc = json.loads(json.dumps(MINIMAL))
    doc["task_weights"] = {"w_goal": 2**1024 - 2**970 - 1}
    spec = parse_scenario(json.dumps(doc))
    assert spec.task_weights.w_goal == 1.7976931348623157e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "x", [1e308, -1e308, math.nextafter(1e150, math.inf), 10**151],
    ids=["1e308", "-1e308", "above-1e150", "10**151"],
)
def test_goal_beyond_the_coordinate_domain_rejected_without_warning(x):
    # Such a goal's clearance once overflowed to inf, with two RuntimeWarnings,
    # and passed the clearance rule; now its point is refused at its key.
    doc = json.loads((SCENARIO_DIR / "fig3_obstacle_detour.json").read_text())
    doc["goals"][0]["position"] = [x, 0]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "$.goals[0].position"
    assert err.value.rule.startswith("coordinates must lie within +-1e+150, got (")
    doc["goals"][0]["position"] = [1e150, 0]  # the bound itself is inside
    spec = parse_scenario(json.dumps(doc))
    assert spec.goals[0].position == Point2(1e150, 0.0)
    assert clearance(spec.goals[0].position, spec.obstacles) < math.inf


# Planner sizes beyond the horizon maximum or the 32-bit noise-key fields are
# rejected when the file is parsed, at $.planner; nothing here plans at them.
OVERSIZED_PLANNER = [
    ("horizon_w", 10**400, "horizon_w must be <= 10000"),
    ("horizon_w", 10_001, "horizon_w must be <= 10000"),
    ("cem_population", 2**64, "cem_population must be < 2**32"),
    ("cem_population", 2**32, "cem_population must be < 2**32"),
    ("cem_iterations", 2**32, "cem_iterations must be < 2**32"),
]


@pytest.mark.parametrize("key, value, rule", OVERSIZED_PLANNER)
def test_oversized_planner_rejected(key, value, rule):
    doc = json.loads(json.dumps(MINIMAL))
    doc["planner"] = {key: value}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert (err.value.path, err.value.rule) == ("$.planner", rule)
    with pytest.raises(ValueError, match=re.escape(rule)):
        PlannerParams(**{key: value})


@pytest.mark.parametrize("value", [10.0, 8.5, True])
@pytest.mark.parametrize("key", [
    "horizon_w", "cem_population", "cem_elites", "cem_iterations", "execute_steps", "max_cycles",
    "seed",
])
def test_non_integer_counts_reported_at_their_key(key, value):
    # The dataclasses refuse these too, but a file is reported at the key.
    doc = json.loads(json.dumps(MINIMAL))
    if key == "seed":
        doc["seed"], path = value, "$.seed"
    else:
        doc["planner"], path = {key: value}, f"$.planner.{key}"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert (err.value.path, err.value.rule) == (path, "must be an integer")


def test_stopping_rule_beyond_float_range_satisfied():
    # Files read a_max as a float, but a library caller's integer a_max, itself
    # inside float range, can push a_max * horizon_w * dt beyond it.
    assert make_scenario(robot=make_robot(a_max=10**308)).robot.a_max == 10**308


def test_largest_planner_sizes_accepted():
    # Constructed only: a plan at these sizes would not fit in memory.
    params = PlannerParams(horizon_w=10_000, cem_population=2**32 - 1, cem_iterations=2**32 - 1)
    assert params.cem_iterations == 2**32 - 1


def test_nonpositive_init_std_rejected():
    with pytest.raises(ValueError, match="cem_init_std_v must be positive"):
        PlannerParams(cem_init_std_v=-1.0, cem_init_std_omega=0.0)
    with pytest.raises(ValueError, match="cem_init_std_omega must be positive"):
        PlannerParams(cem_init_std_omega=0.0)
    for std in ({"v": 0.0}, {"omega_deg": -5.0}):
        doc = json.loads(json.dumps(MINIMAL))
        doc["planner"] = {"cem_init_std": std}
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert err.value.path == "$.planner"
        assert "must be positive" in err.value.rule


# Each cross-field invariant broken the same way twice: as an edit of
# make_scenario()'s serialized document, and as make_scenario overrides.
G1 = Goal("G1", Point2(4.0, 0.8), is_target=True)
G2 = Goal("G2", Point2(4.0, -0.8))
O1 = ObserverState("O1", Point2(4.8, 0.8), math.pi, attached_goal="G1")
OBSTACLE = CircleObstacle(Point2(2.0, -0.9), 0.3)
BROKEN_INVARIANTS = {
    "two targets": (
        lambda d: d["goals"][1].update(is_target=True),
        dict(goals=(G1, Goal("G2", G2.position, is_target=True))),
        "$.goals", "exactly one target goal required",
    ),
    "no target": (
        lambda d: d["goals"][0].update(is_target=False),
        dict(goals=(Goal("G1", G1.position), G2)),
        "$.goals", "exactly one target goal required",
    ),
    "duplicate goal ids": (
        lambda d: d["goals"][1].update(id="G1"),
        dict(goals=(G1, Goal("G1", G2.position))),
        "$.goals", "goal ids must be unique",
    ),
    "duplicate observer ids": (
        lambda d: d["observers"].append(dict(d["observers"][0])),
        dict(observers=(O1, O1)),
        "$.observers", "observer ids must be unique",
    ),
    "unknown attached goal": (
        lambda d: d["observers"][0].update(attached_goal="nope"),
        dict(observers=(ObserverState("O1", O1.position, O1.heading, attached_goal="nope"),)),
        "$.observers[0].attached_goal", "references unknown goal id 'nope'",
    ),
    "start clearance": (
        lambda d: d["obstacles"].append({"type": "circle", "center": [0.1, 0.0], "radius": 0.5}),
        dict(obstacles=(OBSTACLE, CircleObstacle(Point2(0.1, 0.0), 0.5))),
        "$.robot.position", "start clearance must be >= robot radius",
    ),
    "goal clearance": (
        lambda d: d["obstacles"].append({"type": "circle", "center": [4.1, -0.8], "radius": 0.4}),
        dict(obstacles=(OBSTACLE, CircleObstacle(Point2(4.1, -0.8), 0.4))),
        "$.goals[1].position", "goal clearance must be >= robot radius",
    ),
    "stopping rule": (
        lambda d: d["robot"].update(v_max=4.0),
        dict(robot=make_robot(v_max=4.0)),
        "$.planner", "v_max must be <= a_max * horizon_w * dt",
    ),
    "negative seed": (
        lambda d: d.update(seed=-1),
        dict(seed=-1),
        "$.seed", "must be a 64-bit unsigned integer",
    ),
    "seed beyond 64 bits": (
        lambda d: d.update(seed=2**64),
        dict(seed=2**64),
        "$.seed", "must be a 64-bit unsigned integer",
    ),
}


@pytest.mark.parametrize("case", BROKEN_INVARIANTS)
def test_spec_built_in_code_enforces_file_invariants(case):
    edit_doc, overrides, path, rule = BROKEN_INVARIANTS[case]
    doc = serialize_scenario(make_scenario())
    edit_doc(doc)
    with pytest.raises(ScenarioError) as from_file:
        parse_scenario(doc)
    with pytest.raises(ScenarioError) as from_code:
        make_scenario(**overrides)
    assert (from_file.value.path, from_file.value.rule) == (path, rule)
    assert (from_code.value.path, from_code.value.rule) == (path, rule)


# Each per-field range rule broken twice: as an edit of make_scenario()'s
# serialized document, reported at the object's path, and as a library
# construction, which raises the same rule. The last three are denormal file
# values whose radians, or half of v_max (the derived cem_init_std default),
# round to 0.
BROKEN_FIELDS = {
    "robot radius": (
        lambda d: d["robot"].update(radius=0.0), lambda: make_robot(radius=0.0),
        "$.robot", "radius must be positive",
    ),
    "robot v_max": (
        lambda d: d["robot"].update(v_max=-1.0), lambda: make_robot(v_max=-1.0),
        "$.robot", "v_max must be positive",
    ),
    "robot a_max": (
        lambda d: d["robot"].update(a_max=0.0), lambda: make_robot(a_max=0.0),
        "$.robot", "a_max must be positive",
    ),
    "robot omega_max_deg": (
        lambda d: d["robot"].update(omega_max_deg=-90.0),
        lambda: make_robot(omega_max=math.radians(-90.0)),
        "$.robot", "omega_max must be positive",
    ),
    "robot speed": (
        lambda d: d["robot"].update(speed=1.5), lambda: make_robot(speed=1.5),
        "$.robot", "speed 1.5 outside [0, v_max=1.0]",
    ),
    "observer fov_deg": (
        lambda d: d["observers"][0].update(fov_deg=361.0),
        lambda: ObserverState("O1", O1.position, O1.heading, math.radians(361.0)),
        "$.observers[0]", f"fov {math.radians(361.0)} outside (0, 2*pi]",
    ),
    "circle radius": (
        lambda d: d["obstacles"][0].update(radius=-0.3),
        lambda: CircleObstacle(OBSTACLE.center, -0.3),
        "$.obstacles[0]", "circle radius must be positive, got -0.3",
    ),
    "rect order": (
        lambda d: d["obstacles"].append({"type": "rect", "min": [1.0, 1.0], "max": [2.0, 1.0]}),
        lambda: RectObstacle(Point2(1.0, 1.0), Point2(2.0, 1.0)),
        "$.obstacles[1]", "rectangle min must be strictly below max componentwise",
    ),
    "planner mode": (
        lambda d: d["planner"].update(mode="fast"), lambda: PlannerParams(mode="fast"),
        "$.planner", "mode must be one of ('baseline', 'legible'), got 'fast'",
    ),
    "denormal omega_max_deg": (
        lambda d: d["robot"].update(omega_max_deg=5e-324),
        lambda: make_robot(omega_max=math.radians(5e-324)),
        "$.robot", "omega_max must be positive",
    ),
    "denormal fov_deg": (
        lambda d: d["observers"][0].update(fov_deg=5e-324),
        lambda: ObserverState("O1", O1.position, O1.heading, math.radians(5e-324)),
        "$.observers[0]", "fov 0.0 outside (0, 2*pi]",
    ),
    "denormal v_max": (
        lambda d: (d["robot"].update(v_max=5e-324), d["planner"].pop("cem_init_std")),
        lambda: make_scenario(robot=make_robot(v_max=5e-324)),
        "$.planner", "cem_init_std_v must be positive",
    ),
}


@pytest.mark.parametrize("case", BROKEN_FIELDS)
def test_field_rules_are_the_dataclasses_own(case):
    edit_doc, build, path, rule = BROKEN_FIELDS[case]
    doc = serialize_scenario(make_scenario())
    edit_doc(doc)
    with pytest.raises(ScenarioError) as from_file:
        parse_scenario(doc)
    with pytest.raises(ValueError) as from_code:
        build()
    assert (from_file.value.path, from_file.value.rule) == (path, rule)
    assert getattr(from_code.value, "rule", str(from_code.value)) == rule


def test_seed_range_checked():
    doc = json.loads(json.dumps(MINIMAL))
    doc["seed"] = 2**64
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(doc))


def test_parse_serialize_round_trip():
    spec = make_scenario()
    rebuilt = parse_scenario(scenario_to_bytes(spec))
    assert rebuilt.seed == spec.seed
    assert rebuilt.planner == spec.planner
    assert rebuilt.task_weights == spec.task_weights
    assert rebuilt.legibility == spec.legibility
    assert rebuilt.goals == spec.goals
    assert rebuilt.obstacles == spec.obstacles
    assert rebuilt.robot.position == spec.robot.position
    # angle fields go through a degree round trip; 1e-12 relative
    assert rebuilt.robot.heading == pytest.approx(spec.robot.heading, abs=1e-12)
    assert rebuilt.robot.omega_max == pytest.approx(spec.robot.omega_max, rel=1e-12)
    for a, b in zip(rebuilt.observers, spec.observers):
        assert a.id == b.id and a.position == b.position
        assert a.heading == pytest.approx(b.heading, abs=1e-12)
        assert a.fov == pytest.approx(b.fov, rel=1e-12)
    # a second round trip is a fixed point
    again = parse_scenario(scenario_to_bytes(rebuilt))
    assert again == rebuilt


def test_all_shipped_scenarios_validate(scenario_dir):
    for name in SCENARIO_NAMES:
        spec = load_scenario(str(scenario_dir / f"{name}.json"))
        assert spec.target_goal() is not None


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_serialized_shipped_scenario_reparses(scenario_dir, name):
    spec = load_scenario(str(scenario_dir / f"{name}.json"))
    rebuilt = parse_scenario(scenario_to_bytes(spec))
    assert scenario_to_bytes(rebuilt) == scenario_to_bytes(spec)
    assert rebuilt == spec


# Every key the parser accepts in the parameter sections, each set to a value
# that differs from its default.
EVERY_PARAMETER_KEY = {
    "planner": {
        "dt": 0.3, "horizon_w": 9, "mode": "legible", "cem_population": 40,
        "cem_elites": 6, "cem_iterations": 3, "cem_init_std": {"v": 0.3, "omega_deg": 30.0},
        "execute_steps": 2, "goal_tolerance": 0.25, "max_cycles": 200,
    },
    "task_weights": {
        "w_goal": 1.5, "w_clearance": 2.5, "w_approach": 0.75, "w_smooth": 0.2,
        "w_speed": 0.3, "d_safe": 0.6, "v_pref": 0.7,
    },
    "legibility": {"lambda_sim": 0.5, "lambda_fov": 2.0, "h_max": 4.0, "eps_v": 1e-5},
}


def test_every_parameter_key_round_trips():
    doc = {**json.loads(json.dumps(MINIMAL)), **EVERY_PARAMETER_KEY}
    spec = parse_scenario(json.dumps(doc))
    defaults = parse_scenario(json.dumps(MINIMAL))
    for section in ("planner", "task_weights", "legibility"):
        ours, default = getattr(spec, section), getattr(defaults, section)
        for field in dataclasses.fields(ours):
            assert getattr(ours, field.name) != getattr(default, field.name), field.name
    serialized = serialize_scenario(spec)
    for section, keys in EVERY_PARAMETER_KEY.items():
        assert set(serialized[section]) == set(keys)
    assert set(serialized["planner"]["cem_init_std"]) == {"v", "omega_deg"}
    assert parse_scenario(json.dumps(serialized)) == spec


@pytest.mark.parametrize(
    "edit, path, rule",
    [
        (lambda d: d.pop("goals"), "$.goals", "required key missing"),
        (lambda d: d.update(goals=[]), "$.goals", "must be a non-empty array"),
        (lambda d: d.update(goals={"id": "G"}), "$.goals", "must be a non-empty array"),
        (lambda d: d.update(goals=["G"]), "$.goals[0]", "must be an object"),
        (lambda d: d.update(observers={}), "$.observers", "must be an array"),
        (lambda d: d.update(obstacles=None), "$.obstacles", "must be an array"),
        (
            lambda d: d.update(obstacles=[{"type": "circle", "center": [1, 2], "radius": 0.5}, 3]),
            "$.obstacles[1]",
            "must be an object",
        ),
    ],
    ids=[
        "goals-missing", "goals-empty", "goals-object", "goal-not-object",
        "observers-object", "obstacles-null", "obstacle-not-object",
    ],
)
def test_array_section_errors(edit, path, rule):
    doc = json.loads(json.dumps(MINIMAL))
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert (err.value.path, err.value.rule) == (path, rule)


@pytest.mark.filterwarnings("error")  # a numpy warning from the parse is a failure
class TestTrajectoryCsv:
    def _simulate(self):
        scenario = make_scenario()
        sim = run_closed_loop(scenario)
        rows = simulation_rows(sim, scenario)
        return scenario, sim, rows

    def test_header_and_monotone_time(self):
        scenario, sim, rows = self._simulate()
        text = format_trajectory_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x,y,heading,v,omega,clearance"
        times = [float(line.split(",")[0]) for line in lines[1:]]
        steps = np.diff(times)
        stride = scenario.planner.dt * scenario.planner.execute_steps
        assert np.all(steps > 0)
        assert np.allclose(steps[:-1], stride)  # last row may close a partial cycle

    def test_round_trip_positions_and_clearance(self):
        scenario, sim, rows = self._simulate()
        text = format_trajectory_csv(rows)
        traj, columns = read_trajectory_csv(text)
        # positions survive the 9-significant-digit format
        assert np.allclose(
            traj.waypoints,
            sim.executed.waypoints[:: scenario.planner.execute_steps][: len(rows)],
            atol=1e-6,
        )
        recomputed = [
            clearance(Point2(float(x), float(y)), scenario.obstacles)
            for x, y in traj.waypoints
        ]
        assert np.allclose(recomputed, columns["clearance"], rtol=1e-6)

    def test_step_length_matches_logged_speed(self):
        # with execute_steps = 1, |q_{t+1} - q_t| = v_{t+1} * dt
        scenario = make_scenario()
        assert scenario.planner.execute_steps == 1
        sim = run_closed_loop(scenario)
        rows = simulation_rows(sim, scenario)
        traj, columns = read_trajectory_csv(format_trajectory_csv(rows))
        steps = np.linalg.norm(np.diff(traj.waypoints, axis=0), axis=1)
        assert np.allclose(steps, columns["v"][1:] * scenario.planner.dt, atol=1e-6)

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError):
            read_trajectory_csv("a,b,c\n1,2,3\n")

    @pytest.mark.parametrize(
        "bad_row",
        # long-then-short: 7 + 7 + 8 + 6 cells would fill four rows of 7.
        [
            "0.8,2,0,0,0,0", "0.8,2,0,0,0,0,1,9", "0.8,2,0,zero,0,0,1",
            "0.8,2,0,0,0,0,1,9\n1.2,3,0,0,0,0",
        ],
        ids=["short", "long", "non-numeric", "long-then-short"],
    )
    def test_bad_row_is_named(self, bad_row):
        # Data rows count from 1 and skip blank lines.
        text = (
            "t,x,y,heading,v,omega,clearance\n"
            "0.0,0,0,0,0,0,1\n\n"
            "0.4,1,0,0,0,0,1\n"
            f"{bad_row}\n"
        )
        with pytest.raises(ValueError, match=r"^trajectory CSV data row 3 must hold 7 numbers$"):
            read_trajectory_csv(text)

    @pytest.mark.parametrize(
        "rows",
        ["", "\n\n", "0.0,0,0,0,0,0,1\n", "0.0,0,0,0,1\n0.4,1,0,0,1\n", "0,0,0,0,0,0,0,1\n" * 2],
        ids=["none", "blank", "one", "even-narrow", "even-wide"],
    )
    def test_too_few_rows_or_columns_are_named(self, rows):
        # With no data row the cells joined into one string split to [""],
        # which is not a number; the reader must still report the row count.
        # Rows that all hold one other number of cells get this message too.
        with pytest.raises(
            ValueError, match=r"^trajectory CSV needs at least two data rows of 7 columns$"
        ):
            read_trajectory_csv("t,x,y,heading,v,omega,clearance\n" + rows)

    def test_cells_read_as_float_does(self):
        odd = ["1_0", " 1.5", "+1", "-0", "\t2e-3 ", "٣.٥"]  # the last is Arabic-Indic 3.5
        text = (
            "t,x,y,heading,v,omega,clearance\n"
            "0.0,0,0,0,0,0,1\n"
            f"+0.4,{','.join(odd)}\n"
        )
        _, columns = read_trajectory_csv(text)
        read = np.array([columns[name][1] for name in CSV_COLUMNS[1:]])
        assert read.tobytes() == np.array([float(cell) for cell in odd]).tobytes()
        assert columns["t"][1] == 0.4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", range(7))
    def test_non_finite_cell_is_named(self, column, value):
        # A non-finite t used to pass the time check (nan <= 0 is False), and
        # heading, v, omega and clearance were never checked at all.
        cells = ["0.8", "2", "0", "0", "0", "0", "1"]
        cells[column] = value
        text = (
            "t,x,y,heading,v,omega,clearance\n"
            "0.0,0,0,0,0,0,1\n"
            "0.4,1,0,0,0,0,1\n"
            f"{','.join(cells)}\n"
        )
        with pytest.raises(ValueError, match=r"^trajectory CSV data row 3 must hold 7 numbers$"):
            read_trajectory_csv(text)

    @staticmethod
    def _log(times) -> str:
        return "t,x,y,heading,v,omega,clearance\n" + "".join(
            f"{t},{k},0,0,0,0,1\n" for k, t in enumerate(times)
        )

    def test_uneven_time_step_is_named(self):
        # Read as dt 0.4 without complaint before: only the first step was looked at.
        with pytest.raises(ValueError, match=(
            r"^trajectory CSV time steps must be even: "
            r"data row 3 is 7\.100000 after data row 2, not 0\.400000$"
        )):
            read_trajectory_csv(self._log(["0", "0.4", "7.5"]))

    @pytest.mark.parametrize("times, row", [
        (["0.0", "0.4", "0.9", "1.3"], 3),  # a longer step inside
        (["0.0", "0.4", "0.7", "1.1"], 3),  # a shorter step inside
        (["0.0", "0.4", "0.800003", "1.2"], 3),  # 3e-6 off: beyond the rounding
    ])
    def test_uneven_inner_step_is_named(self, times, row):
        message = rf"^trajectory CSV time steps must be even: data row {row} "
        with pytest.raises(ValueError, match=message):
            read_trajectory_csv(self._log(times))

    @pytest.mark.parametrize("times", [
        ["0.000000", "0.333333", "0.666667", "1.000000"],  # dt 1/3 rounded to 6 decimals
        ["0.000000", "1.200000", "2.400000", "2.800000"],  # a last, partial cycle
        ["0.000000", "1.200000", "2.400001", "3.600000"],  # within the rounding
    ])
    def test_even_steps_up_to_rounding_are_read(self, times):
        traj, _ = read_trajectory_csv(self._log(times))
        assert traj.dt == float(times[1])

    def test_rejects_non_monotone_time(self):
        text = (
            "t,x,y,heading,v,omega,clearance\n"
            "0.000000,0,0,0,0,0,1\n"
            "0.000000,1,0,0,0,0,1\n"
        )
        with pytest.raises(ValueError):
            read_trajectory_csv(text)

    def test_clearance_column_is_the_scalar_clearance(self):
        scenario, sim, rows = self._simulate()
        assert [row[6] for row in rows] == [
            clearance(Point2(row[1], row[2]), scenario.obstacles) for row in rows
        ]

    def test_nine_significant_digits(self):
        rows = [(0.0, 1.23456789123, -2.0, 0.5, 0.25, 0.0, 1e9)]
        text = format_trajectory_csv(rows)
        assert "1.23456789" in text
        assert "0.000000," in text
