"""Scenario file parsing, validation errors, serialization, CSV logs."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import legiplan
from legiplan import (
    CircleObstacle,
    Goal,
    ObserverState,
    PlannerParams,
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
    format_trajectory_csv,
    read_trajectory_csv,
    scenario_to_bytes,
    simulation_rows,
)
from tests.conftest import SCENARIO_NAMES, make_robot, make_scenario

MINIMAL = {
    "robot": {"position": [0.0, 0.0]},
    "goals": [{"id": "G", "position": [2.0, 0.0], "is_target": True}],
}


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
            "$.goals[0].position", "coordinates must be finite",
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
    # The largest integer that rounds to a finite float: a number, not an error.
    doc = json.loads(json.dumps(MINIMAL))
    doc["goals"][0]["position"] = [2**1024 - 2**970 - 1, 0]
    spec = parse_scenario(json.dumps(doc))
    assert spec.goals[0].position.x == 1.7976931348623157e308


def test_huge_horizon_satisfies_stopping_rule():
    doc = json.loads(json.dumps(MINIMAL))
    doc["planner"] = {"horizon_w": 10**400}
    assert parse_scenario(json.dumps(doc)).planner.horizon_w == 10**400


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


def test_serialized_shipped_scenario_reparses(scenario_dir):
    spec = load_scenario(str(scenario_dir / "fig1_two_goals.json"))
    rebuilt = parse_scenario(scenario_to_bytes(spec))
    assert serialize_scenario(rebuilt) == serialize_scenario(rebuilt)
    assert rebuilt.goals == spec.goals


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
