"""Scenario file parsing, validation errors, serialization, CSV logs."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from legiplan import (
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    parse_scenario,
    run_closed_loop,
    serialize_scenario,
)
from legiplan.model import DEFAULT_FOV, clearance, Point2
from legiplan.scenario_io import (
    format_trajectory_csv,
    read_trajectory_csv,
    scenario_to_bytes,
    simulation_rows,
)
from tests.conftest import SCENARIO_NAMES, make_scenario

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

    def test_nine_significant_digits(self):
        rows = [(0.0, 1.23456789123, -2.0, 0.5, 0.25, 0.0, 1e9)]
        text = format_trajectory_csv(rows)
        assert "1.23456789" in text
        assert "0.000000," in text
