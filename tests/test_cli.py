"""Command-line interface behavior and exit codes."""
from __future__ import annotations

import errno
import json
import os
import warnings
from pathlib import Path

import pytest

from legiplan import scenario_io
from legiplan.cli import cli_main
from legiplan.scenario_io import scenario_to_bytes
from tests.conftest import LONG_LITERAL, SCENARIO_DIR, make_scenario, needs_digit_limit

FIG1 = str(SCENARIO_DIR / "fig1_two_goals.json")


@pytest.fixture()
def fast_scenario(tmp_path: Path) -> str:
    path = tmp_path / "fast.json"
    path.write_bytes(scenario_to_bytes(make_scenario()))
    return str(path)


def test_plan_prints_breakdown(fast_scenario, capsys):
    code = cli_main(["plan", "--scenario", fast_scenario, "--mode", "baseline", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"goal_term", "sim_term", "fov_term", "total", "collided"} <= set(payload)
    assert payload["collided"] is False


def test_plan_writes_csv_and_svg(fast_scenario, tmp_path, capsys):
    out = tmp_path / "plan.csv"
    svg = tmp_path / "plan.svg"
    code = cli_main([
        "plan", "--scenario", fast_scenario, "--mode", "legible", "--seed", "3",
        "--out", str(out), "--svg", str(svg),
    ])
    capsys.readouterr()
    assert code == 0
    assert out.read_text().startswith("t,x,y,heading,v,omega,clearance")
    assert svg.read_bytes().startswith(b"<?xml")


def test_invalid_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "robot": {"position": [0, 0]},
        "goals": [
            {"id": "A", "position": [1, 0], "is_target": True},
            {"id": "B", "position": [2, 0], "is_target": True},
        ],
    }))
    code = cli_main(["plan", "--scenario", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.err)
    assert error["error"] == "validation"
    assert error["path"] == "$.goals"


def test_integer_beyond_float_range_exits_one(tmp_path, capsys):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({
        "robot": {"position": [0, 0], "speed": 10**400},
        "goals": [{"id": "A", "position": [1, 0], "is_target": True}],
    }))
    code = cli_main(["plan", "--scenario", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err) == {
        "error": "validation", "path": "$.robot.speed", "rule": "must be finite",
    }


@needs_digit_limit
def test_integer_literal_beyond_the_digit_limit_exits_one(tmp_path, capsys):
    bad = tmp_path / "long.json"
    bad.write_text(LONG_LITERAL)
    code = cli_main(["plan", "--scenario", str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "validation", "path": "$", "rule": "integer literal has too many digits",
    }


@pytest.mark.parametrize("key, value, rule", [
    ("horizon_w", 10**400, "horizon_w must be <= 10000"),
    ("cem_population", 2**64, "cem_population must be < 2**32"),
])
def test_oversized_planner_exits_one(tmp_path, capsys, key, value, rule):
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({
        "robot": {"position": [0, 0]},
        "goals": [{"id": "A", "position": [1, 0], "is_target": True}],
        "planner": {key: value},
    }))
    code = cli_main(["plan", "--scenario", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err) == {"error": "validation", "path": "$.planner", "rule": rule}


def test_missing_file_exits_one(capsys):
    code = cli_main(["plan", "--scenario", "/nonexistent/x.json"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "validation"


@pytest.mark.parametrize("flag", ["--svg", "--out", "--scenario"])
def test_unusable_path_exits_one(fast_scenario, tmp_path, capsys, flag):
    # A repeated --scenario replaces the first one.
    code = cli_main(
        ["plan", "--scenario", fast_scenario, "--mode", "baseline", flag, str(tmp_path)]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "path": str(tmp_path), "rule": os.strerror(errno.EISDIR),
    }


@pytest.mark.parametrize("argv", [
    ["simulate", "--mode", "legible", "--out", "{dir}"],
    ["simulate", "--mode", "baseline", "--out", "{dir}/run.csv", "--svg", "{dir}"],
    ["compare", "--svg", "{dir}"],
])
def test_unwritable_output_fails_before_planning(
    fast_scenario, tmp_path, capsys, monkeypatch, argv
):
    def planned(*args, **kwargs):
        raise AssertionError("the closed loop ran before the output paths were checked")

    monkeypatch.setattr("legiplan.cli.run_closed_loop", planned)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    code = cli_main([argv[0], "--scenario", fast_scenario, *argv[1:]])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "path": str(tmp_path), "rule": os.strerror(errno.EISDIR),
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.json"]


def test_output_check_creates_no_file(fast_scenario, tmp_path, capsys):
    out, svg = tmp_path / "run.csv", tmp_path / "missing" / "run.svg"
    code = cli_main([
        "simulate", "--scenario", fast_scenario, "--mode", "baseline",
        "--out", str(out), "--svg", str(svg),
    ])
    assert code == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "validation", "path": str(svg), "rule": "file not found",
    }
    assert not out.exists()


def test_os_error_without_a_path_propagates(fast_scenario, monkeypatch):
    def closed_stdout(payload):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    monkeypatch.setattr("legiplan.cli._print_json", closed_stdout)
    with pytest.raises(BrokenPipeError):
        cli_main(["plan", "--scenario", fast_scenario, "--mode", "baseline"])


def test_unknown_flag_exits_one(capsys):
    code = cli_main(["plan", "--scenario", FIG1, "--warp-speed"])
    captured = capsys.readouterr()
    assert code == 1
    assert "usage" in captured.err.lower()


def test_unknown_command_exits_one(capsys):
    assert cli_main(["teleport"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_simulate_deterministic_output(fast_scenario, tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        code = cli_main([
            "simulate", "--scenario", fast_scenario, "--mode", "baseline",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        outputs.append((capsys.readouterr().out, out.read_bytes()))
    assert outputs[0] == outputs[1]


def test_evaluate_logged_trajectory(fast_scenario, tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert cli_main([
        "simulate", "--scenario", fast_scenario, "--mode", "legible",
        "--seed", "3", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = cli_main([
        "evaluate", "--scenario", fast_scenario, "--trajectory", str(out),
        "--beta", "1.0", "--fractions", "0.25,0.5,0.75",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["correctness"]) == 3
    assert 0.0 <= report["score"] <= 1.0


def test_evaluate_mask_fov_flag(fast_scenario, tmp_path, capsys):
    out = tmp_path / "run.csv"
    cli_main([
        "simulate", "--scenario", fast_scenario, "--mode", "legible",
        "--seed", "3", "--out", str(out),
    ])
    capsys.readouterr()
    assert cli_main([
        "evaluate", "--scenario", fast_scenario, "--trajectory", str(out), "--mask-fov",
    ]) == 0
    assert "correctness" in json.loads(capsys.readouterr().out)


def test_evaluate_at_overflowing_beta(tmp_path, capsys):
    # At beta 1e308 every -beta * cost of some prefixes overflows to -inf;
    # the observer then takes the beta -> inf limit, which a large beta that
    # does not overflow agrees with, instead of a NaN posterior.
    log = tmp_path / "zigzag.csv"
    points = [(0, 0), (1, 1.5), (2, -1.5), (3, 0.2), (4, 0.1)]
    log.write_text("t,x,y,heading,v,omega,clearance\n" + "".join(
        f"{0.4 * i:.6f},{x},{y},0,0,0,1\n" for i, (x, y) in enumerate(points)
    ))
    reports = []
    for beta in ("1e308", "1e300"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main([
                "evaluate", "--scenario", FIG1, "--trajectory", str(log), "--beta", beta,
            ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        reports.append(json.loads(captured.out))
    assert reports[0] == reports[1]
    assert reports[0]["correctness"] == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("beta, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
def test_evaluate_reports_a_bad_beta_at_its_flag(tmp_path, capsys, beta, shown):
    log = tmp_path / "run.csv"
    log.write_text("t,x,y,heading,v,omega,clearance\n0,0,0,0,0,0,1\n0.4,1,0,0,0,0,1\n")
    code = cli_main(["evaluate", "--scenario", FIG1, "--trajectory", str(log), f"--beta={beta}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "validation", "path": "--beta",
        "rule": f"beta must be finite and nonnegative, got {shown}",
    }


def test_evaluate_checks_beta_without_the_parser_helper(tmp_path, capsys, monkeypatch):
    # The CLI reports --beta itself: no private scenario_io helper is on its path.
    monkeypatch.delattr(scenario_io, "_build")
    test_evaluate_reports_a_bad_beta_at_its_flag(tmp_path, capsys, "-1", "-1.0")


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_evaluate_rejects_a_non_finite_time(tmp_path, capsys, t):
    log = tmp_path / "bad_time.csv"
    log.write_text(
        "t,x,y,heading,v,omega,clearance\n0,0,0,0,0,0,1\n0.4,1,0,0,0,0,1\n"
        f"{t},2,0,0,0,0,1\n"
    )
    code = cli_main(["evaluate", "--scenario", FIG1, "--trajectory", str(log)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "validation", "path": "", "rule": "trajectory CSV data row 3 must hold 7 numbers",
    }


def test_evaluate_rejects_an_uneven_time_step(tmp_path, capsys):
    log = tmp_path / "uneven_time.csv"
    log.write_text(
        "t,x,y,heading,v,omega,clearance\n0,0,0,0,0,0,1\n0.4,1,0,0,0,0,1\n7.5,2,0,0,0,0,1\n"
    )
    code = cli_main(["evaluate", "--scenario", FIG1, "--trajectory", str(log)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "validation", "path": "",
        "rule": "trajectory CSV time steps must be even: "
        "data row 3 is 7.100000 after data row 2, not 0.400000",
    }


def test_compare_reports_both_modes(fast_scenario, tmp_path, capsys):
    svg = tmp_path / "compare.svg"
    code = cli_main([
        "compare", "--scenario", fast_scenario, "--seed", "3", "--svg", str(svg),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert {
        "L_baseline", "L_legible", "delta_L",
        "correctness_baseline", "correctness_legible", "delta_correctness",
    } <= set(payload)
    assert svg.exists()


def test_planner_failure_exits_two(tmp_path, capsys):
    # Robot boxed in on all sides: no collision-free candidate survives.
    import math

    doc = {
        "robot": {"position": [0.0, 0.0], "radius": 0.3, "v_max": 0.5, "a_max": 1.0},
        "goals": [{"id": "G", "position": [5.0, 0.0], "is_target": True}],
        "obstacles": [
            {
                "type": "circle",
                "center": [round(0.75 * math.cos(a), 3), round(0.75 * math.sin(a), 3)],
                "radius": 0.38,
            }
            for a in [i * math.pi / 4 for i in range(8)]
        ],
        "planner": {"cem_population": 16, "cem_elites": 4, "cem_iterations": 2,
                     "horizon_w": 8, "max_cycles": 3,
                     "cem_init_std": {"v": 0.3, "omega_deg": 45.0}},
    }
    path = tmp_path / "trapped.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "trapped.csv"
    code = cli_main(["simulate", "--scenario", str(path), "--seed", "1", "--out", str(out)])
    captured = capsys.readouterr()
    if code == 2:
        error = json.loads(captured.err)
        assert error["error"] == "planner_failure"
    else:
        # candidates can hover in place without colliding; then the run
        # simply times out without reaching the goal
        assert code == 0
        assert json.loads(captured.out)["reached"] is False


@pytest.mark.parametrize("mode", ["baseline", "legible"])
@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_plan_beyond_the_coordinate_domain_exits_two(tmp_path, capsys, command, mode):
    # A robot this fast plans past COORD_LIMIT: a planner failure, not a bad scene.
    scenario = tmp_path / "fast.json"
    scenario.write_text(json.dumps({
        "robot": {"position": [0, 0], "v_max": 1e151, "a_max": 1e151},
        "goals": [{"id": "G", "position": [5, 0], "is_target": True}],
    }))
    out = tmp_path / "out.csv"
    code = cli_main([command, "--scenario", str(scenario), "--mode", mode, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "planner_failure",
        "detail": "planned waypoint coordinates must lie within +-1e+150",
    }
    assert not out.exists()


def test_simulate_started_at_goal_logs_start_twice(tmp_path, capsys):
    scenario = tmp_path / "at_goal.json"
    scenario.write_text(json.dumps({
        "robot": {"position": [0, 0]},
        "goals": [{"id": "G", "position": [0.1, 0], "is_target": True}],
    }))
    out = tmp_path / "at_goal.csv"
    assert cli_main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["executed_steps"] == 0
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 2
    assert cli_main(["evaluate", "--scenario", str(scenario), "--trajectory", str(out)]) == 0
