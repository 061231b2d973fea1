"""tools/quality_sweep.py on a one-seed, one-scene range."""
from __future__ import annotations

import dataclasses
import importlib.util
import json
import sys

import pytest

from legiplan import run_closed_loop
from legiplan.evaluation import evaluate_trajectory
from legiplan.scenario_io import load_scenario
from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "quality_sweep.py"
_spec = importlib.util.spec_from_file_location("quality_sweep", _PATH)
quality_sweep = importlib.util.module_from_spec(_spec)
sys.modules["quality_sweep"] = quality_sweep
_spec.loader.exec_module(quality_sweep)

SCENE = "fig1_two_goals"
SEED = 3


@pytest.fixture(scope="module")
def summary():
    return quality_sweep.sweep((SCENE,), range(SEED, SEED + 1))


def _score(mode: str, **planner) -> float:
    spec = load_scenario(str(SCENARIO_DIR / f"{SCENE}.json"))
    spec = dataclasses.replace(
        spec, seed=SEED, planner=dataclasses.replace(spec.planner, mode=mode, **planner)
    )
    return evaluate_trajectory(run_closed_loop(spec).executed, spec).score


def _quality(summary: dict) -> dict:
    """The summary without its wall times, which differ from run to run."""
    return {
        scene: {mode: {k: v for k, v in row.items() if k != "wall_s_mean"}
                for mode, row in modes.items()}
        for scene, modes in summary.items()
    }


def test_one_seed_summary(summary):
    base, leg = summary[SCENE]["baseline"], summary[SCENE]["legible"]
    assert base["L_mean"] == base["L_min"] == _score("baseline")
    assert leg["L_mean"] == leg["L_min"] == _score("legible")
    assert base["L_sd"] == leg["L_sd"] == 0.0
    margin = leg["L_mean"] - base["L_mean"]
    assert leg["margin_min"] == leg["margin_median"] == margin
    assert leg["margin_below_floor"] == int(margin < 0.05)
    assert leg["early_partials_held"] == 1  # criterion 3 holds at this seed
    assert "margin_min" not in base
    assert base["length_ratio_mean"] == 1.0 and base["length_ratio_sd"] == 0.0
    for row in (base, leg):
        assert row["runs"] == 1 and row["failed"] == 0
        assert row["reached_frac"] == 1.0 and row["cycles_mean"] >= 1
        assert row["away_max"] >= 0.0
        assert row["clearance_min"] >= 0.0
        assert 0.0 <= row["visible_mean"] <= 1.0
        assert row["wall_s_mean"] > 0.0


def test_two_workers_match_one(summary):
    two_workers = quality_sweep.sweep((SCENE,), range(SEED, SEED + 1), jobs=2)
    assert _quality(two_workers) == _quality(summary)


def test_main_prints_table_and_writes_json(tmp_path, capsys, monkeypatch, summary):
    monkeypatch.setattr(quality_sweep, "SCENES", (SCENE,))
    out = tmp_path / "sweep.json"
    assert quality_sweep.main(["--seeds", str(SEED), "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"seeds {SEED}-{SEED}"
    assert [line.split()[:2] for line in lines[2:]] == [[SCENE, "baseline"], [SCENE, "legible"]]
    written = json.loads(out.read_text())
    assert written.keys() == {"seeds", "set", "scenes"}
    assert written["seeds"] == [SEED, SEED] and written["set"] == {}
    assert _quality(written["scenes"]) == _quality(summary)


def test_set_overrides_planner_fields(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quality_sweep, "SCENES", (SCENE,))
    out = tmp_path / "sweep.json"
    argv = ["--seeds", str(SEED), "--set", "planner.cem_iterations=2",
            "--set", "planner.goal_tolerance=0.35", "--json", str(out)]
    assert quality_sweep.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"seeds {SEED}-{SEED}  set planner.cem_iterations=2 planner.goal_tolerance=0.35"
    assert lines[1].split()[-2:] == ["s/run", "fail"]
    written = json.loads(out.read_text())
    assert written["set"] == {"planner.cem_iterations": 2, "planner.goal_tolerance": 0.35}
    rows = written["scenes"][SCENE]
    for mode in ("baseline", "legible"):
        assert rows[mode]["L_mean"] == _score(mode, cem_iterations=2, goal_tolerance=0.35)
    assert rows["legible"]["L_mean"] != _score("legible")  # the override changed the run


@pytest.mark.parametrize("setting, message", [
    ("planner.cem_elites=1000", "cem_elites must be in"),  # PlannerParams
    ("planner.dt=0.01", "v_max must be <= a_max * horizon_w * dt"),  # scenario invariant
    ("planner.cem_iterations=2.5", "takes int"),
    ("planner.mode=legible", "expected planner.KEY=VALUE"),
    ("legibility.lambda_sim=1", "expected planner.KEY=VALUE"),
])
def test_set_rejects_bad_overrides_before_running(capsys, monkeypatch, setting, message):
    monkeypatch.setattr(quality_sweep, "SCENES", (SCENE,))
    monkeypatch.setattr(quality_sweep, "sweep", None)  # no run may start
    with pytest.raises(SystemExit):
        quality_sweep.main(["--seeds", str(SEED), "--set", setting])
    assert message in capsys.readouterr().err


def test_empty_seed_range_is_a_usage_error(capsys, monkeypatch):
    # It used to sweep no seed, print a table of "-" and exit 0.
    monkeypatch.setattr(quality_sweep, "sweep", None)  # no run may start
    with pytest.raises(SystemExit) as exc:
        quality_sweep.main(["--seeds", "5-3"])
    assert exc.value.code == 2
    assert "empty seed range '5-3'" in capsys.readouterr().err
