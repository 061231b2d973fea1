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


def _score(mode: str) -> float:
    spec = load_scenario(str(SCENARIO_DIR / f"{SCENE}.json"))
    spec = dataclasses.replace(
        spec, seed=SEED, planner=dataclasses.replace(spec.planner, mode=mode)
    )
    return evaluate_trajectory(run_closed_loop(spec).executed, spec).score


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


def test_two_workers_match_one(summary):
    assert quality_sweep.sweep((SCENE,), range(SEED, SEED + 1), jobs=2) == summary


def test_main_prints_table_and_writes_json(tmp_path, capsys, monkeypatch, summary):
    monkeypatch.setattr(quality_sweep, "SCENES", (SCENE,))
    out = tmp_path / "sweep.json"
    assert quality_sweep.main(["--seeds", str(SEED), "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"seeds {SEED}-{SEED}"
    assert [line.split()[:2] for line in lines[2:]] == [[SCENE, "baseline"], [SCENE, "legible"]]
    assert json.loads(out.read_text()) == {"seeds": [SEED, SEED], "scenes": summary}


def test_seed_range_is_inclusive():
    assert quality_sweep._seed_range("0-19") == range(20)
    assert quality_sweep._seed_range("7") == range(7, 8)
