"""tools/interleave_pairs.py: its cases, its byte check of a capped closed
loop, its argument checks, and one small run of HEAD against HEAD. The
summary it prints is tools/bench_pairs.py's, tested there."""
from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import legiplan
from legiplan import PlannerFailure, Trajectory, load_scenario, plan_once, run_closed_loop
from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "interleave_pairs.py"
_spec = importlib.util.spec_from_file_location("interleave_pairs", _PATH)
interleave_pairs = importlib.util.module_from_spec(_spec)
sys.modules["interleave_pairs"] = interleave_pairs
_spec.loader.exec_module(interleave_pairs)


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=SCENARIO_DIR.parent, capture_output=True
    )
    return done.returncode == 0


def test_plan_bytes_tell_the_sign_of_zero():
    result = plan_once(load_scenario(str(SCENARIO_DIR / "fig1_two_goals.json")), 3)

    def with_sim(value):
        breakdown = dataclasses.replace(result.breakdown, sim_term=value)
        return interleave_pairs.plan_bytes(dataclasses.replace(result, breakdown=breakdown))

    assert with_sim(0.0) != with_sim(-0.0)


def test_run_bytes_tell_one_ulp_in_one_heading():
    spec = load_scenario(str(SCENARIO_DIR / "fig1_two_goals.json"))
    spec = dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, max_cycles=3))
    sim = run_closed_loop(spec)
    headings = sim.headings.copy()
    headings[2] = np.nextafter(headings[2], np.inf)
    moved = dataclasses.replace(sim, headings=headings)
    assert interleave_pairs.run_bytes(run_closed_loop(spec)) == interleave_pairs.run_bytes(sim)
    assert interleave_pairs.run_bytes(moved) != interleave_pairs.run_bytes(sim)


def _capped_fig1(cycles: int):
    spec = load_scenario(str(SCENARIO_DIR / "fig1_two_goals.json"))
    return dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, max_cycles=cycles))


def test_run_bytes_tell_one_ulp_in_a_later_cycles_prediction():
    sim = run_closed_loop(_capped_fig1(3))
    assert sim.cycles_used == 3
    last = sim.plan_results[-1]
    goal_id = sorted(last.predictions)[-1]
    waypoints = last.predictions[goal_id].waypoints.copy()
    waypoints[-1, 0] = np.nextafter(waypoints[-1, 0], np.inf)
    moved_plan = dataclasses.replace(
        last, predictions={**last.predictions, goal_id: Trajectory(waypoints, sim.executed.dt)}
    )
    moved = dataclasses.replace(sim, plan_results=(*sim.plan_results[:-1], moved_plan))
    assert interleave_pairs.run_bytes(moved) != interleave_pairs.run_bytes(sim)


def test_a_failed_run_is_its_partial_log_and_message():
    partial = run_closed_loop(_capped_fig1(1))

    def run_closed_loop_that_fails(spec):
        raise PlannerFailure("no candidate scored a finite cost", partial=partial)

    package = types.SimpleNamespace(
        run_closed_loop=run_closed_loop_that_fails, PlannerFailure=PlannerFailure
    )
    assert interleave_pairs.closed_loop(package, None) == (
        partial, "no candidate scored a finite cost"
    )
    assert interleave_pairs.run_bytes(partial, "no candidate scored a finite cost") != (
        interleave_pairs.run_bytes(partial)
    )


def test_cases_are_seeded_capped_and_moded():
    out = interleave_pairs.cases(legiplan, range(3, 5))
    assert len(out) == 7 * 2 * 2  # perfbench scenes x modes x seeds
    for mode, _, seed, spec in out:
        assert (spec.planner.mode, spec.seed) == (mode, seed)
        assert spec.planner.max_cycles <= interleave_pairs.RUN_CYCLES


def test_drift_shared_by_both_sides_is_no_change():
    # The host's speed drifts x0.7-x1.4 from round to round, and this
    # checkout is 0.5% slower in every one: the raw rounds' spread is wider
    # than the bound, each round divided by its mean has none.
    drift = [0.7 + 0.7 * ((7 * r) % 30) / 29 for r in range(30)]
    pairs = [(100.0 * d, 100.5 * d) for d in drift]
    assert interleave_pairs.summarize(pairs, "latency_p50_xref")["verdict"] == "unresolved"
    s = interleave_pairs.judged(pairs)
    assert s["verdict"] == "no change"
    assert s["median_ratio"] == pytest.approx(1.005)
    assert s["ref_median"] == pytest.approx(100.0 * 1.05)  # milliseconds, as measured
    assert s["new_median"] == pytest.approx(100.5 * 1.05)
    assert (s["won"], s["pairs"]) == (0, 30)


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_no_round_is_a_usage_error_before_any_export(monkeypatch, rounds):
    def exported(ref):
        raise AssertionError(f"exported {ref} before the arguments were checked")

    monkeypatch.setattr(interleave_pairs, "exported", exported)
    with pytest.raises(SystemExit) as exit_info:
        interleave_pairs.main(["--ref", "HEAD", "--rounds", rounds])
    assert exit_info.value.code == 2


@pytest.mark.skipif(not _in_git_checkout(), reason="needs git and a committed HEAD")
def test_head_against_head(capsys):
    code = interleave_pairs.main(["--ref", "HEAD", "--against", "HEAD", "--rounds", "2",
                                  "--seeds", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "HEAD against HEAD: 14 of 14 plans byte-equal"
    assert [line.split()[0] for line in out[1:]] == ["baseline", "legible"]
    assert all("/2: " in line for line in out[1:])
