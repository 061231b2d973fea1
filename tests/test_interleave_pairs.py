"""tools/interleave_pairs.py: its summary on synthetic timings, and one
small run of HEAD against HEAD."""
from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import subprocess
import sys

import numpy as np
import pytest

from legiplan import load_scenario, plan_once, run_closed_loop
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


def test_summary_of_synthetic_rounds():
    # ratios 0.8, 0.9, 0.95, 1.0, 1.2: the working side won 3 of 5 rounds.
    pairs = [(10.0, 9.0), (20.0, 16.0), (20.0, 19.0), (10.0, 12.0), (4.0, 4.0)]
    s = interleave_pairs.summarize(pairs)
    assert s["ratio_median"] == pytest.approx(0.95)
    assert s["ratio_q1"] == pytest.approx(0.9) and s["ratio_q3"] == pytest.approx(1.0)
    assert (s["ref_median"], s["work_median"]) == (10.0, 12.0)
    assert (s["won"], s["rounds"]) == (3, 5)
    line = interleave_pairs.summary_line("legible", s)
    assert line.startswith("legible  ref 10000.00 ms  work 12000.00 ms  ratio 0.9500")
    assert line.endswith("[q1 0.9000, q3 1.0000]  work faster in 3/5 rounds")


def test_one_round_summarizes_itself():
    s = interleave_pairs.summarize([(2.0, 1.0)])
    assert (s["ratio_q1"], s["ratio_median"], s["ratio_q3"]) == (0.5, 0.5, 0.5)


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


@pytest.mark.skipif(not _in_git_checkout(), reason="needs git and a committed HEAD")
def test_head_against_head(capsys):
    code = interleave_pairs.main(["--ref", "HEAD", "--against", "HEAD", "--rounds", "2",
                                  "--seeds", "5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "HEAD against HEAD: 14 of 14 plans byte-equal"
    assert [line.split()[0] for line in out[1:]] == ["baseline", "legible"]
    assert all(line.endswith("/2 rounds") for line in out[1:])
