"""Acceptance gate: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s or -v to see them).

Closed-loop runs are cached per (scenario, mode, seed, lambda-zero) so the
whole gate stays well inside the stated runtime budgets.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import legiplan
from legiplan import (
    LegibilityParams,
    ObserverState,
    Point2,
    Trajectory,
    fov_cost,
    legibility_score,
    load_scenario,
    run_closed_loop,
    theta_dev,
    visibility,
    weighted_similarity,
)
from legiplan.evaluation import evaluate_trajectory
from legiplan.model import Goal, clearance_points
from legiplan.task_cost import COLLISION_COST, task_cost
from tests.conftest import SCENARIO_DIR, SCENARIO_NAMES, make_robot

SEEDS = (1, 7, 42)

_RUN_CACHE: dict = {}


def _spec(name: str, mode: str, seed: int, lambda_zero: bool = False):
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(
        spec, seed=seed, planner=dataclasses.replace(spec.planner, mode=mode)
    )
    if lambda_zero:
        spec = dataclasses.replace(
            spec,
            legibility=LegibilityParams(
                lambda_sim=0.0, lambda_fov=0.0,
                h_max=spec.legibility.h_max, eps_v=spec.legibility.eps_v,
            ),
        )
    return spec


def _run(name: str, mode: str, seed: int, lambda_zero: bool = False):
    key = (name, mode, seed, lambda_zero)
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_closed_loop(_spec(name, mode, seed, lambda_zero))
    return _RUN_CACHE[key]


def _report(criterion: int, label: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {label}")


def test_criterion_1_lambda_zero_reduction():
    """Legible mode with zero lambdas is bitwise identical to baseline."""
    start = time.monotonic()
    for name in SCENARIO_NAMES:
        for seed in SEEDS:
            base = _run(name, "baseline", seed)
            zero = _run(name, "legible", seed, lambda_zero=True)
            assert np.array_equal(
                base.executed.waypoints, zero.executed.waypoints
            ), f"{name} seed {seed}: executed paths differ"
            assert np.array_equal(base.controls, zero.controls)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    _report(1, f"lambda-zero reduction bitwise on {len(SCENARIO_NAMES)} scenarios "
               f"x {len(SEEDS)} seeds ({elapsed:.1f}s)")


def _lateral_stats(name: str, seed: int):
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    g_star = spec.target_goal().position.as_array()
    others = [g for g in spec.goals if not g.is_target]
    start = spec.robot.position.as_array()
    chord = g_star - start
    normal = np.array([-chord[1], chord[0]]) / np.linalg.norm(chord)
    offsets = {}
    for mode in ("baseline", "legible"):
        sim = _run(name, mode, seed)
        offsets[mode] = float(np.mean((sim.executed.waypoints - start) @ normal))
    g2_side = float(np.sign((others[0].position.as_array() - start) @ normal))
    return offsets, g2_side


def test_criterion_2_fig1_lateral_exaggeration():
    """Legible path bends away from the unintended goal, more than baseline."""
    start = time.monotonic()
    seed = load_scenario(str(SCENARIO_DIR / "fig1_two_goals.json")).seed
    offsets, g2_side = _lateral_stats("fig1_two_goals", seed)
    assert np.sign(offsets["legible"]) == -g2_side, (
        f"legible offset {offsets['legible']:+.3f} is on the G2 side"
    )
    assert abs(offsets["legible"]) > abs(offsets["baseline"]), (
        f"legible |{offsets['legible']:.3f}| not larger than "
        f"baseline |{offsets['baseline']:.3f}|"
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(2, f"fig1 offsets: legible {offsets['legible']:+.3f} vs baseline "
               f"{offsets['baseline']:+.3f}, away from G2 ({elapsed:.1f}s)")


def test_criterion_3_legibility_improvement():
    """Synthetic-observer score higher by >= 0.05 with better early partials."""
    start = time.monotonic()
    lines = []
    for name in ("fig1_two_goals", "restaurant_front", "restaurant_side"):
        spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
        seed = spec.seed
        rb = evaluate_trajectory(_run(name, "baseline", seed).executed, spec, mode="baseline")
        rl = evaluate_trajectory(_run(name, "legible", seed).executed, spec, mode="legible")
        margin = rl.score - rb.score
        assert margin >= 0.05, f"{name}: margin {margin:.3f} below 0.05"
        for k in (0, 1):
            assert rl.correctness[k] > rb.correctness[k], (
                f"{name}: partial {k + 1} not strictly higher "
                f"({rl.correctness[k]:.3f} vs {rb.correctness[k]:.3f})"
            )
        lines.append(f"{name} dL={margin:+.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _report(3, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_4_fov_steering_monotone():
    """Rotating the observer's gaze sweeps the legible path the same way."""
    start = time.monotonic()
    means = {}
    for side in ("right", "center", "left"):
        name = f"fig4_fov_sweep_{side}"
        seed = load_scenario(str(SCENARIO_DIR / f"{name}.json")).seed
        sim = _run(name, "legible", seed)
        means[side] = float(sim.executed.waypoints[:, 1].mean())
    # gaze toward +y (observer's right) pulls the path to +y, and so on down
    assert means["right"] > means["center"] > means["left"], means
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report(4, f"fov sweep lateral means right={means['right']:+.3f} "
               f"center={means['center']:+.3f} left={means['left']:+.3f} ({elapsed:.1f}s)")


def test_criterion_5_score_arithmetic_and_properties():
    """Weighted-score arithmetic and monotonicity/weight-order properties."""
    assert legibility_score([1.0, 1.0, 0.0]) == pytest.approx(9.0 / 11.0, abs=1e-12)
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        c = rng.uniform(0, 1, size=3)
        score = legibility_score(c.tolist())
        assert min(c) - 1e-12 <= score <= max(c) + 1e-12
        k = int(rng.integers(0, 3))
        bumped = c.copy()
        bumped[k] = min(1.0, bumped[k] + 0.2)
        assert legibility_score(bumped.tolist()) >= score - 1e-12
    # weights 1/1 > 1/2 > 1/3: equal bumps help earlier partials more
    base = [0.3, 0.3, 0.3]
    gains = []
    for k in range(3):
        c = base.copy()
        c[k] += 0.4
        gains.append(legibility_score(c) - legibility_score(base))
    assert gains[0] > gains[1] > gains[2]
    _report(5, "Eq-9 arithmetic at 1e-12 plus 10^4 monotonicity checks")


def test_criterion_6_geometry_oracle_equivalence():
    """theta_dev and visibility agree with an atan2 brute-force oracle."""
    rng = np.random.default_rng(66)
    for _ in range(10_000):
        obs = ObserverState(
            "O",
            Point2(*rng.uniform(-5, 5, 2)),
            heading=float(rng.uniform(-2 * math.pi, 2 * math.pi)),
            fov=float(rng.uniform(0.1, 2 * math.pi)),
        )
        q = Point2(*rng.uniform(-5, 5, 2))
        brute = abs(
            (math.atan2(q.y - obs.position.y, q.x - obs.position.x) - obs.heading + math.pi)
            % (2 * math.pi)
            - math.pi
        )
        assert theta_dev(q, obs) == pytest.approx(brute, abs=1e-9)
        assert visibility(q, obs) == (brute <= obs.fov / 2)
    _report(6, "theta_dev/visibility match the atan2 oracle on 10^4 configs")


def test_criterion_7_cost_bound_properties():
    """Cosine, similarity, FOV-cost bounds and collision dominance."""
    from legiplan import CircleObstacle
    from legiplan.legibility import masked_cosines
    from legiplan.model import velocities

    rng = np.random.default_rng(77)
    params = LegibilityParams(h_max=3.0)
    robot = make_robot()
    obstacles = [CircleObstacle(Point2(0.5, 0.5), 0.6)]
    weights_goal = Point2(3.0, 3.0)
    from tests.test_task_cost import UNIT_WEIGHTS

    free_totals, hit_totals = [], []
    w = 6  # horizon of the random trajectories (7 waypoints)
    for _ in range(10_000):
        a = np.cumsum(rng.normal(scale=0.5, size=(w + 1, 2)), axis=0) + rng.uniform(-2, 2, 2)
        b = np.cumsum(rng.normal(scale=0.5, size=(w + 1, 2)), axis=0)
        ta, tb = Trajectory(a, 0.4), Trajectory(b, 0.4)
        cos = masked_cosines(velocities(ta), velocities(tb), params.eps_v)
        assert np.all(cos <= 1.0 + 1e-12) and np.all(cos >= -1.0 - 1e-12)
        obs = ObserverState("O", Point2(*rng.uniform(-4, 4, 2)), float(rng.uniform(-4, 4)))
        goal = Goal("G", Point2(*rng.uniform(-4, 4, 2)))
        ws = weighted_similarity(ta, tb, goal, Point2(*rng.uniform(-4, 4, 2)), obs, params)
        assert abs(ws) <= (w + 1) * params.h_max + 1e-9
        fc = fov_cost(ta, obs)
        assert 0.0 <= fc < (w + 1)
        breakdown = task_cost(ta, weights_goal, obstacles, robot, UNIT_WEIGHTS)
        (hit_totals if breakdown.collided else free_totals).append(breakdown.total)
    assert hit_totals and free_totals
    assert min(hit_totals) == COLLISION_COST
    assert max(free_totals) < COLLISION_COST
    _report(7, f"bounds on 10^4 trajectories; collision sentinel dominates "
               f"({len(hit_totals)} collided vs {len(free_totals)} free)")


def test_criterion_8_executed_path_safety():
    """Every executed waypoint keeps clearance >= robot radius."""
    start = time.monotonic()
    worst = math.inf
    for name in SCENARIO_NAMES:
        spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
        for seed in SEEDS:
            for mode in ("baseline", "legible"):
                sim = _run(name, mode, seed)
                margins = (
                    clearance_points(sim.executed.waypoints, spec.obstacles)
                    - spec.robot.radius
                )
                worst = min(worst, float(margins.min()))
                assert margins.min() >= 0.0, f"{name} seed {seed} {mode} collided"
    elapsed = time.monotonic() - start
    _report(8, f"worst executed clearance margin {worst:.3f} m across all runs "
               f"({elapsed:.1f}s)")


def _cli(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # The child runs in cwd, so a relative source root on PYTHONPATH would
    # not resolve there; put the absolute one first.
    src_root = str(Path(legiplan.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src_root, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    return subprocess.run(
        [sys.executable, "-m", "legiplan", *args],
        capture_output=True, env=env, cwd=str(cwd), check=True,
    )


def test_criterion_9_cli_byte_determinism(tmp_path):
    """simulate and compare are byte-identical across reruns."""
    start = time.monotonic()
    scenario = str(SCENARIO_DIR / "fig1_two_goals.json")
    sim_outputs = []
    for tag in ("a", "b", "c"):
        out = tmp_path / f"{tag}.csv"
        proc = _cli(
            ["simulate", "--scenario", scenario, "--mode", "legible", "--seed", "7",
             "--out", str(out)],
            tmp_path,
        )
        sim_outputs.append((proc.stdout, out.read_bytes()))
    assert sim_outputs[0] == sim_outputs[1], "rerun changed simulate output"
    assert sim_outputs[0] == sim_outputs[2], "rerun changed simulate output"

    compare_outputs = [
        _cli(["compare", "--scenario", scenario, "--seed", "7"], tmp_path).stdout
        for _ in range(3)
    ]
    assert compare_outputs[0] == compare_outputs[1] == compare_outputs[2]
    payload = json.loads(compare_outputs[0])
    assert payload["L_legible"] > payload["L_baseline"]
    elapsed = time.monotonic() - start
    _report(9, f"simulate/compare byte-identical across reruns ({elapsed:.1f}s)")
