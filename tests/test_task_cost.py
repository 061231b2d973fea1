"""Task cost terms and their invariances."""
from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from legiplan import (
    CircleObstacle, Goal, LegibilityParams, ObserverState, Point2, RectObstacle,
    TaskCostWeights, Trajectory, plan_once, task_cost,
)
from legiplan.legibility import legible_objective
from legiplan.task_cost import COLLISION_COST, CostBreakdown, task_cost_batch
from tests.conftest import make_robot, make_scenario

UNIT_WEIGHTS = TaskCostWeights(
    w_goal=1.0, w_clearance=1.0, w_approach=1.0, w_smooth=1.0, w_speed=1.0,
    d_safe=0.5, v_pref=1.0,
)


def test_ideal_straight_path_costs_goal_term_only():
    # Constant speed at v_pref straight onto the goal: every penalty vanishes.
    traj = Trajectory([[0, 0], [1, 0], [2, 0], [3, 0]], dt=1.0)
    robot = make_robot(v_max=1.5)
    b = task_cost(traj, Point2(3, 0), [], robot, UNIT_WEIGHTS)
    assert b.smooth_term == 0.0
    assert b.speed_term == 0.0
    assert b.clearance_term == 0.0
    assert b.approach_term == 0.0
    assert not b.collided
    assert b.total == pytest.approx(b.goal_term)


def test_collision_sentinel():
    traj = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
    obstacles = [CircleObstacle(Point2(1, 0), 0.4)]
    b = task_cost(traj, Point2(2, 0), obstacles, make_robot(), UNIT_WEIGHTS)
    assert b.collided
    assert b.total == COLLISION_COST


def test_three_waypoint_hand_example():
    # J_goal = 0 + (2 + 1 + 0)/3 = 1; all other terms vanish; total = 1.
    traj = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
    b = task_cost(traj, Point2(2, 0), [], make_robot(v_max=1.5), UNIT_WEIGHTS)
    assert b.goal_term == pytest.approx(1.0)
    assert b.smooth_term == 0.0
    assert b.speed_term == 0.0
    assert b.total == pytest.approx(1.0)


def test_total_is_weighted_sum_of_terms():
    rng = np.random.default_rng(2)
    weights = TaskCostWeights(
        w_goal=1.3, w_clearance=2.1, w_approach=0.4, w_smooth=0.15, w_speed=0.3,
        d_safe=0.6, v_pref=0.7,
    )
    obstacles = [CircleObstacle(Point2(1.5, 1.5), 0.4)]
    robot = make_robot()
    for _ in range(100):
        pts = np.cumsum(rng.normal(scale=0.4, size=(8, 2)), axis=0) + [0, -2.0]
        b = task_cost(Trajectory(pts, 0.4), Point2(3, -2), obstacles, robot, weights)
        if b.collided:
            continue
        expected = (
            weights.w_goal * b.goal_term
            + weights.w_clearance * b.clearance_term
            + weights.w_approach * b.approach_term
            + weights.w_smooth * b.smooth_term
            + weights.w_speed * b.speed_term
        )
        assert b.total == pytest.approx(expected, rel=1e-9)


def _random_world(rng):
    pts = np.cumsum(rng.normal(scale=0.5, size=(9, 2)), axis=0)
    goal = rng.uniform(-3, 3, size=2)
    obstacles = [
        CircleObstacle(Point2(*rng.uniform(-3, 3, size=2)), float(rng.uniform(0.2, 0.6)))
        for _ in range(3)
    ]
    return pts, goal, obstacles


def test_translation_invariance():
    rng = np.random.default_rng(3)
    robot = make_robot()
    for _ in range(60):
        pts, goal, obstacles = _random_world(rng)
        shift = rng.uniform(-10, 10, size=2)
        b0 = task_cost(Trajectory(pts, 0.4), Point2(*goal), obstacles, robot, UNIT_WEIGHTS)
        moved = [
            CircleObstacle(Point2(o.center.x + shift[0], o.center.y + shift[1]), o.radius)
            for o in obstacles
        ]
        b1 = task_cost(
            Trajectory(pts + shift, 0.4), Point2(*(goal + shift)), moved, robot, UNIT_WEIGHTS
        )
        assert b1.collided == b0.collided
        if not b0.collided:
            assert b1.total == pytest.approx(b0.total, rel=1e-9)


def test_rotation_invariance():
    rng = np.random.default_rng(4)
    robot = make_robot()
    for _ in range(60):
        pts, goal, obstacles = _random_world(rng)
        angle = rng.uniform(0, 2 * math.pi)
        pivot = rng.uniform(-2, 2, size=2)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )

        def spin(xy):
            return (np.atleast_2d(xy) - pivot) @ rot.T + pivot

        b0 = task_cost(Trajectory(pts, 0.4), Point2(*goal), obstacles, robot, UNIT_WEIGHTS)
        spun = [
            CircleObstacle(Point2(*spin([o.center.x, o.center.y])[0]), o.radius)
            for o in obstacles
        ]
        b1 = task_cost(
            Trajectory(spin(pts), 0.4), Point2(*spin(goal)[0]), spun, robot, UNIT_WEIGHTS
        )
        assert b1.collided == b0.collided
        if not b0.collided:
            assert b1.total == pytest.approx(b0.total, rel=1e-9)


def test_clearance_penalty_monotone_under_inflation():
    # Inflating every obstacle radius can only increase the clearance term.
    rng = np.random.default_rng(6)
    robot = make_robot()
    for _ in range(60):
        pts, goal, obstacles = _random_world(rng)
        b0 = task_cost(Trajectory(pts, 0.4), Point2(*goal), obstacles, robot, UNIT_WEIGHTS)
        inflated = [CircleObstacle(o.center, o.radius + 0.2) for o in obstacles]
        b1 = task_cost(Trajectory(pts, 0.4), Point2(*goal), inflated, robot, UNIT_WEIGHTS)
        assert b1.clearance_term >= b0.clearance_term - 1e-12


def test_collision_dominates_all_feasible_costs():
    rng = np.random.default_rng(8)
    robot = make_robot()
    obstacles = [CircleObstacle(Point2(0.0, 0.0), 0.5)]
    totals_free, totals_hit = [], []
    for _ in range(300):
        pts = rng.uniform(-4, 4, size=(6, 2))
        b = task_cost(Trajectory(pts, 0.4), Point2(3, 3), obstacles, robot, UNIT_WEIGHTS)
        (totals_hit if b.collided else totals_free).append(b.total)
    assert totals_hit and totals_free
    assert min(totals_hit) > max(totals_free)


def test_collided_row_reports_no_legibility_terms():
    # A legible kernel row carries sim and fov even when it collides; the
    # breakdown drops them, while the task terms and the sentinel stay.
    row = {
        "goal": np.array([2.5]), "speed": np.array([0.25]), "sim": np.array([-1.5]),
        "fov": np.array([3.0]), "total": np.array([COLLISION_COST]), "collided": np.array([True]),
    }
    b = CostBreakdown.from_terms(row)
    assert b.collided and b.total == COLLISION_COST
    assert b.sim_term == 0.0 and b.fov_term == 0.0
    assert b.goal_term == 2.5 and b.speed_term == 0.25
    free = CostBreakdown.from_terms({**row, "collided": np.array([False])})
    assert free.sim_term == -1.5 and free.fov_term == 3.0


def _hand_written_breakdown_dict(b: CostBreakdown) -> dict:
    # The report's key list as it was written out by hand before to_dict
    # serialized the dataclass fields.
    return {
        "goal_term": b.goal_term,
        "clearance_term": b.clearance_term,
        "approach_term": b.approach_term,
        "smooth_term": b.smooth_term,
        "speed_term": b.speed_term,
        "sim_term": b.sim_term,
        "fov_term": b.fov_term,
        "total": b.total,
        "collided": b.collided,
    }


def _legible_plan_breakdown() -> CostBreakdown:
    scenario = make_scenario()
    scenario = dataclasses.replace(
        scenario, planner=dataclasses.replace(scenario.planner, mode="legible")
    )
    return plan_once(scenario, rng_seed=3).breakdown


def _collided_breakdown() -> CostBreakdown:
    traj = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
    obstacles = [CircleObstacle(Point2(1, 0), 0.4)]
    return task_cost(traj, Point2(2, 0), obstacles, make_robot(), UNIT_WEIGHTS)


@pytest.mark.parametrize(
    "make", [_legible_plan_breakdown, _collided_breakdown], ids=["legible-plan", "collided"]
)
def test_breakdown_dict_keeps_its_bytes(make):
    b = make()
    assert b.collided == (make is _collided_breakdown)
    old = _hand_written_breakdown_dict(b)
    assert list(b.to_dict()) == list(old)
    assert json.dumps(b.to_dict(), sort_keys=True) == json.dumps(old, sort_keys=True)


def _layouts(batch: np.ndarray) -> dict[str, np.ndarray]:
    """The same (n, T, 2) values in five memory layouts."""
    planar = np.ascontiguousarray(batch.transpose(2, 0, 1)).transpose(1, 2, 0)
    wider = np.zeros((2 * batch.shape[0], batch.shape[1] + 2, 2))
    wider[::2, 1:-1] = batch
    layouts = {
        "C": batch,
        "fortran": np.asfortranarray(batch),
        "planar_view": planar,  # each coordinate a contiguous (n, T) plane
        "reversed_rows": batch[::-1].copy()[::-1],  # negative row stride
        "sliced": wider[::2, 1:-1],  # every other row of a longer batch, its ends cut
    }
    assert layouts["fortran"].flags.f_contiguous and not layouts["fortran"].flags.c_contiguous
    assert not planar.flags.c_contiguous and planar[..., 0].flags.c_contiguous
    assert layouts["reversed_rows"].strides[0] < 0
    assert not (layouts["sliced"].flags.c_contiguous or layouts["sliced"].flags.f_contiguous)
    return layouts


def test_batch_bits_do_not_depend_on_memory_layout():
    # Equal values give equal bits, whatever the batch's memory order. Before
    # the smoothness sum ran over a C-ordered copy, a Fortran-ordered batch or
    # a planar view changed the smooth and total bits of every batch drawn
    # here, and Fortran order the goal and speed bits too.
    rng, goal_rng = np.random.default_rng(15), np.random.default_rng(16)
    goals = (Goal("A", Point2(3.0, -1.2)), Goal("T", Point2(3.0, 1.2), is_target=True))
    observer = ObserverState("O", Point2(3.5, 1.2), heading=math.pi)
    obstacles = (
        CircleObstacle(Point2(1.5, 0.0), 0.4), RectObstacle(Point2(1.0, 1.5), Point2(2.0, 2.0)),
    )
    # The per-row goals (at the batch's shape, as the planner's prediction
    # search hands them) and the predictions take each layout too.
    pred_velocities = rng.normal(scale=0.5, size=(2, 11, 2))

    def score(batch, row_goals, pred_velocities):
        weights, target = TaskCostWeights(), goals[1].position.as_array()
        return {
            "task": task_cost_batch(batch, 0.4, target, obstacles, 0.2, weights),
            "task_row_goals": task_cost_batch(batch, 0.4, row_goals, obstacles, 0.2, weights),
            "legible": legible_objective(
                0.4, pred_velocities, goals, observer, obstacles, 0.2, weights,
                LegibilityParams(),
            )(batch),
        }

    for _ in range(100):
        batch = np.cumsum(rng.normal(scale=0.3, size=(33, 11, 2)), axis=1)
        batch[:3, 5] = (1.5, 0.0)  # collided rows
        row_goals = goal_rng.normal(scale=3.0, size=(33, 1, 2)).repeat(11, axis=1)
        expected = score(batch, row_goals, pred_velocities)
        inputs = zip(*(_layouts(x).items() for x in (batch, row_goals, pred_velocities)))
        for (layout, other), (_, goals_in), (_, pred_in) in inputs:
            got = score(other, goals_in, pred_in)
            for kernel, terms in expected.items():
                assert list(got[kernel]) == list(terms)
                for name, values in terms.items():
                    assert np.array_equal(got[kernel][name], values), (layout, kernel, name)
                    assert np.array_equal(np.signbit(got[kernel][name]), np.signbit(values))
