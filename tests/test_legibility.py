"""Observer-perspective cost terms: angles, visibility, weighting, similarity."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from legiplan import (
    Goal,
    LegibilityParams,
    ObserverState,
    Point2,
    Trajectory,
    fov_cost,
    h_weight,
    legibility_aware_cost,
    sim_cost,
    task_cost,
    theta_dev,
    visibility,
    weighted_similarity,
)
from legiplan.legibility import (
    _candidate_planes,
    _LegibleCycle,
    fov_cost_batch,
    legible_objective,
    masked_cosines,
    theta_dev_points,
    visibility_points,
    weighted_similarity_batch,
)
from legiplan.model import CircleObstacle, RectObstacle, _hypot2, clearance_points, velocity_points
from legiplan.task_cost import COLLISION_COST, TaskCostWeights
from tests.conftest import make_robot, random_trajectory
from tests.test_task_cost import UNIT_WEIGHTS

OBS = ObserverState("O", Point2(0, 0), heading=0.0)
PARAMS = LegibilityParams(lambda_sim=1.0, lambda_fov=1.0)

# straight unit-speed line used in several hand examples (w = 5)
LINE = Trajectory([[i, 0.0] for i in range(6)], dt=1.0)


class TestThetaDev:
    def test_straight_ahead(self):
        assert theta_dev(Point2(1, 0), OBS) == pytest.approx(0.0)

    def test_perpendicular(self):
        assert theta_dev(Point2(0, 2), OBS) == pytest.approx(math.pi / 2)

    def test_three_quarters(self):
        # arccos(-1/sqrt(2)) = 3*pi/4
        assert theta_dev(Point2(-1, 1), OBS) == pytest.approx(3 * math.pi / 4)

    def test_coincident_point_convention(self):
        assert theta_dev(Point2(0, 0), OBS) == 0.0

    def test_range_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            obs = ObserverState("O", Point2(*rng.uniform(-3, 3, 2)), rng.uniform(-4, 4))
            angle = theta_dev(Point2(*rng.uniform(-3, 3, 2)), obs)
            assert 0.0 <= angle <= math.pi


class TestVisibility:
    def test_center_of_view(self):
        assert visibility(Point2(1, 0), OBS) is True

    def test_behind(self):
        assert visibility(Point2(-1, 0), OBS) is False

    def test_boundary_inclusive(self):
        # theta_dev of (1, sqrt(3)) is exactly fov/2 = 60 degrees.
        assert visibility(Point2(1, math.sqrt(3)), OBS) is True

    def test_agrees_with_atan2_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(2000):
            obs = ObserverState(
                "O", Point2(*rng.uniform(-3, 3, 2)), rng.uniform(-4, 4),
                fov=rng.uniform(0.2, 2 * math.pi),
            )
            q = Point2(*rng.uniform(-3, 3, 2))
            brute = abs(
                (math.atan2(q.y - obs.position.y, q.x - obs.position.x) - obs.heading + math.pi)
                % (2 * math.pi) - math.pi
            )
            assert theta_dev(q, obs) == pytest.approx(brute, abs=1e-9)
            assert visibility(q, obs) == (brute <= obs.fov / 2)


class TestHWeight:
    def test_equidistant(self):
        assert h_weight(Point2(0, 1), Point2(1, 0), Point2(-1, 0)) == pytest.approx(1.0)

    def test_ratio_two(self):
        assert h_weight(Point2(0, 0), Point2(2, 0), Point2(1, 0)) == pytest.approx(2.0)

    def test_clamped_at_unintended_goal(self):
        g = Point2(1, 1)
        assert h_weight(g, Point2(5, 5), g, h_max=3.0) == 3.0

    def test_target_case_is_one(self):
        g_star = Point2(2, 2)
        assert h_weight(Point2(7, -1), g_star, g_star) == 1.0

    def test_zero_at_target_position(self):
        assert h_weight(Point2(2, 0), Point2(2, 0), Point2(5, 5)) == 0.0


def _goal(gid="G", x=10.0, y=0.0, target=False):
    return Goal(gid, Point2(x, y), is_target=target)


class TestWeightedSimilarity:
    def test_identical_straight_lines(self):
        # v = 1 everywhere, h = 1 (target), six unit cosine terms.
        obs = ObserverState("O", Point2(-1, 0), heading=0.0)
        g_star = Point2(10, 0)
        value = weighted_similarity(LINE, LINE, _goal(target=True), g_star, obs, PARAMS)
        assert value == pytest.approx(6.0)

    def test_perpendicular_velocities(self):
        other = Trajectory([[0, i] for i in range(6)], dt=1.0)
        obs = ObserverState("O", Point2(-1, 0), heading=0.0)
        value = weighted_similarity(LINE, other, _goal(target=True), Point2(10, 0), obs, PARAMS)
        assert value == pytest.approx(0.0)

    def test_stationary_candidate_is_zero(self):
        still = Trajectory([[0, 0]] * 6, dt=1.0)
        obs = ObserverState("O", Point2(-1, 0), heading=0.0)
        value = weighted_similarity(still, LINE, _goal(target=True), Point2(10, 0), obs, PARAMS)
        assert value == 0.0

    def test_mismatched_lengths_rejected(self):
        short = Trajectory([[0, 0], [1, 0]], dt=1.0)
        with pytest.raises(ValueError):
            weighted_similarity(LINE, short, _goal(), Point2(10, 0), OBS, PARAMS)

    def test_self_similarity_counts_visible_waypoints(self):
        # Against itself with h = 1 (target), the value is the number of
        # waypoints whose velocity clears eps_v and which the observer sees.
        rng = np.random.default_rng(12)
        for _ in range(100):
            pts = np.cumsum(rng.uniform(0.1, 0.8, size=(6, 2)), axis=0)
            traj = Trajectory(pts, 0.5)
            obs = ObserverState("O", Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-4, 4))
            goal = Goal("G", Point2(9, 9), is_target=True)
            value = weighted_similarity(traj, traj, goal, goal.position, obs, PARAMS)
            visible = sum(visibility(Point2(*p), obs) for p in pts)
            assert value >= 0.0
            assert value == pytest.approx(visible, rel=1e-12)

    def test_bound_and_cosine_range(self):
        rng = np.random.default_rng(3)
        params = LegibilityParams(h_max=3.0)
        for _ in range(500):
            a = np.cumsum(rng.normal(size=(7, 2)), axis=0)
            b = np.cumsum(rng.normal(size=(7, 2)), axis=0)
            obs = ObserverState("O", Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-4, 4))
            goal = Goal("G", Point2(*rng.uniform(-4, 4, 2)))
            g_star = Point2(*rng.uniform(-4, 4, 2))
            value = weighted_similarity(
                Trajectory(a, 0.5), Trajectory(b, 0.5), goal, g_star, obs, params
            )
            assert abs(value) <= 7 * params.h_max + 1e-9


def reference_similarity(cand_wp, cand_vel, pred_vel, goal_xy, g_star_xy, observer, params):
    """Similarity of a candidate batch to one goal's prediction, (T, 2)."""
    cos = masked_cosines(cand_vel, pred_vel, params.eps_v)
    vis = visibility_points(cand_wp, observer)
    h = reference_h(cand_wp, g_star_xy, goal_xy, params.h_max)
    return np.sum(vis * h * cos, axis=-1)


@pytest.mark.parametrize("observer", [OBS, ObserverState("O", Point2(1, -2), 2.0), None])
def test_similarity_batch_matches_one_goal_at_a_time(observer):
    rng = np.random.default_rng(21)
    cand_wp = np.cumsum(rng.normal(scale=0.4, size=(40, 9, 2)), axis=1)
    cand_wp[:5] = cand_wp[:5, :1]  # stationary rows: every cosine masked
    steps = np.diff(cand_wp, axis=1)
    cand_vel = np.concatenate([steps, steps[:, -1:]], axis=1)
    pred_vel = rng.normal(size=(3, 9, 2))
    pred_vel[2, 3] = 0.0
    goals_xy = rng.uniform(-4, 4, size=(3, 2))
    g_star_xy = goals_xy[1]  # h is exactly 1 for this goal
    batch = weighted_similarity_batch(
        cand_wp, cand_vel, pred_vel, goals_xy, g_star_xy,
        visibility_points(cand_wp, observer), PARAMS,
    )
    assert batch.shape == (3, 40)
    for g in range(3):
        assert np.array_equal(batch[g], reference_similarity(
            cand_wp, cand_vel, pred_vel[g], goals_xy[g], g_star_xy, observer, PARAMS
        ))


def reference_h(points, g_star_xy, g_xy, h_max):
    """h for one goal as it was computed goal by goal: exactly 1 when the goal
    is the target's position, the clamped distance ratio otherwise."""
    if np.array_equal(g_star_xy, g_xy):
        return np.ones(points.shape[:-1])
    x, y = points[..., 0], points[..., 1]
    d_star = _hypot2(x - g_star_xy[0], y - g_star_xy[1])
    d_g = _hypot2(x - g_xy[0], y - g_xy[1])
    ratio = np.where(d_g == 0.0, h_max, d_star / np.where(d_g == 0.0, 1.0, d_g))
    return np.minimum(ratio, h_max)


@pytest.mark.parametrize("goal_count", [1, 2, 3])
def test_similarity_kernels_equal_a_per_goal_loop_bit_for_bit(goal_count):
    # The batched kernels against one goal at a time, the signed cost summed
    # in goal-id order from +0.0. The lone target of G = 1 negates the
    # all-zero sums of stationary rows, which must still come out +0.0.
    target_xy, other_xy = np.array([3.0, 1.0]), np.array([3.0, -1.5])
    target = Goal("T", Point2(*target_xy), is_target=True)
    other = Goal("A", Point2(*other_xy))
    on_target = Goal("D", Point2(*target_xy))  # not the target, but h = 1 everywhere
    goals = {1: [target], 2: [other, target], 3: [on_target, target, other]}[goal_count]
    goals_xy = np.array([goal.position.as_array() for goal in goals])
    rng = np.random.default_rng(goal_count)
    cand_wp = np.cumsum(rng.normal(scale=0.4, size=(30, 9, 2)), axis=1)
    cand_wp[:4] = cand_wp[:4, :1]  # stationary rows: every cosine masked
    cand_wp[5, 3] = other_xy  # on an unintended goal: h = h_max
    cand_wp[6, 4] = target_xy
    assert reference_h(cand_wp, target_xy, other_xy, PARAMS.h_max)[5, 3] == PARAMS.h_max
    cand_vel = velocity_points(cand_wp, 0.4)
    pred_vel = rng.normal(size=(goal_count, 9, 2))
    visible = visibility_points(cand_wp, ObserverState("O", Point2(-1, 0), heading=0.3))
    assert 0 < visible.sum() < visible.size
    expected = [
        np.sum(
            visible * reference_h(cand_wp, target_xy, g_xy, PARAMS.h_max)
            * masked_cosines(cand_vel, pred, PARAMS.eps_v),
            axis=-1,
        )
        for g_xy, pred in zip(goals_xy, pred_vel)
    ]
    expected_signed = np.zeros(30)
    for goal, sim in sorted(zip(goals, expected), key=lambda pair: pair[0].id):
        expected_signed += -sim if goal.is_target else sim
    batch = weighted_similarity_batch(
        cand_wp, cand_vel, pred_vel, goals_xy, target_xy, visible, PARAMS
    )
    signed = _LegibleCycle.of_goals(pred_vel, goals).signed_similarity(
        *_candidate_planes(cand_wp, cand_vel, target_xy), visible, PARAMS
    )
    for got, want in [*zip(batch, expected), (signed, expected_signed)]:
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_masked_cosines_bounds():
    rng = np.random.default_rng(4)
    va = rng.normal(size=(200, 9, 2))
    vb = rng.normal(size=(200, 9, 2))
    cos = masked_cosines(va, vb, eps_v=1e-6)
    assert np.all(cos <= 1.0 + 1e-12) and np.all(cos >= -1.0 - 1e-12)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(5)
    va = rng.normal(size=(50, 9, 2))
    vb = rng.normal(size=(50, 9, 2))
    base = masked_cosines(va, vb, eps_v=1e-9)
    for scale in (0.5, 3.0, 17.0):
        assert np.allclose(masked_cosines(va * scale, vb * scale, 1e-9), base, atol=1e-9)


class TestSimCost:
    def test_candidate_matching_target_prediction(self):
        # Candidate runs along the bisector between two mirrored goals, so
        # h = 1 for the unintended term. It matches the target prediction
        # exactly (six unit cosines) and is perpendicular to the unintended
        # one (zero cosines): 0 - 6 = -6.
        g1 = Goal("G1", Point2(10, 0), is_target=True)
        g2 = Goal("G2", Point2(-10, 0))
        obs = ObserverState("O", Point2(0, -1), heading=math.pi / 2, fov=2 * math.pi)
        bisector = Trajectory([[0, i] for i in range(6)], dt=1.0)
        sideways = Trajectory([[-i, 0] for i in range(6)], dt=1.0)
        predictions = {"G1": bisector, "G2": sideways}
        value = sim_cost(bisector, predictions, (g1, g2), obs, PARAMS)
        assert value == pytest.approx(-6.0)

    def test_coinciding_predictions_cancel(self):
        # Both predictions identical to the candidate and h pinned to 1 by
        # mirrored goals: 6 - 6 = 0.
        g1 = Goal("G1", Point2(10, 0), is_target=True)
        g2 = Goal("G2", Point2(-10, 0))
        obs = ObserverState("O", Point2(0, -1), heading=math.pi / 2, fov=2 * math.pi)
        bisector = Trajectory([[0, i] for i in range(6)], dt=1.0)
        predictions = {"G1": bisector, "G2": bisector}
        value = sim_cost(bisector, predictions, (g1, g2), obs, PARAMS)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_single_goal_rewards_predictability(self):
        g1 = Goal("G1", Point2(10, 0), is_target=True)
        obs = ObserverState("O", Point2(-1, 0), heading=0.0, fov=2 * math.pi)
        value = sim_cost(LINE, {"G1": LINE}, (g1,), obs, PARAMS)
        assert value == pytest.approx(-6.0)

    def test_matches_signed_sum_of_per_goal_similarities(self):
        rng = np.random.default_rng(8)
        goals = (
            Goal("G1", Point2(3, 1)),
            Goal("G2", Point2(-2, 4), is_target=True),
            Goal("G3", Point2(1, -3)),
        )
        for observer in (OBS, None):
            for _ in range(20):
                candidate = random_trajectory(rng)
                predictions = {goal.id: random_trajectory(rng) for goal in goals}
                expected = 0.0
                for goal in goals:
                    sim = weighted_similarity(
                        candidate, predictions[goal.id], goal, goals[1].position, observer,
                        PARAMS,
                    )
                    expected += -sim if goal.is_target else sim
                assert sim_cost(candidate, predictions, goals, observer, PARAMS) == expected

    def test_incompatible_prediction_rejected(self):
        g1 = Goal("G1", Point2(10, 0), is_target=True)
        g2 = Goal("G2", Point2(0, 10))
        short = Trajectory([[0, 0], [1, 0]], dt=1.0)
        slow = Trajectory(LINE.waypoints, dt=0.5)
        with pytest.raises(ValueError, match="must share waypoint count: 6 vs 2"):
            sim_cost(LINE, {"G1": LINE, "G2": short}, (g1, g2), OBS, PARAMS)
        with pytest.raises(ValueError, match="must share dt: 1.0 vs 0.5"):
            sim_cost(LINE, {"G1": LINE, "G2": slow}, (g1, g2), OBS, PARAMS)
        with pytest.raises(ValueError, match="exactly one target, found 0"):
            sim_cost(LINE, {"G2": LINE}, (g2,), OBS, PARAMS)

    def test_missing_prediction_rejected(self):
        g1 = Goal("G1", Point2(10, 0), is_target=True)
        g2 = Goal("G2", Point2(0, 10))
        with pytest.raises(ValueError):
            sim_cost(LINE, {"G1": LINE}, (g1, g2), OBS, PARAMS)


class TestFovCost:
    def test_dead_ahead_is_zero(self):
        obs = ObserverState("O", Point2(-5, 0), heading=0.0)
        assert fov_cost(LINE, obs) == pytest.approx(0.0)

    def test_boundary_waypoints(self):
        # All six waypoints at theta_dev = fov/2: 6 * tanh(1) = 4.569564935734589.
        obs = ObserverState("O", Point2(0, 0), heading=0.0, fov=math.pi / 2)
        ray = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        pts = np.outer(np.arange(1, 7), ray)
        value = fov_cost(Trajectory(pts, 1.0), obs)
        assert value == pytest.approx(6 * math.tanh(1.0), rel=1e-9)
        assert value == pytest.approx(4.569564935734589, rel=1e-9)

    def test_single_segment_mixed(self):
        # One waypoint dead ahead, one on the boundary: tanh(1).
        obs = ObserverState("O", Point2(0, 0), heading=0.0, fov=math.pi / 2)
        pts = [[1.0, 0.0], [math.cos(math.pi / 4), math.sin(math.pi / 4)]]
        assert fov_cost(Trajectory(pts, 1.0), obs) == pytest.approx(math.tanh(1.0), rel=1e-9)

    def test_range_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            pts = rng.uniform(-5, 5, size=(8, 2))
            obs = ObserverState(
                "O", Point2(*rng.uniform(-5, 5, 2)), rng.uniform(-4, 4),
                fov=rng.uniform(0.5, 2 * math.pi),
            )
            value = fov_cost(Trajectory(pts, 0.4), obs)
            assert 0.0 <= value < 8.0

    def test_monotone_in_deviation(self):
        # Nudging a waypoint further from the view axis never lowers the cost.
        obs = ObserverState("O", Point2(0, 0), heading=0.0)
        pts = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]])
        for i in range(4):
            previous = fov_cost(Trajectory(pts, 1.0), obs)
            for dy in (0.3, 0.9, 2.0):
                nudged = pts.copy()
                nudged[i, 1] += dy
                value = fov_cost(Trajectory(nudged, 1.0), obs)
                assert value >= previous - 1e-12
                previous = value


class TestCombinedCost:
    def _world(self):
        robot = make_robot(v_max=1.5)
        g1 = Goal("G1", Point2(6, 0), is_target=True)
        g2 = Goal("G2", Point2(0, 6))
        obs = ObserverState("O", Point2(-1, 0), heading=0.0, fov=2 * math.pi)
        predictions = {"G1": LINE, "G2": Trajectory([[0, i] for i in range(6)], dt=1.0)}
        return robot, (g1, g2), obs, predictions

    def test_lambda_zero_reduces_to_task_cost(self):
        robot, goals, obs, predictions = self._world()
        params = LegibilityParams(lambda_sim=0.0, lambda_fov=0.0)
        b = legibility_aware_cost(
            LINE, goals[0].position, predictions, goals, obs, [], robot, UNIT_WEIGHTS, params
        )
        t = task_cost(LINE, goals[0].position, [], robot, UNIT_WEIGHTS)
        assert b.total == t.total

    def test_collision_sentinel_dominates(self):
        from legiplan import CircleObstacle

        robot, goals, obs, predictions = self._world()
        obstacles = [CircleObstacle(Point2(3, 0), 0.5)]
        b = legibility_aware_cost(
            LINE, goals[0].position, predictions, goals, obs, obstacles, robot,
            UNIT_WEIGHTS, PARAMS,
        )
        assert b.collided and b.total == COLLISION_COST
        assert b.sim_term == 0.0 and b.fov_term == 0.0

    def test_goal_star_must_be_the_target(self):
        robot, goals, obs, predictions = self._world()
        with pytest.raises(ValueError, match="goal_star"):
            legibility_aware_cost(
                LINE, goals[1].position, predictions, goals, obs, [], robot, UNIT_WEIGHTS, PARAMS
            )

    def test_combined_hand_example(self):
        # task total 1 (three-waypoint example), sim -6, fov 6*tanh(1):
        # total = 1 - 6 + 4.569564935734589 = -0.4304350642654109.
        robot = make_robot(v_max=1.5)
        traj = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
        g1 = Goal("G1", Point2(2, 0), is_target=True)
        predictions = {"G1": traj}
        obs = ObserverState("O", Point2(0, 0), heading=0.0, fov=math.pi / 2)
        # place every waypoint on the FOV boundary by aiming the observer
        # 45 degrees off the motion axis
        obs = dataclasses.replace(obs, heading=math.pi / 4)
        b = legibility_aware_cost(
            traj, g1.position, predictions, (g1,), obs, [], robot, UNIT_WEIGHTS, PARAMS
        )
        # sim for single goal: -(v*h*cos summed) = -3; fov: waypoint 0
        # coincides with the observer (theta 0), others at 45 deg boundary.
        expected_sim = -3.0
        expected_fov = 2 * math.tanh(1.0)
        assert b.sim_term == pytest.approx(expected_sim, rel=1e-9)
        assert b.fov_term == pytest.approx(expected_fov, rel=1e-9)
        assert b.total == pytest.approx(1.0 + 1.0 * expected_sim + 1.0 * expected_fov, rel=1e-9)


def test_combined_total_is_lambda_weighted_sum():
    # total = task total + lambda_sim*sim + lambda_fov*fov on random inputs
    rng = np.random.default_rng(13)
    robot = make_robot(v_max=2.0)
    params = LegibilityParams(lambda_sim=2.3, lambda_fov=0.7)
    weights = UNIT_WEIGHTS
    g1 = Goal("G1", Point2(4, 1), is_target=True)
    g2 = Goal("G2", Point2(4, -1))
    for _ in range(100):
        pts = np.cumsum(rng.normal(scale=0.5, size=(7, 2)), axis=0)
        pred = {
            "G1": Trajectory(np.cumsum(rng.normal(size=(7, 2)), axis=0), 0.4),
            "G2": Trajectory(np.cumsum(rng.normal(size=(7, 2)), axis=0), 0.4),
        }
        obs = ObserverState("O", Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-4, 4))
        traj = Trajectory(pts, 0.4)
        b = legibility_aware_cost(
            traj, g1.position, pred, (g1, g2), obs, [], robot, weights, params
        )
        task = task_cost(traj, g1.position, [], robot, weights)
        expected = task.total + params.lambda_sim * b.sim_term + params.lambda_fov * b.fov_term
        assert b.total == pytest.approx(expected, rel=1e-9)


def test_derived_combined_value_from_spec_components():
    # The frozen arithmetic of the component examples: 1 - 6 + 6*tanh(1).
    assert 1.0 - 6.0 + 6 * math.tanh(1.0) == pytest.approx(-0.4304350642654109, abs=1e-12)


def test_argmin_invariance_with_zero_lambdas():
    """With both lambdas zero the candidate ranking equals the task ranking."""
    rng = np.random.default_rng(9)
    robot = make_robot(v_max=2.0)
    g1 = Goal("G1", Point2(4, 1), is_target=True)
    g2 = Goal("G2", Point2(4, -1))
    obs = ObserverState("O", Point2(5, 1), heading=math.pi)
    params = LegibilityParams(lambda_sim=0.0, lambda_fov=0.0)
    pred = {
        "G1": Trajectory(np.cumsum(rng.normal(size=(7, 2)), axis=0), 0.4),
        "G2": Trajectory(np.cumsum(rng.normal(size=(7, 2)), axis=0), 0.4),
    }
    legible_totals, task_totals = [], []
    for _ in range(60):
        pts = np.cumsum(rng.normal(scale=0.5, size=(7, 2)), axis=0)
        traj = Trajectory(pts, 0.4)
        legible_totals.append(
            legibility_aware_cost(
                traj, g1.position, pred, (g1, g2), obs, [], robot, UNIT_WEIGHTS, params
            ).total
        )
        task_totals.append(task_cost(traj, g1.position, [], robot, UNIT_WEIGHTS).total)
    assert np.array_equal(np.argsort(legible_totals), np.argsort(task_totals))


def test_designated_observer_selection():
    from legiplan import designated_observer
    from tests.conftest import make_scenario

    scenario = make_scenario()
    assert designated_observer(scenario).id == "O1"

    attached = make_scenario(
        observers=(
            ObserverState("bystander", Point2(1, 1), 0.0),
            ObserverState("watcher", Point2(2, 2), 0.0, attached_goal="G1"),
        )
    )
    assert designated_observer(attached).id == "watcher"

    unattached = make_scenario(
        observers=(
            ObserverState("first", Point2(1, 1), 0.0),
            ObserverState("second", Point2(2, 2), 0.0),
        )
    )
    assert designated_observer(unattached).id == "first"

    assert designated_observer(make_scenario(observers=())) is None


def test_theta_dev_points_batch_matches_scalar():
    rng = np.random.default_rng(10)
    obs = ObserverState("O", Point2(0.5, -1.0), heading=1.1)
    pts = rng.uniform(-4, 4, size=(50, 2))
    batch = theta_dev_points(pts, obs)
    for p, angle in zip(pts, batch):
        assert theta_dev(Point2(*p), obs) == angle


def test_scalar_observer_apis_equal_the_batch_bit_for_bit():
    # 4,000 points, 40 per observer aimed within 4 ulps of heading +/- fov/2.
    rng = np.random.default_rng(12)
    near_edge = []
    for _ in range(40):
        obs = ObserverState(
            "O", Point2(*rng.uniform(-3, 3, 2)), rng.uniform(-math.pi, math.pi),
            fov=rng.uniform(0.2, 5.5),  # arccos is ill-conditioned near pi
        )
        aim = obs.heading + rng.choice([-1.0, 1.0], 40) * (obs.fov / 2.0)
        aim = aim + rng.integers(-4, 5, 40) * np.spacing(aim)
        edge = obs.position.as_array() + rng.uniform(0.1, 5.0, (40, 1)) * np.stack(
            [np.cos(aim), np.sin(aim)], axis=1
        )
        pts = np.concatenate([rng.uniform(-6, 6, (60, 2)), edge])
        angles = theta_dev_points(pts, obs)
        visible = visibility_points(pts, obs)
        assert np.all(np.abs(angles[60:] - obs.fov / 2.0) < 1e-12)
        for p, angle, seen in zip(pts, angles, visible):
            assert theta_dev(Point2(*p), obs) == angle
            assert visibility(Point2(*p), obs) == bool(seen)
        near_edge.extend(visible[60:])
    # The boundary points fall on both sides of it.
    assert 0 < sum(near_edge) < len(near_edge)


def test_fov_and_visibility_batch_match_scalar():
    rng = np.random.default_rng(11)
    obs = ObserverState("O", Point2(0.5, -1.0), heading=1.1, fov=math.radians(100.0))
    waypoints = rng.uniform(-4, 4, size=(20, 6, 2))
    for traj, cost in zip(waypoints, fov_cost_batch(waypoints, obs)):
        assert fov_cost(Trajectory(traj, 0.4), obs) == pytest.approx(float(cost), abs=1e-12)
    pts = waypoints.reshape(-1, 2)
    for p, visible in zip(pts, visibility_points(pts, obs)):
        assert visibility(Point2(*p), obs) is bool(visible)


def frozen_legible_cost_batch(
    waypoints, dt, pred_velocities, goals, observer, obstacles, robot_radius, w, params
):
    """The legible objective's formulas as they stood before the coordinate-plane
    kernels, on interleaved (..., 2) arrays in C order. Only clearance_points
    is the live kernel."""
    target = next(g for g in goals if g.is_target).position.as_array()
    to_goal = waypoints - target
    dists = _hypot2(to_goal[..., 0], to_goal[..., 1])
    j_goal = dists[:, -1] + dists.mean(axis=1)
    c = clearance_points(waypoints, obstacles) - robot_radius
    collided = np.any(c < 0.0, axis=1)
    j_clr = np.sum((np.maximum(0.0, w.d_safe - c) / w.d_safe) ** 2, axis=1)
    j_app = np.sum(np.maximum(0.0, c[:, :-1] - c[:, 1:]), axis=1) / w.d_safe
    accel = waypoints[:, 2:] - 2.0 * waypoints[:, 1:-1] + waypoints[:, :-2]
    j_sm = np.sum(accel**2, axis=(1, 2)) / dt**4
    diffs = np.diff(waypoints, axis=-2) / dt
    vel = np.concatenate([diffs, diffs[..., -1:, :]], axis=-2)
    speeds = _hypot2(vel[..., 0], vel[..., 1])
    j_sp = np.sum((w.v_pref - speeds) ** 2, axis=1) / w.v_pref**2
    task_total = np.where(collided, COLLISION_COST, (
        w.w_goal * j_goal + w.w_clearance * j_clr + w.w_approach * j_app
        + w.w_smooth * j_sm + w.w_speed * j_sp
    ))
    if observer is None:
        visible, fov = np.ones(waypoints.shape[:2]), np.zeros(waypoints.shape[0])
    else:
        rel = waypoints - observer.position.as_array()
        norm = _hypot2(rel[..., 0], rel[..., 1])
        gaze = np.array([math.cos(observer.heading), math.sin(observer.heading)])
        rows = np.concatenate((rel.reshape(-1, 2), gaze[np.newaxis]))
        cosang = (rows @ gaze)[:-1].reshape(norm.shape) / np.where(norm == 0.0, 1.0, norm)
        angles = np.where(norm == 0.0, 0.0, np.arccos(np.clip(cosang, -1.0, 1.0)))
        half_fov = observer.fov / 2.0
        visible = (angles <= half_fov).astype(float)
        fov = np.sum(np.tanh(angles / half_fov), axis=-1)
    a, b = vel[np.newaxis], pred_velocities[:, np.newaxis]
    na, nb = _hypot2(a[..., 0], a[..., 1]), _hypot2(b[..., 0], b[..., 1])
    usable = (na >= params.eps_v) & (nb >= params.eps_v)
    dot = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    cos = np.where(usable, dot / np.where(usable, na * nb, 1.0), 0.0)  # (G, n, T)
    goals_xy = np.array([goal.position.as_array() for goal in goals])[:, np.newaxis, np.newaxis]
    gx, gy = goals_xy[..., 0], goals_xy[..., 1]
    x, y = waypoints[..., 0], waypoints[..., 1]
    d_star, d_g = _hypot2(x - target[0], y - target[1]), _hypot2(x - gx, y - gy)
    ratio = np.where(d_g == 0.0, params.h_max, d_star / np.where(d_g == 0.0, 1.0, d_g))
    on_target = (gx == target[0]) & (gy == target[1])
    h = np.where(on_target, 1.0, np.minimum(ratio, params.h_max))
    signs = np.array([-1.0 if goal.is_target else 1.0 for goal in goals])
    sims = np.sum(visible * h * cos, axis=-1)
    sim = np.add.reduce(signs[:, np.newaxis] * sims, axis=0, initial=0.0)
    total = task_total + params.lambda_sim * sim + params.lambda_fov * fov
    return {
        "goal": j_goal, "clearance": j_clr, "approach": j_app, "smooth": j_sm, "speed": j_sp,
        "total": np.where(collided, COLLISION_COST, total), "collided": collided,
        "sim": sim, "fov": fov,
    }


@pytest.mark.parametrize("observed", [True, False], ids=["observer", "no_observer"])
@pytest.mark.parametrize("goal_count", [1, 2, 3])
def test_legible_objective_equals_the_frozen_formulas_bit_for_bit(goal_count, observed):
    target = Goal("T", Point2(4.0, 1.0), is_target=True)
    other = Goal("A", Point2(4.0, -1.5))
    on_target = Goal("D", Point2(4.0, 1.0))  # not the target, but h = 1 everywhere
    goals = {1: [target], 2: [other, target], 3: [on_target, target, other]}[goal_count]
    observer = ObserverState("O", Point2(1.5, 2.0), heading=-0.8) if observed else None
    obstacles = (
        CircleObstacle(Point2(2.0, -0.3), 0.35), RectObstacle(Point2(0.5, 1.2), Point2(1.2, 1.6)),
    )
    weights = TaskCostWeights(w_approach=0.7, w_smooth=0.13, v_pref=0.9)
    params = LegibilityParams(lambda_sim=1.3, lambda_fov=0.6)
    rng = np.random.default_rng(goal_count)
    pred_velocities = rng.normal(scale=0.6, size=(goal_count, 12, 2))
    pred_velocities[0, 4] = 0.0  # a still prediction step
    objective = legible_objective(
        0.4, pred_velocities, goals, observer, obstacles, 0.25, weights, params
    )
    # The objective sums the similarity in goal-id order; the frozen formulas
    # sum in list order, so they are given the goals in id order.
    by_id = sorted(range(goal_count), key=lambda i: goals[i].id)
    id_goals, id_pred_velocities = [goals[i] for i in by_id], pred_velocities[by_id]
    for _ in range(20):
        batch = np.cumsum(rng.normal(scale=0.3, size=(48, 12, 2)), axis=1)
        batch[:3, 6] = (2.0, -0.3)  # collided rows
        batch[3:6] = batch[3:6, :1]  # stationary rows: every cosine masked
        batch[6, 5:8] = batch[6, 5]  # zero-speed steps
        batch[7, 4] = (1.5, 2.0)  # on the observer
        batch[8, 9] = other.position.as_array()  # on a non-target goal: h = h_max
        batch[9, 10] = target.position.as_array()
        expected = frozen_legible_cost_batch(
            batch, 0.4, id_pred_velocities, id_goals, observer, obstacles, 0.25, weights, params
        )
        assert np.all(expected["collided"][:3])
        got = objective(batch)
        assert sorted(got) == sorted(expected)
        for name, values in expected.items():
            assert np.array_equal(got[name], values), name
            assert np.array_equal(np.signbit(got[name]), np.signbit(values)), name
