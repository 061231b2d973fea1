"""Synthetic-observer posterior, correctness and legibility score."""
from __future__ import annotations

import math

import numpy as np
import pytest

from legiplan import (
    Goal,
    Point2,
    PosteriorModel,
    Trajectory,
    correctness,
    evaluate_trajectory,
    goal_posterior,
    legibility_score,
)
from tests.conftest import make_scenario

UNIFORM = PosteriorModel()


class TestGoalPosterior:
    def test_mirror_symmetry(self):
        prefix = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
        goals = (Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(4, -2)))
        post = goal_posterior(prefix, goals, Point2(0, 0), UNIFORM)
        assert post["A"] == pytest.approx(0.5, abs=1e-9)
        assert post["B"] == pytest.approx(0.5, abs=1e-9)

    def test_goal_behind_is_less_likely(self):
        prefix = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
        goals = (Goal("ahead", Point2(5, 0), is_target=True), Goal("behind", Point2(-3, 0)))
        post = goal_posterior(prefix, goals, Point2(0, 0), UNIFORM)
        assert post["ahead"] > 0.5

    def test_derived_two_goal_value(self):
        # S=(0,0) -> Q=(1,0); G1=(2,0), G2=(1,2); beta=1, uniform prior:
        # P(G1) = 1/(1 + e^{-(3 - sqrt(5))}) = 0.6822068090151244 (frozen
        # from an independent arithmetic check of the posterior formula).
        prefix = Trajectory([[0, 0], [1, 0]], dt=1.0)
        goals = (Goal("G1", Point2(2, 0), is_target=True), Goal("G2", Point2(1, 2)))
        post = goal_posterior(prefix, goals, Point2(0, 0), UNIFORM)
        assert post["G1"] == pytest.approx(0.6822068090151244, abs=1e-12)
        assert post["G1"] == pytest.approx(
            1.0 / (1.0 + math.exp(-(3.0 - math.sqrt(5.0)))), abs=1e-12
        )

    def test_zero_prior_goal_does_not_underflow(self):
        # The path heads to A but the prior rules A out. A's exponent exceeds
        # B's by 800, so shifting by it would underflow B's weight to 0.
        prefix = Trajectory([[0, 0], [4, 0]], dt=1.0)
        goals = (Goal("A", Point2(5, 0), is_target=True), Goal("B", Point2(-5, 0)))
        model = PosteriorModel(beta=100.0, prior={"A": 0.0, "B": 1.0})
        post = goal_posterior(prefix, goals, Point2(0, 0), model)
        assert post == {"A": 0.0, "B": 1.0}

    def test_overflowing_beta_takes_the_limit(self):
        # beta * cost overflows to inf for every goal, so every exponent is
        # -inf; the posterior is the beta -> inf limit, not NaN: the prior's
        # mass on the cheapest allowed goals, split by the prior on a tie.
        prefix = Trajectory([[0, 0], [1, 3], [2, -3], [3, 0]], dt=1.0)
        start = Point2(0, 0)
        huge = PosteriorModel(beta=1e308)
        apart = (Goal("A", Point2(10, 0), is_target=True), Goal("B", Point2(10, 1)))
        assert goal_posterior(prefix, apart, start, huge) == {"A": 1.0, "B": 0.0}
        ruled_out = PosteriorModel(beta=1e308, prior={"A": 0.0, "B": 1.0})
        assert goal_posterior(prefix, apart, start, ruled_out) == {"A": 0.0, "B": 1.0}
        mirrored = (Goal("A", Point2(10, 1), is_target=True), Goal("B", Point2(10, -1)))
        skewed = PosteriorModel(beta=1e308, prior={"A": 0.25, "B": 0.75})
        assert goal_posterior(prefix, mirrored, start, skewed) == {"A": 0.25, "B": 0.75}

    @pytest.mark.parametrize("beta", [0.0, 1.0, 37.5, 1e300])
    def test_non_overflowing_beta_keeps_its_bits(self, beta):
        # The formula before the overflow limit existed, written out.
        rng = np.random.default_rng(11)
        goals = (
            Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(-4, -2)),
            Goal("C", Point2(1, -5)),
        )
        model = PosteriorModel(beta=beta, prior={"A": 0.5, "B": 0.0, "C": 0.5})
        for _ in range(20):
            pts = np.cumsum(rng.normal(scale=0.5, size=(5, 2)), axis=0)
            prefix, start = Trajectory(pts, dt=1.0), Point2(*pts[0])
            q, s = pts[-1], pts[0]
            exponents = np.array([
                -beta * (prefix.arc_length() + float(np.linalg.norm(q - g.position.as_array()))
                         - float(np.linalg.norm(s - g.position.as_array())))
                if model.prior[g.id] > 0 else -np.inf
                for g in goals
            ])
            weights = np.array([model.prior[g.id] for g in goals])
            weights = weights * np.exp(exponents - exponents.max())
            weights /= weights.sum()
            post = goal_posterior(prefix, goals, start, model)
            assert list(post.values()) == [float(w) for w in weights]

    def test_normalization_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            pts = np.cumsum(rng.normal(size=(4, 2)), axis=0)
            goals = tuple(
                Goal(f"g{i}", Point2(*rng.uniform(-5, 5, 2)), is_target=(i == 0))
                for i in range(3)
            )
            post = goal_posterior(Trajectory(pts, 0.4), goals, Point2(*pts[0]), UNIFORM)
            assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)
            assert all(p >= 0 for p in post.values())

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            pts = np.cumsum(rng.normal(size=(5, 2)), axis=0)
            goals_xy = rng.uniform(-4, 4, size=(3, 2))
            angle = rng.uniform(0, 2 * math.pi)
            shift = rng.uniform(-8, 8, size=2)
            rot = np.array(
                [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
            )
            goals = tuple(
                Goal(f"g{i}", Point2(*g), is_target=(i == 0)) for i, g in enumerate(goals_xy)
            )
            moved_goals = tuple(
                Goal(f"g{i}", Point2(*(g @ rot.T + shift)), is_target=(i == 0))
                for i, g in enumerate(goals_xy)
            )
            p0 = goal_posterior(Trajectory(pts, 0.4), goals, Point2(*pts[0]), UNIFORM)
            p1 = goal_posterior(
                Trajectory(pts @ rot.T + shift, 0.4), moved_goals,
                Point2(*(pts[0] @ rot.T + shift)), UNIFORM,
            )
            for k in p0:
                assert p1[k] == pytest.approx(p0[k], abs=1e-9)

    def test_beta_zero_returns_prior(self):
        prefix = Trajectory([[0, 0], [3, 1]], dt=1.0)
        goals = (Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(-4, -2)))
        model = PosteriorModel(beta=0.0, prior={"A": 0.7, "B": 0.3})
        post = goal_posterior(prefix, goals, Point2(0, 0), model)
        assert post["A"] == pytest.approx(0.7, abs=1e-15)
        assert post["B"] == pytest.approx(0.3, abs=1e-15)

    def test_zero_length_prefix_returns_prior(self):
        prefix = Trajectory([[1, 1], [1, 1]], dt=1.0)
        goals = (Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(-4, -2)))
        post = goal_posterior(prefix, goals, Point2(1, 1), UNIFORM)
        assert post["A"] == pytest.approx(0.5, abs=1e-12)


class TestPosteriorModel:
    def test_prior_must_cover_all_goals(self):
        prefix = Trajectory([[0, 0], [1, 0]], dt=1.0)
        goals = (Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(-4, -2)))
        model = PosteriorModel(prior={"A": 1.0})
        with pytest.raises(ValueError):
            goal_posterior(prefix, goals, Point2(0, 0), model)

    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PosteriorModel(prior={"A": 0.6, "B": 0.6})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_non_finite_prior_rejected(self, bad):
        # NaN slips past both a "< 0" test and the sum-to-one tolerance.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            PosteriorModel(prior={"G1": bad, "G2": 1.0})

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            PosteriorModel(beta=-0.5)


class TestCorrectness:
    def test_certain(self):
        assert correctness({"A": 1.0, "B": 0.0}, "A") == 1.0

    def test_uniform(self):
        assert correctness({"A": 0.5, "B": 0.5}, "A") == 0.5

    def test_derived_value_carried(self):
        prefix = Trajectory([[0, 0], [1, 0]], dt=1.0)
        goals = (Goal("G1", Point2(2, 0), is_target=True), Goal("G2", Point2(1, 2)))
        post = goal_posterior(prefix, goals, Point2(0, 0), UNIFORM)
        assert correctness(post, "G1") == pytest.approx(0.6822068090151244, abs=1e-12)

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError):
            correctness({"A": 1.0}, "B")


class TestLegibilityScore:
    def test_unanimous(self):
        assert legibility_score([1.0, 1.0, 1.0]) == pytest.approx(1.0)

    def test_zero(self):
        assert legibility_score([0.0, 0.0, 0.0]) == pytest.approx(0.0)

    def test_hand_example_nine_elevenths(self):
        # (1 + 1/2) / (1 + 1/2 + 1/3) = 9/11
        assert legibility_score([1.0, 1.0, 0.0]) == pytest.approx(9.0 / 11.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            legibility_score([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            legibility_score([0.5, 1.2])

    def test_monotone_and_bounded_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            c = rng.uniform(0, 1, size=3)
            score = legibility_score(c.tolist())
            assert min(c) - 1e-12 <= score <= max(c) + 1e-12
            k = rng.integers(0, 3)
            bumped = c.copy()
            bumped[k] = min(1.0, bumped[k] + rng.uniform(0, 1 - bumped[k] + 1e-12))
            assert legibility_score(bumped.tolist()) >= score - 1e-12

    def test_weights_strictly_decreasing(self):
        # bumping an earlier partial helps more than the same bump later
        base = [0.4, 0.4, 0.4]
        bumps = []
        for k in range(3):
            c = base.copy()
            c[k] += 0.3
            bumps.append(legibility_score(c) - legibility_score(base))
        assert bumps[0] > bumps[1] > bumps[2]


class TestEvaluateTrajectory:
    def test_single_goal_is_certain(self):
        scenario = make_scenario(
            goals=(Goal("G", Point2(3, 0), is_target=True),), observers=(), obstacles=()
        )
        traj = Trajectory([[0, 0], [1, 0.2], [2, -0.1], [3, 0]], dt=0.4)
        report = evaluate_trajectory(traj, scenario)
        assert all(c == pytest.approx(1.0) for c in report.correctness)
        assert report.score == pytest.approx(1.0)

    def test_mirror_symmetric_path_scores_half(self):
        scenario = make_scenario(
            goals=(Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(4, -2))),
            observers=(),
            obstacles=(),
        )
        traj = Trajectory([[x, 0.0] for x in np.linspace(0, 3, 10)], dt=0.4)
        report = evaluate_trajectory(traj, scenario)
        assert all(c == pytest.approx(0.5, abs=1e-9) for c in report.correctness)
        assert report.score == pytest.approx(0.5, abs=1e-9)

    def test_score_between_min_and_max_correctness(self):
        scenario = make_scenario()
        rng = np.random.default_rng(6)
        for _ in range(50):
            pts = np.cumsum(rng.normal(scale=0.5, size=(12, 2)), axis=0)
            report = evaluate_trajectory(Trajectory(pts, 0.4), scenario)
            assert min(report.correctness) - 1e-12 <= report.score
            assert report.score <= max(report.correctness) + 1e-12

    def test_custom_fractions(self):
        scenario = make_scenario()
        traj = Trajectory([[x, 0.0] for x in np.linspace(0, 3, 10)], dt=0.4)
        report = evaluate_trajectory(traj, scenario, fractions=(0.1, 0.9))
        assert report.partial_fractions == (0.1, 0.9)
        assert len(report.correctness) == 2

    def test_mask_fov_changes_hidden_prefix(self):
        # L-shaped path whose vertical leg is outside the observer's FOV:
        # the masked observer sees a different (shorter) polyline.
        from legiplan import ObserverState

        scenario = make_scenario(
            goals=(Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(4, -2))),
            observers=(
                ObserverState("O", Point2(2.0, 2.5), heading=0.0, fov=math.pi / 3,
                              attached_goal="A"),
            ),
            obstacles=(),
        )
        up = [[0.0, y] for y in np.linspace(0, 2, 6)]
        across = [[x, 2.0] for x in np.linspace(0.5, 4, 8)]
        traj = Trajectory(np.array(up + across), dt=0.4)
        plain = evaluate_trajectory(traj, scenario, mask_fov=False)
        masked = evaluate_trajectory(traj, scenario, mask_fov=True)
        assert masked.correctness != plain.correctness

    @pytest.mark.parametrize("mask_fov", [False, True])
    def test_report_dict_keeps_its_bytes(self, mask_fov):
        import json

        scenario = make_scenario()
        traj = Trajectory([[x, 0.3 * x] for x in np.linspace(0, 4, 12)], dt=0.4)
        report = evaluate_trajectory(traj, scenario, mask_fov=mask_fov)
        # The report's key list as it was written out by hand before to_dict
        # serialized the dataclass fields.
        old = {
            "partial_fractions": list(report.partial_fractions),
            "posteriors": [dict(p) for p in report.posteriors],
            "correctness": list(report.correctness),
            "argmax_correct": list(report.argmax_correct),
            "score": report.score,
            "mode": report.mode,
        }
        assert list(report.to_dict()) == list(old)
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(old, sort_keys=True)

    def test_report_serializes(self):
        import json

        scenario = make_scenario()
        traj = Trajectory([[x, 0.1 * x] for x in np.linspace(0, 3, 8)], dt=0.4)
        report = evaluate_trajectory(traj, scenario)
        payload = json.dumps(report.to_dict())
        assert "correctness" in payload and "argmax_correct" in payload
