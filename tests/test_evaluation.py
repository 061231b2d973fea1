"""Synthetic-observer posterior, correctness and legibility score."""
from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest

import legiplan.evaluation as evaluation_module
import legiplan.legibility as legibility_module
from legiplan import (
    Goal,
    ObserverState,
    Point2,
    PosteriorModel,
    Trajectory,
    arc_length_prefix,
    correctness,
    evaluate_trajectory,
    goal_posterior,
    legibility_score,
)
from legiplan.evaluation import DEFAULT_FRACTIONS, posterior_batch
from legiplan.legibility import designated_observer, visibility_points
from legiplan.model import COORD_LIMIT, prefix_points
from tests.conftest import make_scenario

UNIFORM = PosteriorModel()


def _distance(p, goal):
    # On Python floats: numpy's no-axis norm is a BLAS dot, whose bits depend
    # on the host's kernel.
    dx, dy = float(p[0]) - goal.position.x, float(p[1]) - goal.position.y
    return math.sqrt(dx * dx + dy * dy)


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
                -beta * (prefix.arc_length() + _distance(q, g) - _distance(s, g))
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

    def test_prior_is_a_read_only_copy(self):
        prefix = Trajectory([[0, 0], [1, 0.5]], dt=1.0)
        goals = (Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(4, -2)))
        prior = {"A": 0.5, "B": 0.5}
        model = PosteriorModel(prior=prior)
        before = goal_posterior(prefix, goals, Point2(0, 0), model)
        for edit in (-1.0, 5.0):
            prior["A"] = edit  # the caller's dict, after validation
            assert goal_posterior(prefix, goals, Point2(0, 0), model) == before
        with pytest.raises(TypeError):
            model.prior["A"] = -1.0
        assert type(model.prior_for(goals)) is dict
        assert model.prior_for(goals) == {"A": 0.5, "B": 0.5}
        assert pickle.loads(pickle.dumps(model)) == model == copy.deepcopy(model)


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


# The per-fraction loop evaluate_trajectory ran before the batch kernels,
# written out in full: arc_length_prefix -> _masked_prefix -> goal_posterior.


def _ref_segments(pts):
    d = np.diff(pts, axis=0)
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])


def _ref_prefix(pts, fraction):
    seg = _ref_segments(pts)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = fraction * cum[-1]
    j = max(int(np.searchsorted(cum, target, side="left")), 1)
    s = (target - cum[j - 1]) / seg[j - 1] if seg[j - 1] > 0.0 else 0.0
    return np.vstack([pts[:j], pts[j - 1] + s * (pts[j] - pts[j - 1])])


def _running_sum(seg):
    # A path's arc length is the end of its running sum, as Trajectory.arc_length.
    return np.cumsum(seg)[-1]


def _ref_posterior(prefix, goals, s, model, total=_running_sum):
    prior = model.prior_for(goals)
    length = float(total(_ref_segments(prefix)))
    q = prefix[-1]
    costs = [
        length + _distance(q, g) - _distance(s, g)
        for g in goals
    ]
    weights = np.array([prior[g.id] for g in goals])
    exponents = np.array([-model.beta * c if w > 0 else -np.inf for c, w in zip(costs, weights)])
    shift = exponents.max()
    if shift == -np.inf:
        cheapest = min(c for c, w in zip(costs, weights) if w > 0)
        weights = np.where([c == cheapest for c in costs], weights, 0.0)
    else:
        weights = weights * np.exp(exponents - shift)
    weights /= weights.sum()
    return {g.id: float(w) for g, w in zip(goals, weights)}


def _ref_evaluate(pts, scenario, model, fractions, mask_fov, total=_running_sum):
    g_star = scenario.target_goal()
    posteriors, values, flags = [], [], []
    for fraction in fractions:
        prefix = _ref_prefix(pts, fraction)
        observer = designated_observer(scenario) if mask_fov else None
        if observer is not None:
            prefix = prefix[visibility_points(prefix, observer) > 0.0]
        if len(prefix) < 2:
            posterior = model.prior_for(scenario.goals)
        else:
            posterior = _ref_posterior(prefix, scenario.goals, prefix[0], model, total)
        posteriors.append(posterior)
        values.append(posterior[g_star.id])
        flags.append(values[-1] == max(posterior.values()))
    return {
        "partial_fractions": tuple(fractions),
        "posteriors": tuple(posteriors),
        "correctness": tuple(values),
        "argmax_correct": tuple(flags),
        "score": legibility_score(values),
        "mode": scenario.planner.mode,
    }


def _random_world(rng, n_goals, zero_prior):
    goals = tuple(
        Goal(f"g{i}", Point2(*rng.uniform(-6, 6, 2)), is_target=(i == 0))
        for i in range(n_goals)
    )
    prior = None
    if zero_prior and n_goals > 1:
        raw = rng.uniform(0.1, 1.0, n_goals)
        raw[rng.permutation(n_goals)[: rng.integers(1, n_goals)]] = 0.0
        raw = raw / raw.sum()
        raw[int(np.flatnonzero(raw)[0])] += 1.0 - raw.sum()
        prior = {g.id: float(p) for g, p in zip(goals, raw)}
    observers = ()
    if rng.uniform() < 0.8:
        observers = (ObserverState(
            "O", Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-math.pi, math.pi),
            fov=rng.uniform(0.2, math.tau), attached_goal="g0",
        ),)
    return make_scenario(goals=goals, observers=observers, obstacles=()), prior


def _random_path(rng):
    steps = rng.normal(scale=rng.uniform(0.05, 2.0), size=(rng.integers(2, 40), 2))
    pts = np.cumsum(steps, axis=0)
    repeats = rng.integers(1, 4, size=len(pts)) if rng.uniform() < 0.7 else 1
    pts = np.repeat(pts, repeats, axis=0)  # repeated waypoints: zero-length segments
    return pts if rng.uniform() < 0.95 else np.repeat(pts[:1], 3, axis=0)


def _random_fractions(rng):
    pick = rng.integers(5)
    if pick == 0:
        return (0.0, 1.0)
    if pick == 1:
        return tuple((i + 1) / 20 for i in range(20))
    if pick == 2:
        return (float(rng.choice([0.0, 1.0, rng.uniform()])),)
    return tuple(float(f) for f in np.append(rng.uniform(size=rng.integers(1, 8)), [0.0, 1.0]))


def _same_bits(report, expected):
    # repr keeps every bit of a float and tells -0.0 from 0.0.
    assert repr(report.to_dict()) == repr(expected)


class TestBatchMatchesScalarLoop:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 1e308])
    @pytest.mark.parametrize("mask_fov", [False, True])
    def test_random_worlds(self, beta, mask_fov):
        rng = np.random.default_rng(int(beta % 1000) + 7 * mask_fov)
        for _ in range(150):
            scenario, prior = _random_world(rng, int(rng.integers(1, 13)), rng.uniform() < 0.5)
            model = PosteriorModel(beta=beta, prior=prior)
            pts, fractions = _random_path(rng), _random_fractions(rng)
            traj = Trajectory(pts, 0.4)
            report = evaluate_trajectory(traj, scenario, model, fractions, mask_fov)
            _same_bits(report, _ref_evaluate(pts, scenario, model, fractions, mask_fov))

    @pytest.mark.parametrize("in_view", [0, 1, 2, 3])
    @pytest.mark.parametrize("fractions", [(0.0, 1.0), (0.5,), (0.3, 0.6, 0.9, 1.0)])
    def test_masks_that_leave_few_points_visible(self, in_view, fractions):
        # The observer at the origin looks along +x with a 60 degree wedge;
        # only the first `in_view` waypoints lie inside it.
        scenario = make_scenario(
            goals=(Goal("A", Point2(4, 2), is_target=True), Goal("B", Point2(4, -2)),
                   Goal("C", Point2(-3, 0))),
            observers=(ObserverState("O", Point2(0, 0), 0.0, fov=math.pi / 3, attached_goal="A"),),
            obstacles=(),
        )
        seen = [[2.0 + k, 0.1 * k] for k in range(in_view)]
        hidden = [[-1.0 - k, 2.0 + k] for k in range(5)]
        pts = np.array(seen + hidden)
        report = evaluate_trajectory(Trajectory(pts, 0.4), scenario, UNIFORM, fractions, True)
        _same_bits(report, _ref_evaluate(pts, scenario, UNIFORM, fractions, True))
        if in_view < 2:
            assert all(p == UNIFORM.prior_for(scenario.goals) for p in report.posteriors)

    def test_prefix_length_sums_its_own_segments(self):
        # Over many segments np.sum's pairwise order and the running cumsum
        # round differently; the report keeps the running sum's bits. The path
        # runs along the observer's gaze with about a fifth of its points
        # mirrored behind the observer, and on it np.sum's prefix lengths
        # change posterior bits, masked and unmasked.
        rng = np.random.default_rng(26)
        steps = np.column_stack([-rng.uniform(0.1, 10.0, 60), rng.normal(scale=4.0, size=60)])
        pts = np.array([4.0, 0.8]) + np.cumsum(steps, axis=0)
        hidden = rng.uniform(size=60) < 0.2
        pts[hidden, 0] = 9.6 - pts[hidden, 0]
        scenario = make_scenario()
        fractions = tuple((i + 1) / 20 for i in range(20))
        for mask_fov in (False, True):
            expected = _ref_evaluate(pts, scenario, UNIFORM, fractions, mask_fov)
            by_np_sum = _ref_evaluate(pts, scenario, UNIFORM, fractions, mask_fov, total=np.sum)
            assert by_np_sum["posteriors"] != expected["posteriors"]
            traj = Trajectory(pts, 0.4)
            _same_bits(evaluate_trajectory(traj, scenario, UNIFORM, fractions, mask_fov), expected)

    def test_prefix_length_over_pairwise_blocks(self):
        # Beyond 128 values np.sum splits its pairwise sum recursively. The
        # path runs along the observer's gaze, and about a fifth of its points
        # are mirrored behind the observer, so most prefixes, masked or not,
        # sum more than 128 segments.
        rng = np.random.default_rng(22)
        steps = np.column_stack([-rng.uniform(0.1, 10.0, 320), rng.normal(scale=4.0, size=320)])
        pts = np.array([4.0, 0.8]) + np.cumsum(steps, axis=0)
        hidden = rng.uniform(size=320) < 0.2
        pts[hidden, 0] = 9.6 - pts[hidden, 0]
        scenario = make_scenario()
        seen = pts[visibility_points(pts, designated_observer(scenario)) > 0.0]
        assert 200 < len(seen) < len(pts)
        for path in (pts, seen):
            seg = _ref_segments(path)
            assert any(np.sum(seg[:k]) != np.cumsum(seg)[k - 1] for k in range(129, len(seg)))
        fractions = tuple((i + 1) / 20 for i in range(20))
        for mask_fov in (False, True):
            traj = Trajectory(pts, 0.4)
            report = evaluate_trajectory(traj, scenario, UNIFORM, fractions, mask_fov)
            _same_bits(report, _ref_evaluate(pts, scenario, UNIFORM, fractions, mask_fov))

    def test_zero_length_segments_and_path(self):
        scenario, fractions = make_scenario(), (0.0, 0.5, 1.0)
        for pts in (
            np.array([[1.0, 1.0]] * 4),  # zero-length path: every prefix is the start
            np.array([[0, 0], [0, 0], [1, 0], [1, 0], [1, 0], [2, 1]], dtype=float),
        ):
            for mask_fov in (False, True):
                traj = Trajectory(pts, 0.4)
                report = evaluate_trajectory(traj, scenario, UNIFORM, fractions, mask_fov)
                _same_bits(report, _ref_evaluate(pts, scenario, UNIFORM, fractions, mask_fov))


class TestOneArcLength:
    """Trajectory.arc_length, prefix_points and the report share one arc length:
    the running sum that also places each prefix's end."""

    def _check(self, pts, scenario, model, fractions):
        traj = Trajectory(pts, 0.4)
        cum, _, _ = prefix_points(traj.waypoints, fractions)
        assert repr(traj.arc_length()) == repr(float(cum[-1]))
        report = evaluate_trajectory(traj, scenario, model, fractions)
        for fraction, posterior in zip(fractions, report.posteriors):
            prefix = arc_length_prefix(traj, fraction)
            scalar = goal_posterior(prefix, scenario.goals, traj.start, model)
            assert repr(posterior) == repr(scalar)

    def test_path_where_np_sum_differs(self):
        # The 320-waypoint path of test_prefix_length_over_pairwise_blocks.
        rng = np.random.default_rng(22)
        steps = np.column_stack([-rng.uniform(0.1, 10.0, 320), rng.normal(scale=4.0, size=320)])
        pts = np.array([4.0, 0.8]) + np.cumsum(steps, axis=0)
        hidden = rng.uniform(size=320) < 0.2
        pts[hidden, 0] = 9.6 - pts[hidden, 0]
        scenario, fractions = make_scenario(), tuple(i / 400 for i in range(401))
        # On this grid np.sum's prefix lengths change posterior bits.
        by_np_sum = _ref_evaluate(pts, scenario, UNIFORM, fractions, False, total=np.sum)
        assert by_np_sum != _ref_evaluate(pts, scenario, UNIFORM, fractions, False)
        self._check(pts, scenario, UNIFORM, fractions)

    def test_random_short_paths(self):
        rng = np.random.default_rng(41)
        for _ in range(150):
            scenario, prior = _random_world(rng, int(rng.integers(1, 6)), rng.uniform() < 0.5)
            model = PosteriorModel(beta=float(rng.choice([0.0, 1.0, 7.5])), prior=prior)
            self._check(_random_path(rng), scenario, model, _random_fractions(rng))


@pytest.mark.parametrize("mask_fov", [False, True])
def test_empty_fractions_rejected_by_name(mask_fov):
    traj = Trajectory([[0.0, 0.0], [1.0, 0.0]], 0.4)
    with pytest.raises(ValueError, match="fractions must be non-empty"):
        evaluate_trajectory(traj, make_scenario(), UNIFORM, (), mask_fov)
    with pytest.raises(ValueError, match="fractions must be non-empty"):
        prefix_points(traj.waypoints, [])


@pytest.mark.parametrize("pts", [
    [[0, 0], [1e308, 0], [-1e308, 0]],  # a step overflowed
    [[0, 0], [1e200, 1e200]],  # a step's square overflowed
    [[0, 0], [1e308, 0], [0, 0], [1e308, 0]],  # finite steps whose sum overflowed
    [[-8e153, 8e153], [0, -2], [8e153, 8e153]],  # only the two seen ends' step overflowed
], ids=["step", "square", "sum", "seen"])
def test_paths_whose_length_overflowed_are_outside_the_domain(pts):
    # Scoring these finite paths once raised a named overflow error; now the
    # Trajectory that would carry them is refused.
    with pytest.raises(ValueError, match=r"^waypoint coordinates must lie within \+-1e\+150$"):
        Trajectory(pts, 0.4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mask_fov", [False, True])
def test_path_across_the_domain_scores_without_overflow(mask_fov):
    # 300 waypoints that visit the domain's four corners in turn, so every
    # step is a diagonal or a side of the domain: the longest steps a path
    # inside it can take. The observer at (0, -1) looks up and sees only the
    # top corners, so the masked scan measures the seen points' own legs.
    c = COORD_LIMIT
    traj = Trajectory(np.tile([[c, c], [-c, -c], [c, -c], [-c, c]], (75, 1)), 0.4)
    expected = 150 * math.hypot(2 * c, 2 * c) + 149 * 2 * c
    assert traj.arc_length() == pytest.approx(expected, rel=1e-12)
    scenario = make_scenario(
        goals=(Goal("G", Point2(c, c), is_target=True), Goal("H", Point2(-c, c))),
        observers=(ObserverState("O", Point2(0, -1), math.pi / 2),),
    )
    report = evaluate_trajectory(traj, scenario, UNIFORM, DEFAULT_FRACTIONS, mask_fov)
    assert all(0.0 <= value <= 1.0 for value in report.correctness)
    assert arc_length_prefix(traj, 0.5).arc_length() == pytest.approx(expected / 2, rel=1e-12)
    posterior = goal_posterior(traj, scenario.goals, scenario.robot.position, UNIFORM)
    assert sum(posterior.values()) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "fractions", [DEFAULT_FRACTIONS, (0.6,), tuple((i + 1) / 20 for i in range(20))]
)
@pytest.mark.parametrize("full_circle", [False, True])
def test_mask_that_hides_nothing_gives_the_unmasked_report(fractions, full_circle):
    # With no observer, or one whose FOV is 360 degrees, every waypoint is
    # visible, so the masked prefix scan must return the unmasked bits.
    rng = np.random.default_rng(31 + full_circle)
    for _ in range(60):
        world, prior = _random_world(rng, int(rng.integers(1, 8)), rng.uniform() < 0.5)
        observers = ()
        if full_circle:
            observers = (ObserverState(
                "O", Point2(*rng.uniform(-4, 4, 2)), rng.uniform(-math.pi, math.pi),
                fov=math.tau, attached_goal="g0",
            ),)
        scenario = make_scenario(goals=world.goals, observers=observers, obstacles=())
        model = PosteriorModel(beta=1.0, prior=prior)
        traj = Trajectory(_random_path(rng), 0.4)
        plain = evaluate_trajectory(traj, scenario, model, fractions)
        masked = evaluate_trajectory(traj, scenario, model, fractions, mask_fov=True)
        _same_bits(masked, plain.to_dict())


@pytest.mark.parametrize("fractions", [DEFAULT_FRACTIONS, tuple((i + 1) / 20 for i in range(20))])
def test_unmasked_scan_runs_no_visibility_pass(monkeypatch, fractions):
    # With mask_fov off, or no observer to mask with, the scan is the path
    # itself; the test above checks that it keeps the masked scan's bits.
    calls = []
    for module, name in ((evaluation_module, "visibility_points"),
                         (legibility_module, "_deviation_angles")):
        def counted(*args, _f=getattr(module, name), _name=name):
            calls.append(_name)
            return _f(*args)

        monkeypatch.setattr(module, name, counted)
    traj = Trajectory(np.cumsum(np.random.default_rng(5).normal(size=(30, 2)), axis=0), 0.4)
    watched, unwatched = make_scenario(), make_scenario(observers=())
    evaluate_trajectory(traj, watched, UNIFORM, fractions)
    evaluate_trajectory(traj, unwatched, UNIFORM, fractions, mask_fov=True)
    assert calls == []
    evaluate_trajectory(traj, watched, UNIFORM, fractions, mask_fov=True)
    assert calls == ["visibility_points", "_deviation_angles"]


def _dragan(length, q, s, goals, model):
    """Dragan et al. (HRI 2013) goal inference, written with math scalars."""
    prior = model.prior_for(goals)
    raw = [
        prior[g.id] * math.exp(-model.beta * (
            length + math.dist(q, (g.position.x, g.position.y))
            - math.dist(s, (g.position.x, g.position.y))
        ))
        for g in goals
    ]
    return [w / sum(raw) for w in raw]


class TestPosteriorBatch:
    def _case(self, rng, n_goals=5, rows=6, prior_zeros=True):
        goals = tuple(
            Goal(f"g{i}", Point2(*rng.uniform(-5, 5, 2)), is_target=(i == 0))
            for i in range(n_goals)
        )
        raw = rng.uniform(0.1, 1.0, n_goals)
        if prior_zeros:
            raw[1::3] = 0.0
        raw = raw / raw.sum()
        raw[0] += 1.0 - raw.sum()
        model = PosteriorModel(beta=float(rng.uniform(0.2, 3.0)),
                               prior={g.id: float(p) for g, p in zip(goals, raw)})
        start = rng.uniform(-2, 2, 2)
        paths = [np.vstack([start, start + np.cumsum(rng.normal(size=(rng.integers(1, 9), 2)), 0)])
                 for _ in range(rows)]
        lengths = np.array([Trajectory(p, 0.4).arc_length() for p in paths])
        endpoints = np.array([p[-1] for p in paths])
        return goals, model, start, paths, lengths, endpoints

    def test_matches_the_dragan_model(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            goals, model, start, _, lengths, endpoints = self._case(rng)
            batch = posterior_batch(lengths, endpoints, start, goals, model)
            for row, length, q in zip(batch, lengths, endpoints):
                np.testing.assert_allclose(row, _dragan(length, q, start, goals, model),
                                           rtol=1e-9, atol=1e-300)

    def test_rows_sum_to_one_and_ruled_out_goals_get_zero(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            goals, model, start, _, lengths, endpoints = self._case(rng, n_goals=12)
            batch = posterior_batch(lengths, endpoints, start, goals, model)
            np.testing.assert_allclose(batch.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            ruled_out = [model.prior[g.id] == 0.0 for g in goals]
            assert np.all(batch[:, ruled_out] == 0.0)
            assert np.all(batch[:, np.logical_not(ruled_out)] > 0.0)

    def test_permuting_goals_permutes_columns(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            goals, model, start, _, lengths, endpoints = self._case(rng, n_goals=7)
            perm = rng.permutation(len(goals))
            batch = posterior_batch(lengths, endpoints, start, goals, model)
            shuffled = posterior_batch(lengths, endpoints, start, [goals[i] for i in perm], model)
            # The row sum adds goals in list order, so only the last bits may move.
            np.testing.assert_allclose(shuffled, batch[:, perm], rtol=1e-14, atol=0)

    def test_beta_zero_returns_the_prior(self):
        rng = np.random.default_rng(33)
        goals, model, start, _, lengths, endpoints = self._case(rng, n_goals=6)
        flat = PosteriorModel(beta=0.0, prior=model.prior)
        batch = posterior_batch(lengths, endpoints, start, goals, flat)
        prior = [model.prior[g.id] for g in goals]
        for row in batch:
            np.testing.assert_allclose(row, prior, rtol=1e-15, atol=0)

    def test_each_row_is_the_one_row_posterior(self):
        rng = np.random.default_rng(34)
        for beta in (0.0, 1.0, 1e308):
            for _ in range(30):
                goals, model, start, paths, lengths, endpoints = self._case(rng, n_goals=9)
                model = PosteriorModel(beta=beta, prior=model.prior)
                batch = posterior_batch(lengths, endpoints, start, goals, model)
                for row, path in zip(batch, paths):
                    one = goal_posterior(Trajectory(path, 0.4), goals, Point2(*start), model)
                    assert [float(w) for w in row] == list(one.values())
                    assert one == _ref_posterior(path, goals, start, model)
