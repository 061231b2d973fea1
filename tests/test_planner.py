"""Sampling planner: rollout, CEM behavior, closed loop, determinism."""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

import legiplan.legibility as legibility_module
import legiplan.planner as planner_module
from legiplan import (
    CircleObstacle,
    ControlSequence,
    Goal,
    LegibilityParams,
    PlannerFailure,
    PlannerParams,
    Point2,
    RectObstacle,
    ScenarioSpec,
    Trajectory,
    designated_observer,
    legibility_aware_cost,
    plan_once,
    rollout,
    run_closed_loop,
    sim_cost,
)
from legiplan.model import clearance_points, wrap_angle
from legiplan.planner import (
    _cem_optimize,
    _clip_controls,
    _draw_noise,
    _initial_mean,
    _legible_objective,
    _rollout_batch,
    _task_objective,
)
from legiplan.task_cost import COLLISION_COST, task_cost
from legiplan.scenario_io import load_scenario
from tests.conftest import (
    SCENARIO_DIR,
    SCENARIO_NAMES,
    assert_mirrors,
    make_robot,
    make_scenario,
    run_mirrored,
    run_or_failure,
)


def reference_noise(seed: int, iteration: int, population: int, horizon: int) -> np.ndarray:
    """One fresh Philox generator per CEM iteration, as the noise contract
    states: the whole population is one block of its draws, in C order.

    The key is a uint64 array: a plain list mixing a word >= 2**63 with a
    smaller one converts to float64, which would key a different stream.
    """
    return np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, iteration << 32], dtype=np.uint64))
    ).standard_normal((population, horizon, 2))


def reference_clip(raw: np.ndarray, state, dt: float) -> np.ndarray:
    """Sequential clip to the intersection of the speed and accel bands."""
    n, w, _ = raw.shape
    v = np.empty((n, w), dtype=float)
    prev = np.full(n, state.speed, dtype=float)
    for t in range(w):
        lo = np.maximum(0.0, prev - state.a_max * dt)
        hi = np.minimum(state.v_max, prev + state.a_max * dt)
        v[:, t] = np.clip(raw[:, t, 0], lo, hi)
        prev = v[:, t]
    om = np.clip(raw[:, :, 1], -state.omega_max, state.omega_max)
    return np.stack([v, om], axis=2)


def frozen_np_clip_controls(raw: np.ndarray, state, dt: float) -> np.ndarray:
    """_clip_controls as it was written with np.clip, kept to pin its bits,
    the sign of zero included: reference_clip clips to the band intersection,
    and np.array_equal reads -0.0 as 0.0."""
    out = np.empty(raw.shape)
    v = np.clip(raw[:, :, 0], 0.0, state.v_max, out=out[:, :, 0])
    step = state.a_max * dt
    prev = state.speed
    for t in range(v.shape[1]):
        col = v[:, t]
        np.maximum(col, prev - step, out=col)
        np.minimum(col, prev + step, out=col)
        prev = col
    np.clip(raw[:, :, 1], -state.omega_max, state.omega_max, out=out[:, :, 1])
    return out


def reference_cem(objective, state, params, noise, init_mean, init_std, warm_controls=None):
    """One cross-entropy search on its own, shapes (w, 2), as run per goal
    before the searches were batched. Returns the _CEMResult fields in order."""
    mean = init_mean.copy()
    std = init_std.copy()
    best_cost = math.inf
    best_controls = None
    best_waypoints = None
    if warm_controls is not None:
        wp = _rollout_batch(state, warm_controls[np.newaxis], params.dt)
        best_cost = float(objective(wp)["total"][0])
        best_controls = warm_controls.copy()
        best_waypoints = wp[0]
    history = []
    for z in noise:
        controls = reference_clip(mean + std * z, state, params.dt)
        waypoints = _rollout_batch(state, controls, params.dt)
        costs = objective(waypoints)["total"]
        idx = int(np.argmin(costs))
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_controls = controls[idx].copy()
            best_waypoints = waypoints[idx].copy()
        elite_idx = np.argsort(costs, kind="stable")[: params.cem_elites]
        elites = controls[elite_idx]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), planner_module._STD_FLOOR)
        history.append(best_cost)
    return best_controls, best_waypoints, best_cost, mean, history


def _cycle_noise(seed: int, params: PlannerParams) -> list[np.ndarray]:
    return [
        _draw_noise(seed, k, params.cem_population, params.horizon_w)
        for k in range(params.cem_iterations)
    ]


class TestRollout:
    def test_straight_line(self):
        controls = ControlSequence(np.array([[1.0, 0.0]] * 3))
        traj = rollout(make_robot(v_max=1.5), controls, dt=1.0)
        assert np.allclose(traj.waypoints, [[0, 0], [1, 0], [2, 0], [3, 0]])

    def test_spin_in_place(self):
        controls = ControlSequence(np.array([[0.0, 1.2]] * 4))
        traj = rollout(make_robot(omega_max=1.5), controls, dt=1.0)
        assert np.allclose(traj.waypoints, np.zeros((5, 2)))

    def test_quarter_turn_step(self):
        # theta_1 = pi/2 before the displacement: q_1 = (cos, sin)(pi/2) = (0, 1).
        controls = ControlSequence(np.array([[1.0, math.pi / 2]]))
        traj = rollout(make_robot(omega_max=2.0, v_max=1.5), controls, dt=1.0)
        assert np.allclose(traj.waypoints[1], [0.0, 1.0], atol=1e-12)


class TestControlSampling:
    def test_clipped_candidates_respect_bounds(self):
        rng_state = make_robot(speed=0.4)
        params = PlannerParams(horizon_w=10)
        raw = _draw_noise(9, 0, 40, 10) * 3.0  # deliberately wild
        controls = _clip_controls(raw, rng_state, params.dt)
        assert np.array_equal(controls, reference_clip(raw, rng_state, params.dt))
        for i in range(controls.shape[0]):
            seq = ControlSequence(controls[i])
            assert seq.respects(rng_state, params.dt)

    @pytest.mark.parametrize("speed", [0.0, 1.0])  # at rest and at v_max
    def test_clip_keeps_the_np_clip_bits_and_sign_of_zero(self, speed):
        state, dt = make_robot(speed=speed), 0.4
        step = state.a_max * dt
        v_values = [-0.0, 0.0, state.v_max, -state.v_max, step, -step, 2.0 * state.v_max]
        om_values = [-0.0, 0.0, state.omega_max, -state.omega_max, 2.0 * state.omega_max]
        rng = np.random.default_rng(5)
        raw = np.stack([rng.choice(v_values, (300, 6)), rng.choice(om_values, (300, 6))], axis=2)
        clipped = _clip_controls(raw, state, dt)
        assert clipped.tobytes() == frozen_np_clip_controls(raw, state, dt).tobytes()
        # -0.0 reaches the output in both channels, so the bytes compare its sign.
        negative_zero = (clipped == 0.0) & np.signbit(clipped)
        assert negative_zero[:, :, 0].any() and negative_zero[:, :, 1].any()

    def test_counter_based_draws_are_order_independent(self):
        a = _draw_noise(42, 3, 16, 8)
        b = _draw_noise(42, 3, 16, 8)
        assert np.array_equal(a, b)
        # candidate streams are independent of population size
        wide = _draw_noise(42, 3, 32, 8)
        assert np.array_equal(wide[:16], a)

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1, 2**64 + 3])
    @pytest.mark.parametrize("iteration", [0, 4])
    @pytest.mark.parametrize("population", [8, 96])
    @pytest.mark.parametrize("horizon", [2, 12])
    def test_draws_match_one_generator_per_iteration(self, seed, iteration, population, horizon):
        assert np.array_equal(
            _draw_noise(seed, iteration, population, horizon),
            reference_noise(seed, iteration, population, horizon),
        )

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_population_has_the_broadcast_formula_bits(self, monkeypatch, g):
        # The raw samples _cem_optimize hands to the clip, for random means and
        # spreads (some at _STD_FLOOR), against mean + std * z broadcast in 4-D.
        rng = np.random.default_rng(40 + g)
        params = PlannerParams(cem_population=97, cem_elites=8, cem_iterations=1, horizon_w=10)
        n, w = params.cem_population, params.horizon_w
        mean = rng.normal(scale=3.0, size=(g, w, 2))
        std = np.abs(rng.normal(size=(g, w, 2))) * 10.0 ** rng.integers(-4, 3, size=(g, w, 2))
        std[rng.uniform(size=std.shape) < 0.3] = planner_module._STD_FLOOR
        z = _draw_noise(g, 0, n, w)
        z.flags.writeable = False
        sampled = []

        def clip(raw, state, dt):
            sampled.append(raw.copy())
            return _clip_controls(raw, state, dt)

        monkeypatch.setattr(planner_module, "_clip_controls", clip)
        objective = _task_objective(make_scenario(), np.array([4.0, 0.8]))
        # Iteration 0 of a prediction search samples one spread for every goal.
        for spread in (std, std[0]):
            _cem_optimize(objective, make_robot(), params, [z], mean, spread)
            expected = mean[:, np.newaxis] + np.broadcast_to(spread, mean.shape)[:, np.newaxis] * z
            assert sampled[-1].shape == (g * n, w, 2)
            assert sampled[-1].tobytes() == expected.reshape(g * n, w, 2).tobytes()

    def test_one_generator_per_draw(self, monkeypatch):
        calls = []
        make = planner_module._candidate_rng

        def counted(*args):
            calls.append(args)
            return make(*args)

        monkeypatch.setattr(planner_module, "_candidate_rng", counted)
        _draw_noise(5, 2, 96, 12)
        assert calls == [(5, 2)]


class TestCEM:
    def test_best_cost_non_increasing(self):
        scenario = make_scenario()
        robot = scenario.robot
        params = scenario.planner
        goal = scenario.goals[0]
        res = _cem_optimize(
            _task_objective(scenario, goal.position.as_array()),
            robot,
            params,
            noise=_cycle_noise(5, params),
            init_mean=_initial_mean(
                robot, params.horizon_w, params.dt, 0.8, goal.position
            )[np.newaxis],
            init_std=np.full(
                (params.horizon_w, 2), [params.cem_init_std_v, params.cem_init_std_omega]
            ),
        )[0]
        history = res.best_cost_history
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_warm_start_never_worse(self):
        scenario = make_scenario()
        robot = scenario.robot
        params = scenario.planner
        goal = scenario.goals[0]
        objective = _task_objective(scenario, goal.position.as_array())
        init_mean = _initial_mean(robot, params.horizon_w, params.dt, 0.8, goal.position)
        init_std = np.full(
            (params.horizon_w, 2), [params.cem_init_std_v, params.cem_init_std_omega]
        )
        first = _cem_optimize(
            objective, robot, params, _cycle_noise(5, params), init_mean[np.newaxis], init_std
        )[0]
        second = _cem_optimize(
            objective, robot, params, _cycle_noise(6, params), first.final_mean[np.newaxis],
            init_std, warm_controls=first.controls[np.newaxis],
        )[0]
        assert second.cost <= first.cost + 1e-12

    @staticmethod
    def _setup(seed):
        scenario = make_scenario(robot=make_robot(speed=0.3))
        robot, params = scenario.robot, scenario.planner
        # A third search toward a point inside the obstacle (collisions); a
        # spec cannot hold that point as a goal.
        positions = [*(goal.position for goal in scenario.goals), Point2(2.0, -0.9)]
        goals_xy = np.array([position.as_array() for position in positions])
        init_mean = np.stack([
            _initial_mean(robot, params.horizon_w, params.dt, 0.8, position)
            for position in positions
        ])
        init_std = np.full(
            (params.horizon_w, 2), [params.cem_init_std_v, params.cem_init_std_omega]
        )
        return scenario, goals_xy, _cycle_noise(seed, params), init_mean, init_std

    @staticmethod
    def _assert_matches(res, reference):
        controls, waypoints, cost, final_mean, history = reference
        assert np.array_equal(res.controls, controls)
        assert np.array_equal(res.waypoints, waypoints)
        assert res.cost == cost
        assert np.array_equal(res.final_mean, final_mean)
        assert res.best_cost_history == history

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
    def test_batched_search_matches_one_search_per_goal(self, seed):
        scenario, goals_xy, noise, init_mean, init_std = self._setup(seed)
        robot, params = scenario.robot, scenario.planner
        per_row = np.repeat(goals_xy, params.cem_population, axis=0)[:, np.newaxis]
        batched = _cem_optimize(
            _task_objective(scenario, per_row), robot, params, noise, init_mean, init_std
        )
        assert len(batched) == len(goals_xy)
        for i, res in enumerate(batched):
            self._assert_matches(res, reference_cem(
                _task_objective(scenario, goals_xy[i]), robot, params, noise, init_mean[i],
                init_std,
            ))

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
    def test_warm_search_matches_single_search(self, seed):
        # The legible search: one search, seeded by a warm-start sequence.
        scenario, goals_xy, noise, init_mean, init_std = self._setup(seed)
        robot, params = scenario.robot, scenario.planner
        objective = _task_objective(scenario, goals_xy[0])
        warm = _clip_controls(
            init_mean[:1] + _draw_noise(seed, 9, 1, params.horizon_w), robot, params.dt
        )
        (res,) = _cem_optimize(
            objective, robot, params, noise, init_mean[:1], init_std, warm_controls=warm
        )
        self._assert_matches(res, reference_cem(
            objective, robot, params, noise, init_mean[0], init_std, warm_controls=warm[0]
        ))

    @staticmethod
    def _assert_terms_of_best(res, objective):
        expected = objective(res.waypoints[np.newaxis])
        assert res.terms.keys() == expected.keys()
        for name, values in expected.items():
            assert np.array_equal(res.terms[name], values), name

    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
    def test_results_keep_the_best_rows_terms(self, seed):
        scenario, goals_xy, noise, init_mean, init_std = self._setup(seed)
        robot, params = scenario.robot, scenario.planner
        per_row = np.repeat(goals_xy, params.cem_population, axis=0)[:, np.newaxis]
        batched = _cem_optimize(
            _task_objective(scenario, per_row), robot, params, noise, init_mean, init_std
        )
        for i, res in enumerate(batched):
            self._assert_terms_of_best(res, _task_objective(scenario, goals_xy[i]))

    def test_unbeaten_warm_row_keeps_its_terms(self):
        scenario, _, noise, init_mean, init_std = self._setup(0)
        robot, params = scenario.robot, scenario.planner

        def progress(waypoints):
            return {
                "total": -waypoints[:, -1, 0],
                "end_y": waypoints[:, -1, 1].copy(),
                "collided": np.zeros(waypoints.shape[0], dtype=bool),
            }

        # Full speed straight ahead from the first step, which no clipped
        # candidate can match, so the warm row stays the best.
        warm = np.zeros((1, params.horizon_w, 2))
        warm[..., 0] = robot.v_max
        (res,) = _cem_optimize(
            progress, robot, params, noise, init_mean[:1], init_std, warm_controls=warm
        )
        assert np.array_equal(res.controls, warm[0])
        assert res.cost == res.terms["total"][0]
        self._assert_terms_of_best(res, progress)

    def test_no_terms_when_nothing_scores_below_infinity(self):
        scenario, _, noise, init_mean, init_std = self._setup(0)

        def unusable(waypoints):
            return {"total": np.full(waypoints.shape[0], math.inf)}

        (res,) = _cem_optimize(
            unusable, scenario.robot, scenario.planner, noise, init_mean[:1], init_std
        )
        assert res.terms is None and res.cost == math.inf


def _staged_objective(kind: str, goal_xy: np.ndarray):
    """One search's objective, scored on that search's own rows, so it gives
    the same costs in a batched run and in a run of its own. "nan": its
    second call scores row 5 NaN. "ties": every row but the three ending
    farthest ahead costs COLLISION_COST, and on the first call every row."""
    calls = []

    def objective(waypoints):
        total = np.linalg.norm(waypoints[:, -1] - goal_xy, axis=1)
        if kind == "nan" and len(calls) == 1:
            total[5] = math.nan
        if kind == "ties":
            behind = np.argsort(-waypoints[:, -1, 0], kind="stable")[3 if calls else 0:]
            total[behind] = COLLISION_COST
        calls.append(kind)
        return {"total": total, "collided": total == COLLISION_COST}

    return objective


@pytest.mark.parametrize("seed", [0, 5, 2**63 + 1])
def test_batched_refit_with_nan_and_tied_rows_matches_one_search_per_goal(seed):
    scenario, goals_xy, noise, init_mean, init_std = TestCEM._setup(seed)
    robot, params = scenario.robot, scenario.planner
    n = params.cem_population
    kinds = ("nan", "ties", "plain")
    searches = [_staged_objective(kind, xy) for kind, xy in zip(kinds, goals_xy)]

    def batched(waypoints):
        parts = [search(waypoints[i * n:(i + 1) * n]) for i, search in enumerate(searches)]
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}

    results = _cem_optimize(batched, robot, params, noise, init_mean, init_std)
    for i, (kind, res) in enumerate(zip(kinds, results)):
        TestCEM._assert_matches(res, reference_cem(
            _staged_objective(kind, goals_xy[i]), robot, params, noise, init_mean[i], init_std,
        ))
        assert res.terms["total"][0] == res.cost
    # The NaN row is argmin's pick, so that iteration improves nothing.
    nan_history = results[0].best_cost_history
    assert nan_history[1] == nan_history[0]
    assert results[1].best_cost_history[0] == COLLISION_COST


class TestPlanOnce:
    def test_progress_toward_single_goal(self):
        scenario = make_scenario(
            goals=(Goal("G", Point2(3.0, 0.0), is_target=True),),
            observers=(),
            obstacles=(),
        )
        result = plan_once(scenario, rng_seed=1)
        start_d = scenario.robot.position.distance_to(scenario.goals[0].position)
        end = result.trajectory.end
        assert end.distance_to(scenario.goals[0].position) < start_d
        assert result.trajectory.waypoints.shape == (scenario.planner.horizon_w + 1, 2)
        assert result.trajectory.start == scenario.robot.position

    def test_predictions_cover_all_goals(self):
        scenario = make_scenario()
        result = plan_once(scenario, rng_seed=2)
        assert set(result.predictions) == {"G1", "G2"}
        for traj in result.predictions.values():
            assert traj.waypoints.shape == result.trajectory.waypoints.shape

    def test_lambda_zero_equals_baseline_bitwise(self):
        base = make_scenario()
        legible = dataclasses.replace(
            base,
            planner=dataclasses.replace(base.planner, mode="legible"),
            legibility=LegibilityParams(lambda_sim=0.0, lambda_fov=0.0),
        )
        for seed in (0, 9, 1234):
            rb = plan_once(base, rng_seed=seed)
            rl = plan_once(legible, rng_seed=seed)
            assert np.array_equal(rb.trajectory.waypoints, rl.trajectory.waypoints)

    def test_legible_mode_differs_with_active_lambdas(self):
        base = make_scenario()
        legible = dataclasses.replace(
            base, planner=dataclasses.replace(base.planner, mode="legible")
        )
        rb = plan_once(base, rng_seed=4)
        rl = plan_once(legible, rng_seed=4)
        assert not np.array_equal(rb.trajectory.waypoints, rl.trajectory.waypoints)

    def test_noise_drawn_once_per_iteration(self, monkeypatch):
        scenario = make_scenario()
        legible = dataclasses.replace(
            scenario, planner=dataclasses.replace(scenario.planner, mode="legible")
        )
        assert len(legible.goals) == 2
        calls = []
        draw = planner_module._draw_noise

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(planner_module, "_draw_noise", counted)
        plan_once(legible, rng_seed=3)
        assert len(calls) == legible.planner.cem_iterations

    def test_cems_share_read_only_noise(self, monkeypatch):
        scenario = make_scenario()
        legible = dataclasses.replace(
            scenario, planner=dataclasses.replace(scenario.planner, mode="legible")
        )
        seen = []
        optimize = planner_module._cem_optimize

        def spy(objective, state, params, noise, *args, **kwargs):
            seen.append(noise)
            return optimize(objective, state, params, noise, *args, **kwargs)

        monkeypatch.setattr(planner_module, "_cem_optimize", spy)
        plan_once(legible, rng_seed=3)
        assert len(seen) == 2  # one batched prediction search plus the legible search
        assert all(noise is seen[0] for noise in seen)
        assert len(seen[0]) == legible.planner.cem_iterations
        for z in seen[0]:
            assert not z.flags.writeable
            with pytest.raises(ValueError):
                z[0, 0, 0] = 0.0

    def test_baseline_runs_one_batched_search(self, monkeypatch):
        scenario = make_scenario()
        params = scenario.planner
        assert params.mode == "baseline" and len(scenario.goals) == 2
        calls = []
        optimize = planner_module._cem_optimize

        def spy(*args, **kwargs):
            calls.append(args)
            return optimize(*args, **kwargs)

        monkeypatch.setattr(planner_module, "_cem_optimize", spy)
        result = plan_once(scenario, rng_seed=3)
        assert len(calls) == 1
        # Each goal's prediction is what a search of its own toward that goal finds.
        init_std = np.full(
            (params.horizon_w, 2), [params.cem_init_std_v, params.cem_init_std_omega]
        )
        for goal in scenario.goals:
            _, waypoints, *_ = reference_cem(
                _task_objective(scenario, goal.position.as_array()), scenario.robot, params,
                _cycle_noise(3, params),
                _initial_mean(
                    scenario.robot, params.horizon_w, params.dt, scenario.task_weights.v_pref,
                    goal.position,
                ),
                init_std,
            )
            assert np.array_equal(result.predictions[goal.id].waypoints, waypoints)

    @pytest.mark.parametrize("goal_count", [1, 2])
    @pytest.mark.parametrize("mode", ["baseline", "legible"])
    def test_no_finite_cost_raises(self, mode, goal_count):
        # The goal weight times a goal term of a few meters overflows to inf,
        # so no candidate gets a score to report; the cycle fails rather than
        # return an unscored path. In legible mode the warm-start row would
        # otherwise seed the legible search with an unscored prediction.
        base = make_scenario()
        scenario = make_scenario(
            goals=base.goals[:goal_count],
            observers=(),
            obstacles=(),
            planner=dataclasses.replace(base.planner, mode=mode),
            task_weights=dataclasses.replace(base.task_weights, w_goal=1e308),
        )
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(PlannerFailure, match="finite cost"):
            plan_once(scenario, rng_seed=1)

    def test_zero_goals_rejected(self):
        scenario = make_scenario()
        with pytest.raises(ValueError):
            broken = dataclasses.replace(scenario, goals=())
            plan_once(broken, rng_seed=1)


class TestClosedLoop:
    def test_trivial_scenario_reaches(self):
        scenario = make_scenario(
            goals=(Goal("G", Point2(2.0, 0.0), is_target=True),),
            observers=(),
            obstacles=(),
        )
        sim = run_closed_loop(scenario)
        assert sim.reached
        assert sim.cycles_used <= scenario.planner.max_cycles
        final = sim.executed.waypoints[-1]
        assert np.linalg.norm(final - [2.0, 0.0]) <= scenario.planner.goal_tolerance

    def test_enclosed_goal_never_collides(self):
        # Goal ringed by obstacles: planner may fail or time out, but any
        # executed waypoint stays collision-free.
        ring = tuple(
            CircleObstacle(Point2(3.0 + 0.8 * math.cos(a), 0.8 * math.sin(a)), 0.45)
            for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)
        )
        scenario = make_scenario(
            goals=(Goal("G", Point2(3.0, 0.0), is_target=True),),
            observers=(),
            obstacles=ring,
            planner=PlannerParams(
                cem_population=32, cem_iterations=2, horizon_w=8, max_cycles=15
            ),
        )
        try:
            sim = run_closed_loop(scenario)
            assert not sim.reached
            executed = sim.executed
        except PlannerFailure as failure:
            assert failure.partial is not None
            executed = failure.partial.executed
        margins = clearance_points(executed.waypoints, ring) - scenario.robot.radius
        assert float(margins.min()) >= 0.0

    def test_rerun_is_bitwise_identical(self):
        scenario = make_scenario()
        a = run_closed_loop(scenario)
        b = run_closed_loop(scenario)
        assert np.array_equal(a.executed.waypoints, b.executed.waypoints)
        assert np.array_equal(a.controls, b.controls)
        assert a.reached == b.reached and a.cycles_used == b.cycles_used

    def test_executed_steps_respect_speed_limit(self):
        scenario = make_scenario()
        sim = run_closed_loop(scenario)
        steps = np.linalg.norm(np.diff(sim.executed.waypoints, axis=0), axis=1)
        assert np.all(steps <= scenario.robot.v_max * scenario.planner.dt + 1e-9)

    def test_execute_steps_stride(self):
        scenario = make_scenario(
            planner=PlannerParams(
                cem_population=32, cem_iterations=3, horizon_w=8, execute_steps=2,
                max_cycles=80,
            )
        )
        sim = run_closed_loop(scenario)
        assert sim.reached
        # each full cycle contributes execute_steps waypoints
        assert sim.controls.shape[0] == sim.executed.waypoints.shape[0] - 1

    def test_start_at_goal_degenerates(self):
        scenario = make_scenario(
            goals=(Goal("G", Point2(0.05, 0.0), is_target=True),),
            observers=(),
            obstacles=(),
        )
        sim = run_closed_loop(scenario)
        assert sim.reached and sim.cycles_used == 0
        assert sim.executed.waypoints.shape[0] == 2

    @pytest.mark.parametrize("case", ["reached", "budget", "at_goal", "failure"])
    def test_cycles_used_counts_the_plans(self, monkeypatch, case):
        scenario = make_scenario()
        if case == "budget":
            scenario = make_scenario(planner=dataclasses.replace(scenario.planner, max_cycles=3))
        if case == "at_goal":
            scenario = make_scenario(
                goals=(Goal("G", Point2(0.05, 0.0), is_target=True),), observers=(), obstacles=()
            )
        if case == "failure":
            real_plan_once, calls = planner_module.plan_once, []

            def plan_once_failing_third(cycle_scenario, rng_seed=None):
                calls.append(rng_seed)
                if len(calls) == 3:
                    raise PlannerFailure("third cycle fails")
                return real_plan_once(cycle_scenario, rng_seed=rng_seed)

            monkeypatch.setattr(planner_module, "plan_once", plan_once_failing_third)
            with pytest.raises(PlannerFailure) as failure:
                run_closed_loop(scenario)
            sim = failure.value.partial
        else:
            sim = run_closed_loop(scenario)
        assert sim.reached == (case in ("reached", "at_goal"))
        assert sim.cycles_used == len(sim.plan_results)
        if case == "reached":
            assert sim.cycles_used > 3
        else:
            assert sim.cycles_used == {"budget": 3, "at_goal": 0, "failure": 2}[case]

    def test_per_cycle_reseeding_matches_manual_plans(self):
        # The first cycle's plan must equal plan_once with seed + 0.
        scenario = make_scenario()
        sim = run_closed_loop(scenario)
        first = plan_once(scenario, rng_seed=scenario.seed)
        assert np.array_equal(
            sim.plan_results[0].trajectory.waypoints, first.trajectory.waypoints
        )


@pytest.mark.parametrize("name", SCENARIO_NAMES)
@pytest.mark.parametrize("mode", ["baseline", "legible"])
def test_executed_controls_respect_kinodynamics(name, mode):
    # Every cycle starts from the last executed speed, so the whole executed
    # sequence obeys the bounds; any prefix of a run shows it, hence the cap.
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(
        spec, planner=dataclasses.replace(spec.planner, mode=mode, max_cycles=30)
    )
    sim = run_closed_loop(spec)
    if sim.controls.shape[0] == 0:
        pytest.skip("the run executes no control")
    assert ControlSequence(sim.controls).respects(spec.robot, spec.planner.dt)


OBSTACLE_SCENES = ("fig1_two_goals", "fig3_obstacle_detour", "restaurant_front", "restaurant_side")


def _inside(obstacle) -> np.ndarray:
    if isinstance(obstacle, CircleObstacle):
        return obstacle.center.as_array()
    return 0.5 * (obstacle.min.as_array() + obstacle.max.as_array())


@pytest.mark.parametrize("observed", [True, False], ids=["observer", "no_observer"])
@pytest.mark.parametrize("name", OBSTACLE_SCENES)
def test_legible_objective_is_the_reported_total(name, observed):
    # The search minimizes exactly the total plan_once reports, row by row.
    scenario = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    if not observed:
        scenario = dataclasses.replace(scenario, observers=())
    predictions = plan_once(scenario, rng_seed=5).predictions
    dt = scenario.planner.dt
    rng = np.random.default_rng(17)
    steps = rng.normal(scale=0.3, size=(64, scenario.planner.horizon_w, 2))
    start = scenario.robot.position.as_array()
    batch = np.concatenate(
        [np.broadcast_to(start, (64, 1, 2)), start + np.cumsum(steps, axis=1)], axis=1
    )
    batch[:6, -1] = _inside(scenario.obstacles[0])
    costs = _legible_objective(scenario, predictions)(batch)["total"]
    assert np.all(costs[:6] == COLLISION_COST)
    for waypoints, cost in zip(batch, costs):
        breakdown = legibility_aware_cost(
            Trajectory(waypoints, dt), scenario.target_goal().position, predictions,
            scenario.goals, designated_observer(scenario), scenario.obstacles, scenario.robot,
            scenario.task_weights, scenario.legibility,
        )
        assert breakdown.total == cost


def test_legible_objective_computes_deviation_angles_once(monkeypatch):
    scenario = make_scenario()
    predictions = plan_once(scenario, rng_seed=3).predictions
    objective = _legible_objective(scenario, predictions)
    calls = []
    deviation_angles = legibility_module._deviation_angles

    def counted(*args):
        calls.append(args)
        return deviation_angles(*args)

    monkeypatch.setattr(legibility_module, "_deviation_angles", counted)
    objective(np.stack([path.waypoints for path in predictions.values()]))
    assert len(calls) == 1


def _shifted(spec, dx: float, dy: float):
    """The same scene moved by (dx, dy): robot, goals, observers and obstacles."""

    def move(p: Point2) -> Point2:
        return Point2(p.x + dx, p.y + dy)

    def move_obstacle(obs):
        if isinstance(obs, CircleObstacle):
            return dataclasses.replace(obs, center=move(obs.center))
        return dataclasses.replace(obs, min=move(obs.min), max=move(obs.max))

    return dataclasses.replace(
        spec,
        robot=dataclasses.replace(spec.robot, position=move(spec.robot.position)),
        goals=tuple(dataclasses.replace(g, position=move(g.position)) for g in spec.goals),
        observers=tuple(dataclasses.replace(o, position=move(o.position)) for o in spec.observers),
        obstacles=tuple(move_obstacle(obs) for obs in spec.obstacles),
    )


@pytest.mark.parametrize("mode", ["baseline", "legible"])
@pytest.mark.parametrize("name", OBSTACLE_SCENES)
def test_closed_loop_is_translation_equivariant(name, mode):
    # Moving the whole scene moves the executed path and nothing else; only
    # rounding of the shifted coordinates may differ.
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(
        spec, planner=dataclasses.replace(spec.planner, mode=mode, max_cycles=15)
    )
    here = run_closed_loop(spec)
    there = run_closed_loop(_shifted(spec, 10.0, -5.0))
    assert there.cycles_used == here.cycles_used
    assert there.reached == here.reached
    error = np.abs(there.executed.waypoints - (here.executed.waypoints + [10.0, -5.0]))
    assert float(error.max()) <= 1e-9


def _rotated(spec):
    """The same scene turned a quarter turn counterclockwise about the origin:
    robot, goals, observers and obstacles, with every heading."""

    def turn(p: Point2) -> Point2:
        return Point2(-p.y, p.x)

    def turn_obstacle(obs):
        if isinstance(obs, CircleObstacle):
            return dataclasses.replace(obs, center=turn(obs.center))
        return dataclasses.replace(
            obs, min=Point2(-obs.max.y, obs.min.x), max=Point2(-obs.min.y, obs.max.x)
        )

    return dataclasses.replace(
        spec,
        robot=dataclasses.replace(
            spec.robot, position=turn(spec.robot.position),
            heading=wrap_angle(spec.robot.heading + math.pi / 2),
        ),
        goals=tuple(dataclasses.replace(g, position=turn(g.position)) for g in spec.goals),
        observers=tuple(
            dataclasses.replace(
                o, position=turn(o.position), heading=wrap_angle(o.heading + math.pi / 2)
            )
            for o in spec.observers
        ),
        obstacles=tuple(turn_obstacle(obs) for obs in spec.obstacles),
    )


@pytest.mark.parametrize("mode", ["baseline", "legible"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_plan_is_rotation_equivariant(name, mode):
    # Turning the whole scene turns the planned path and nothing else; only
    # the rounding of the turned headings may differ.
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, mode=mode))
    turned = _rotated(spec)
    for seed in range(10):
        here = plan_once(spec, rng_seed=seed).trajectory.waypoints
        there = plan_once(turned, rng_seed=seed).trajectory.waypoints
        assert np.allclose(there, np.stack([-here[:, 1], here[:, 0]], axis=1), rtol=0, atol=1e-9)


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("mode", ["baseline", "legible"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_closed_loop_is_mirror_equivariant(name, mode, seed):
    # Mirroring the scene in y, with the omega noise negated, mirrors the run
    # bit for bit, with no tolerance: rounding to nearest is symmetric under
    # negation, and numpy's sin and wrap_angle are odd.
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    spec = dataclasses.replace(
        spec, seed=seed, planner=dataclasses.replace(spec.planner, mode=mode, max_cycles=15)
    )
    assert_mirrors(run_or_failure(spec), run_mirrored(spec))


@pytest.mark.parametrize("mode", ["baseline", "legible"])
def test_plan_is_goal_order_equivariant(mode):
    # Three goals in every order plan the same path, seeds 0-9: the worst
    # deviation measured is 0.0 in both modes. The predictions, the breakdown
    # and the path's sim_cost and legibility_aware_cost are equal to the bit:
    # the similarity sum adds the goals in goal-id order, whatever order the
    # scenario lists them in. Summed in list order, the legible breakdown
    # differed in the last bits in 14 of 60 cases, and the public costs in 14
    # legible and 6 baseline cases.
    spec = load_scenario(str(SCENARIO_DIR / "restaurant_side.json"))
    spec = dataclasses.replace(
        spec, goals=spec.goals + (Goal("P3", Point2(1.5, 2.5)),),
        planner=dataclasses.replace(spec.planner, mode=mode),
    )
    observer, g_star = designated_observer(spec), spec.target_goal().position

    def public_costs(result, goals):
        return sim_cost(
            result.trajectory, result.predictions, goals, observer, spec.legibility
        ), legibility_aware_cost(
            result.trajectory, g_star, result.predictions, goals, observer,
            spec.obstacles, spec.robot, spec.task_weights, spec.legibility,
        ).to_dict()

    for seed in range(10):
        here = plan_once(spec, rng_seed=seed)
        here_costs = public_costs(here, spec.goals)
        for order in itertools.permutations(spec.goals):
            there = plan_once(dataclasses.replace(spec, goals=order), rng_seed=seed)
            assert np.allclose(
                there.trajectory.waypoints, here.trajectory.waypoints, rtol=0, atol=1e-9
            )
            for goal in spec.goals:
                assert np.array_equal(
                    there.predictions[goal.id].waypoints, here.predictions[goal.id].waypoints
                )
            assert there.breakdown.to_dict() == here.breakdown.to_dict()
            assert public_costs(here, order) == here_costs


FIG4_SCENES = ("fig4_fov_sweep_left", "fig4_fov_sweep_center", "fig4_fov_sweep_right")


def _scene(name: str, mode: str, max_cycles: int):
    spec = load_scenario(str(SCENARIO_DIR / f"{name}.json"))
    return dataclasses.replace(
        spec, planner=dataclasses.replace(spec.planner, mode=mode, max_cycles=max_cycles)
    )


def _rescored(scenario, result):
    """The chosen path scored again by the public cost function of the mode:
    legibility_aware_cost in legible mode, task_cost in baseline mode."""
    g_star = scenario.target_goal().position
    if scenario.planner.mode == "legible":
        return legibility_aware_cost(
            result.trajectory, g_star, result.predictions, scenario.goals,
            designated_observer(scenario), scenario.obstacles, scenario.robot,
            scenario.task_weights, scenario.legibility,
        )
    return task_cost(
        result.trajectory, g_star, scenario.obstacles, scenario.robot, scenario.task_weights
    )


@pytest.mark.parametrize(
    ("name", "mode"),
    [(name, "legible") for name in OBSTACLE_SCENES] + [(name, "baseline") for name in FIG4_SCENES],
)
def test_reported_breakdown_is_the_rescored_chosen_path(name, mode):
    # plan_once reports the search's own scores for the chosen row; they are
    # the scores the public cost function gives that path, field by field.
    spec = _scene(name, mode, max_cycles=6)
    sim = run_closed_loop(spec)
    assert sim.plan_results
    for result in sim.plan_results:
        assert result.breakdown == _rescored(spec, result)


def test_legible_cycle_scores_each_candidate_once(monkeypatch):
    scenario = make_scenario()
    legible = dataclasses.replace(
        scenario, planner=dataclasses.replace(scenario.planner, mode="legible")
    )
    params = legible.planner
    assert len(legible.goals) == 2
    rows = []
    score = planner_module._score_chunked

    def counted(objective, waypoints):
        rows.append(waypoints.shape[0])
        return score(objective, waypoints)

    def rescore(*args, **kwargs):
        raise AssertionError("the chosen path was scored a second time")

    monkeypatch.setattr(planner_module, "_score_chunked", counted)
    monkeypatch.setattr(planner_module, "task_cost", rescore)
    monkeypatch.setattr(planner_module, "legibility_aware_cost", rescore)
    plan_once(legible, rng_seed=3)
    # One call per iteration of each of the two searches; the warm-start row
    # rides along in the legible search's first call.
    assert len(rows) == 2 * params.cem_iterations
    assert min(rows) >= params.cem_population
    assert sum(rows) == 3 * params.cem_iterations * params.cem_population + 1


@pytest.mark.parametrize(
    ("mode", "weight"), [("baseline", 1.0), ("legible", 1.0), ("legible", 0.0)],
    ids=["baseline", "legible", "legible-lambda-zero"],
)
def test_report_is_a_search_kernel_row(monkeypatch, mode, weight):
    # Every mode reads its breakdown off a cost-kernel row; neither public
    # single-trajectory cost function runs during a cycle.
    base = make_scenario()
    spec = dataclasses.replace(
        base,
        planner=dataclasses.replace(base.planner, mode=mode),
        legibility=LegibilityParams(lambda_sim=weight, lambda_fov=weight),
    )

    def rescore(*args, **kwargs):
        raise AssertionError("the report took a second route")

    monkeypatch.setattr(planner_module, "task_cost", rescore)
    monkeypatch.setattr(planner_module, "legibility_aware_cost", rescore)
    result = plan_once(spec, rng_seed=3)
    assert result.breakdown == _rescored(spec, result)


def test_lambda_zero_legible_reports_raw_legibility_terms():
    # With both lambdas zero the target prediction is the plan; its report
    # still carries the similarity and FOV terms the weights switch off.
    base = make_scenario()
    legible = dataclasses.replace(
        base,
        planner=dataclasses.replace(base.planner, mode="legible"),
        legibility=LegibilityParams(lambda_sim=0.0, lambda_fov=0.0),
    )
    for seed in (0, 9, 1234):
        result = plan_once(legible, rng_seed=seed)
        assert result.breakdown == _rescored(legible, result)
        assert result.breakdown.sim_term != 0.0 and result.breakdown.fov_term != 0.0
        assert result.breakdown.total == plan_once(base, rng_seed=seed).breakdown.total


@pytest.mark.parametrize("mode", ["baseline", "legible"])
def test_all_candidates_colliding_raises_with_collided_breakdown(mode):
    # Too fast to stop before a wall just ahead: every candidate collides.
    scenario = make_scenario(
        robot=make_robot(speed=1.0, a_max=0.1, omega_max=0.1),
        goals=(Goal("G1", Point2(2.0, 0.8), is_target=True), Goal("G2", Point2(2.0, -0.8))),
        obstacles=(RectObstacle(Point2(0.35, -5.0), Point2(0.6, 5.0)),),
        planner=PlannerParams(cem_population=16, cem_iterations=2, horizon_w=30, mode=mode),
    )
    with pytest.raises(PlannerFailure) as failure:
        plan_once(scenario, rng_seed=1)
    breakdown = failure.value.breakdown
    assert breakdown.collided and breakdown.total == COLLISION_COST
    assert breakdown.sim_term == 0.0 and breakdown.fov_term == 0.0
    assert breakdown.goal_term > 0.0


@pytest.mark.parametrize("mode", ["baseline", "legible"])
def test_plan_beyond_the_coordinate_domain_is_a_planner_failure(mode):
    # So fast that the chosen plan scores a finite cost with waypoints beyond
    # COORD_LIMIT: the planner fails, the scenario is not at fault.
    scenario = ScenarioSpec(
        robot=make_robot(v_max=1e151, a_max=1e151),
        goals=(Goal("G", Point2(5.0, 0.0), is_target=True),),
        planner=PlannerParams(mode=mode),
    )
    rule = r"^planned waypoint coordinates must lie within \+-1e\+150$"
    with pytest.raises(PlannerFailure, match=rule):
        plan_once(scenario)
    with pytest.raises(PlannerFailure, match=rule) as failure:
        run_closed_loop(scenario)
    assert failure.value.partial.cycles_used == 0
    assert failure.value.partial.executed.waypoints.tolist() == [[0.0, 0.0], [0.0, 0.0]]


def _relabelled(spec, names: dict[str, str]):
    """The same scene with goal ids renamed by ``names``, observers' attached
    goals renamed to match."""
    return dataclasses.replace(
        spec,
        goals=tuple(dataclasses.replace(g, id=names[g.id]) for g in spec.goals),
        observers=tuple(
            dataclasses.replace(o, attached_goal=names.get(o.attached_goal))
            for o in spec.observers
        ),
    )


@pytest.mark.parametrize("change", ["relabel", "reverse"])
@pytest.mark.parametrize("mode", ["baseline", "legible"])
@pytest.mark.parametrize("name", OBSTACLE_SCENES)
def test_closed_loop_ignores_goal_ids_and_order(name, mode, change):
    # Goal ids are names only and goal order is bookkeeping: the run is the
    # same to the bit. The new ids sort in the opposite order to the old.
    spec = _scene(name, mode, max_cycles=15)
    if change == "relabel":
        count = len(spec.goals)
        other = _relabelled(spec, {g.id: f"goal-{count - k}" for k, g in enumerate(spec.goals)})
    else:
        other = dataclasses.replace(spec, goals=spec.goals[::-1])
    here = run_closed_loop(spec)
    there = run_closed_loop(other)
    assert np.array_equal(there.executed.waypoints, here.executed.waypoints)
    assert np.array_equal(there.controls, here.controls)
    assert there.cycles_used == here.cycles_used
    assert [r.breakdown for r in there.plan_results] == [r.breakdown for r in here.plan_results]


@pytest.mark.parametrize("mode", ["baseline", "legible"])
def test_each_cycle_plans_the_scenario_with_the_robot_replaced(monkeypatch, mode):
    # run_closed_loop swaps the robot into a copy of the scenario without
    # re-running its checks; the copy must equal the checked replace field for
    # field, carry the executed state, and leave the caller's scenario alone.
    scenario = make_scenario(
        planner=PlannerParams(
            mode=mode, cem_population=16, cem_iterations=2, horizon_w=8, execute_steps=2,
            max_cycles=6,
        )
    )
    robot = scenario.robot
    seen = []
    plan = planner_module.plan_once

    def recording(spec, rng_seed=None):
        seen.append(spec)
        return plan(spec, rng_seed=rng_seed)

    monkeypatch.setattr(planner_module, "plan_once", recording)
    sim = run_closed_loop(scenario)
    assert scenario.robot is robot
    assert len(seen) == sim.cycles_used == 6
    for i, spec in enumerate(seen):
        expected = dataclasses.replace(scenario, robot=spec.robot)
        assert type(spec) is type(scenario)
        for field in dataclasses.fields(expected):
            assert getattr(spec, field.name) == getattr(expected, field.name), field.name
        assert spec == expected
        k = 2 * i
        assert spec.robot.position == Point2(*sim.executed.waypoints[k])
        assert spec.robot.heading == sim.headings[k]
        assert spec.robot.speed == (robot.speed if i == 0 else sim.controls[k - 1, 0])
