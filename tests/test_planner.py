"""Sampling planner: rollout, CEM behavior, closed loop, determinism."""
from __future__ import annotations

import dataclasses
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
    Trajectory,
    designated_observer,
    legibility_aware_cost,
    plan_once,
    rollout,
    run_closed_loop,
)
from legiplan.model import clearance_points
from legiplan.planner import (
    _cem_optimize,
    _clip_controls,
    _draw_noise,
    _initial_mean,
    _legible_objective,
    _rollout_batch,
    _task_objective,
)
from legiplan.task_cost import COLLISION_COST
from legiplan.scenario_io import load_scenario
from tests.conftest import SCENARIO_DIR, SCENARIO_NAMES, make_robot, make_scenario


def reference_noise(seed: int, iteration: int, population: int, horizon: int) -> np.ndarray:
    """One fresh Philox generator per candidate, as the noise contract states.

    The key is a uint64 array: a plain list mixing a word >= 2**63 with a
    smaller one converts to float64, which would key a different stream.
    """
    return np.stack([
        np.random.Generator(
            np.random.Philox(
                key=np.array([seed % 2**64, (iteration << 32) | i], dtype=np.uint64)
            )
        ).standard_normal((horizon, 2))
        for i in range(population)
    ])


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
        best_cost = float(objective(wp)[0])
        best_controls = warm_controls.copy()
        best_waypoints = wp[0]
    history = []
    for z in noise:
        controls = reference_clip(mean + std * z, state, params.dt)
        waypoints = _rollout_batch(state, controls, params.dt)
        costs = np.asarray(objective(waypoints), dtype=float)
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
    def test_draws_match_one_generator_per_candidate(self, seed, iteration, population, horizon):
        assert np.array_equal(
            _draw_noise(seed, iteration, population, horizon),
            reference_noise(seed, iteration, population, horizon),
        )


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
    costs = _legible_objective(scenario, predictions)(batch)
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
    theta_dev_points = legibility_module.theta_dev_points

    def counted(*args):
        calls.append(args)
        return theta_dev_points(*args)

    monkeypatch.setattr(legibility_module, "theta_dev_points", counted)
    objective(np.stack([path.waypoints for path in predictions.values()]))
    assert len(calls) == 1
