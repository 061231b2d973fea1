"""Receding-horizon sampling planner.

Candidates are unicycle control sequences (v, omega) optimized with the
cross-entropy method. Every cycle the planner first predicts, per goal, the
local path an observer would expect (a pure task-cost optimization), then in
legible mode runs a second optimization of the combined objective with those
predictions held fixed. That objective and the reported cost breakdown come
from the same kernel, legibility.legible_cost_batch.

The per-goal predictions run as one batched search over all goals.

Randomness is counter-based: each candidate's draws come from a Philox
stream keyed by (seed mod 2^64, iteration << 32 | candidate index), so
results do not depend on evaluation order. The noise is drawn once per cycle
and CEM iteration and shared: every goal of the batched prediction search
and the legible re-optimization sample the same draws.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .legibility import (
    PredictedPathSet, designated_observer, legibility_aware_cost, legible_cost_batch,
    fov_cost_batch, weighted_similarity_batch,  # unused here; kept only for the benchmark tracer
)
from .model import Point2, RobotState, ScenarioSpec, Trajectory, velocities, wrap_angle
from .task_cost import CostBreakdown, task_cost, task_cost_batch

_SEED_MODULUS = 2**64
_STD_FLOOR = 1e-3  # keeps the sampling distribution from collapsing

_MODES = ("baseline", "legible")


class PlannerFailure(RuntimeError):
    """Raised when every candidate stays in collision.

    Carries the best breakdown seen, and in closed-loop runs the partial
    simulation log up to the failing cycle.
    """

    def __init__(self, message: str, breakdown=None, partial=None):
        super().__init__(message)
        self.breakdown = breakdown
        self.partial = partial


@dataclass(frozen=True)
class PlannerParams:
    """Horizon, mode and cross-entropy optimizer settings."""

    dt: float = 0.4  # s
    horizon_w: int = 12  # steps per plan
    mode: str = "baseline"  # "baseline" | "legible"
    cem_population: int = 64
    cem_elites: int = 8
    cem_iterations: int = 4
    cem_init_std_v: float | None = None  # m/s, default 0.5 * v_max
    cem_init_std_omega: float | None = None  # rad/s, default 0.5 * omega_max
    execute_steps: int = 1
    goal_tolerance: float = 0.3  # m
    max_cycles: int = 500

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.horizon_w < 2:
            raise ValueError("horizon_w must be >= 2")
        if self.cem_population < 8:
            raise ValueError("cem_population must be >= 8")
        if not 2 <= self.cem_elites <= self.cem_population:
            raise ValueError("cem_elites must be in [2, cem_population]")
        if self.cem_iterations < 1:
            raise ValueError("cem_iterations must be >= 1")
        for name in ("cem_init_std_v", "cem_init_std_omega"):
            if getattr(self, name) is not None and not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 1 <= self.execute_steps <= self.horizon_w:
            raise ValueError("execute_steps must be in [1, horizon_w]")
        if self.goal_tolerance <= 0:
            raise ValueError("goal_tolerance must be positive")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")


@dataclass(frozen=True)
class ControlSequence:
    """Unicycle controls, shape (horizon_w, 2) with columns (v, omega)."""

    controls: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.controls, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise ValueError(f"controls must have shape (w, 2), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "controls", arr)

    def respects(self, state: RobotState, dt: float) -> bool:
        """Check the kinodynamic bounds used by the sampler."""
        v = self.controls[:, 0]
        om = self.controls[:, 1]
        if np.any(v < 0) or np.any(v > state.v_max) or np.any(np.abs(om) > state.omega_max):
            return False
        dv = np.abs(np.diff(np.concatenate([[state.speed], v])))
        return bool(np.all(dv <= state.a_max * dt + 1e-12))


@dataclass(frozen=True)
class PlanResult:
    trajectory: Trajectory
    breakdown: CostBreakdown
    predictions: PredictedPathSet
    reached: bool
    controls: ControlSequence


@dataclass(frozen=True)
class SimulationResult:
    """Closed-loop run: per-cycle plans plus the executed path."""

    plan_results: tuple[PlanResult, ...]
    executed: Trajectory
    headings: np.ndarray  # heading at each executed waypoint
    controls: np.ndarray  # (n_steps, 2) applied (v, omega)
    reached: bool
    cycles_used: int


def _score_chunked(
    objective: Callable[[np.ndarray], np.ndarray], waypoints: np.ndarray
) -> np.ndarray:
    """Score a whole candidate population with one objective call.

    A function of its own so the scoring step can be wrapped and timed as
    one layer.
    """
    return np.asarray(objective(waypoints), dtype=float)


def _candidate_rng(seed: int, iteration: int, candidate: int) -> np.random.Generator:
    key = np.array([seed % _SEED_MODULUS, (iteration << 32) | candidate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_noise(seed: int, iteration: int, population: int, horizon: int) -> np.ndarray:
    """Standard-normal noise for one CEM iteration, shape (population, horizon, 2).

    Candidate i's rows are the first draws of the Philox stream keyed by
    (seed mod 2^64, iteration << 32 | i). One generator is built per call;
    each candidate re-keys it and resets its counter and buffer, which draws
    exactly what a fresh generator per candidate would.
    """
    rng = _candidate_rng(seed, iteration, 0)
    fresh = rng.bit_generator.state  # counter 0, empty buffer
    z = np.empty((population, horizon, 2), dtype=float)
    for i in range(population):
        fresh["state"]["key"][1] = (iteration << 32) | i
        rng.bit_generator.state = fresh
        rng.standard_normal(out=z[i])
    return z


def _clip_controls(raw: np.ndarray, state: RobotState, dt: float) -> np.ndarray:
    """Clip sampled controls to speed, accel and turn-rate bounds.

    The speed channel is clipped sequentially so |v_t - v_{t-1}| <= a_max*dt
    holds along the whole sequence, starting from the current speed. Clipping
    to [0, v_max] first and to the accel band per step selects the same
    floats as clipping to their intersection, because every previous speed
    already lies in [0, v_max].
    """
    v = np.clip(raw[:, :, 0], 0.0, state.v_max)
    step = state.a_max * dt
    prev = np.full(v.shape[0], state.speed, dtype=float)
    for t in range(v.shape[1]):
        col = v[:, t]
        np.maximum(col, prev - step, out=col)
        np.minimum(col, prev + step, out=col)
        prev = col
    om = np.clip(raw[:, :, 1], -state.omega_max, state.omega_max)
    return np.stack([v, om], axis=2)


def _rollout_batch(state: RobotState, controls: np.ndarray, dt: float) -> np.ndarray:
    """Forward-integrate unicycle controls, shape (n, w, 2) -> (n, w+1, 2).

    Heading updates before displacement: theta_{t+1} = theta_t + omega_t*dt,
    q_{t+1} = q_t + v_t*dt*(cos theta_{t+1}, sin theta_{t+1}).
    """
    v = controls[:, :, 0]
    om = controls[:, :, 1]
    theta = state.heading + np.cumsum(om * dt, axis=1)
    step = v * dt
    dx = step * np.cos(theta)
    dy = step * np.sin(theta)
    n, w = v.shape
    waypoints = np.empty((n, w + 1, 2), dtype=float)
    waypoints[:, 0, 0] = state.position.x
    waypoints[:, 0, 1] = state.position.y
    waypoints[:, 1:, 0] = state.position.x + np.cumsum(dx, axis=1)
    waypoints[:, 1:, 1] = state.position.y + np.cumsum(dy, axis=1)
    return waypoints


def rollout(state: RobotState, controls: ControlSequence, dt: float) -> Trajectory:
    """Trajectory traced by one control sequence from the given state."""
    waypoints = _rollout_batch(state, controls.controls[np.newaxis], dt)[0]
    return Trajectory(waypoints, dt)


def rollout_headings(state: RobotState, controls: np.ndarray, dt: float) -> np.ndarray:
    """Heading at each waypoint of a single rollout, shape (w+1,), unwrapped."""
    return np.concatenate([[state.heading], state.heading + np.cumsum(controls[:, 1] * dt)])


def _initial_mean(
    state: RobotState, horizon: int, dt: float, v_pref: float, goal: Point2
) -> np.ndarray:
    """Deterministic initial sampling mean: ramp toward cruise speed, no turning.

    Near the goal the target speed drops to what covers the remaining
    distance within the horizon, so braking plans are sampled early.
    """
    distance = state.position.distance_to(goal)
    v_target = min(v_pref, distance / (horizon * dt))
    mean = np.zeros((horizon, 2), dtype=float)
    prev = state.speed
    for t in range(horizon):
        lo = max(0.0, prev - state.a_max * dt)
        hi = min(state.v_max, prev + state.a_max * dt)
        prev = min(max(v_target, lo), hi)
        mean[t, 0] = prev
    return mean


@dataclass
class _CEMResult:
    controls: np.ndarray  # (w, 2) best sequence ever seen
    waypoints: np.ndarray  # (w+1, 2) its rollout
    cost: float
    final_mean: np.ndarray  # (w, 2) fitted mean after the last iteration
    best_cost_history: list[float]  # best-ever cost after each iteration


def _cem_optimize(
    objective: Callable[[np.ndarray], np.ndarray],
    state: RobotState,
    params: PlannerParams,
    noise: list[np.ndarray],
    init_mean: np.ndarray,
    init_std: np.ndarray,
    warm_controls: np.ndarray | None = None,
) -> list[_CEMResult]:
    """G cross-entropy searches over control sequences, run as one population.

    ``init_mean`` has shape (G, w, 2). ``noise`` holds one standard-normal
    (population, horizon, 2) array per iteration, as drawn by
    ``_draw_noise``, and every search samples it. Each iteration clips, rolls
    out and scores all G * population candidates in one call each, so
    ``objective`` must score row r for search r // population; selection and
    refit run per search. Each search tracks the best candidate it ever
    scored; warm-start sequences (G, w, 2), when given, are scored under the
    objective and seed those trackers.
    """
    g, w, _ = init_mean.shape
    n = params.cem_population
    mean = init_mean.copy()
    std = np.broadcast_to(init_std, init_mean.shape).copy()
    best_cost = np.full(g, math.inf)
    best_controls = np.zeros((g, w, 2), dtype=float)
    best_waypoints = np.zeros((g, w + 1, 2), dtype=float)
    if warm_controls is not None:
        best_waypoints = _rollout_batch(state, warm_controls, params.dt)
        best_cost = np.array(objective(best_waypoints), dtype=float)
        best_controls = warm_controls.copy()
    history: list[list[float]] = [[] for _ in range(g)]
    for z in noise:
        raw = (mean[:, np.newaxis] + std[:, np.newaxis] * z[np.newaxis]).reshape(g * n, w, 2)
        controls = _clip_controls(raw, state, params.dt)
        waypoints = _rollout_batch(state, controls, params.dt)
        costs = _score_chunked(objective, waypoints).reshape(g, n)
        controls = controls.reshape(g, n, w, 2)
        waypoints = waypoints.reshape(g, n, w + 1, 2)
        for i in range(g):
            idx = int(np.argmin(costs[i]))
            if costs[i, idx] < best_cost[i]:
                best_cost[i] = costs[i, idx]
                best_controls[i] = controls[i, idx]
                best_waypoints[i] = waypoints[i, idx]
            elites = controls[i, np.argsort(costs[i], kind="stable")[: params.cem_elites]]
            mean[i] = elites.mean(axis=0)
            std[i] = np.maximum(elites.std(axis=0), _STD_FLOOR)
            history[i].append(float(best_cost[i]))
    return [
        _CEMResult(best_controls[i], best_waypoints[i], float(best_cost[i]), mean[i], history[i])
        for i in range(g)
    ]


def _task_objective(scenario: ScenarioSpec, goal_xy: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Task cost toward ``goal_xy``: one goal (2,), or one per row (n, 1, 2)."""

    def objective(waypoints: np.ndarray) -> np.ndarray:
        return task_cost_batch(
            waypoints,
            scenario.planner.dt,
            goal_xy,
            scenario.obstacles,
            scenario.robot.radius,
            scenario.task_weights,
        )["total"]

    return objective


def _legible_objective(
    scenario: ScenarioSpec, predictions: PredictedPathSet
) -> Callable[[np.ndarray], np.ndarray]:
    """Combined objective with the predicted paths held fixed."""
    pred_velocities = np.stack([velocities(predictions[goal.id]) for goal in scenario.goals])
    observer = designated_observer(scenario)

    def objective(waypoints: np.ndarray) -> np.ndarray:
        return legible_cost_batch(
            waypoints, scenario.planner.dt, pred_velocities, scenario.goals, observer,
            scenario.obstacles, scenario.robot.radius, scenario.task_weights,
            scenario.legibility,
        )["total"]

    return objective


def plan_once(scenario: ScenarioSpec, rng_seed: int | None = None) -> PlanResult:
    """One planning cycle: per-goal predictions, then the mode's objective.

    Baseline mode returns the target-goal prediction directly. Legible mode
    runs a second optimization of the combined cost, warm-started from the
    target prediction's control distribution; when both lambda weights are
    zero that objective coincides with the task cost, so the target
    prediction is returned unchanged.
    """
    params = scenario.planner
    robot = scenario.robot
    seed = scenario.seed if rng_seed is None else rng_seed
    init_std = np.full(
        (params.horizon_w, 2), [params.cem_init_std_v, params.cem_init_std_omega]
    )
    # Drawn once and shared by every CEM of the cycle; read-only so no search
    # can alter the samples another one sees.
    noise = [
        _draw_noise(seed, k, params.cem_population, params.horizon_w)
        for k in range(params.cem_iterations)
    ]
    for z in noise:
        z.flags.writeable = False

    # One batched search predicts the path toward every goal; row r of its
    # population is scored against goal r // cem_population.
    goals_xy = np.array([goal.position.as_array() for goal in scenario.goals])
    results = _cem_optimize(
        _task_objective(
            scenario, np.repeat(goals_xy, params.cem_population, axis=0)[:, np.newaxis]
        ),
        robot,
        params,
        noise,
        np.stack([
            _initial_mean(
                robot, params.horizon_w, params.dt, scenario.task_weights.v_pref, goal.position
            )
            for goal in scenario.goals
        ]),
        init_std,
    )
    predictions: PredictedPathSet = {
        goal.id: Trajectory(res.waypoints, params.dt)
        for goal, res in zip(scenario.goals, results)
    }

    g_star = scenario.target_goal()
    base = results[scenario.goals.index(g_star)]
    leg = scenario.legibility
    legible_active = params.mode == "legible" and (leg.lambda_sim > 0 or leg.lambda_fov > 0)
    if legible_active:
        (chosen,) = _cem_optimize(
            _legible_objective(scenario, predictions),
            robot,
            params,
            noise,
            base.final_mean[np.newaxis],
            init_std,
            warm_controls=base.controls[np.newaxis],
        )
    else:
        chosen = base

    trajectory = Trajectory(chosen.waypoints, params.dt)
    if params.mode == "legible":
        breakdown = legibility_aware_cost(
            trajectory,
            g_star.position,
            predictions,
            scenario.goals,
            designated_observer(scenario),
            scenario.obstacles,
            robot,
            scenario.task_weights,
            leg,
        )
    else:
        breakdown = task_cost(
            trajectory, g_star.position, scenario.obstacles, robot, scenario.task_weights
        )
    if breakdown.collided:
        raise PlannerFailure(
            "no collision-free candidate found", breakdown=breakdown
        )
    reached = trajectory.end.distance_to(g_star.position) <= params.goal_tolerance
    return PlanResult(
        trajectory=trajectory,
        breakdown=breakdown,
        predictions=predictions,
        reached=reached,
        controls=ControlSequence(chosen.controls),
    )


def run_closed_loop(scenario: ScenarioSpec) -> SimulationResult:
    """Plan, execute the first controls, replan; stop at the goal or the
    cycle budget.

    Cycle i reseeds the optimizer with (seed + i) mod 2^64, which makes the
    whole run a pure function of the scenario.
    """
    params = scenario.planner
    robot = scenario.robot
    g_star = scenario.target_goal()

    positions = [robot.position.as_array()]
    headings = [robot.heading]
    controls_log: list[np.ndarray] = []
    plan_results: list[PlanResult] = []
    reached = robot.position.distance_to(g_star.position) <= params.goal_tolerance
    cycles = 0

    state = robot
    while not reached and cycles < params.max_cycles:
        cycle_scenario = dataclasses.replace(scenario, robot=state)
        cycle_seed = (scenario.seed + cycles) % _SEED_MODULUS
        try:
            result = plan_once(cycle_scenario, rng_seed=cycle_seed)
        except PlannerFailure as failure:
            failure.partial = _finish_simulation(
                plan_results, positions, headings, controls_log, params, False, cycles
            )
            raise
        plan_results.append(result)

        controls = result.controls.controls
        step_headings = rollout_headings(state, controls, params.dt)
        for k in range(params.execute_steps):
            pos = result.trajectory.waypoints[k + 1]
            heading = wrap_angle(float(step_headings[k + 1]))
            positions.append(pos)
            headings.append(heading)
            controls_log.append(controls[k].copy())
            state = RobotState(
                position=Point2(float(pos[0]), float(pos[1])),
                heading=heading,
                speed=float(controls[k, 0]),
                radius=robot.radius,
                v_max=robot.v_max,
                a_max=robot.a_max,
                omega_max=robot.omega_max,
            )
            if state.position.distance_to(g_star.position) <= params.goal_tolerance:
                reached = True
                break
        cycles += 1

    return _finish_simulation(
        plan_results, positions, headings, controls_log, params, reached, cycles
    )


def _finish_simulation(
    plan_results: list[PlanResult],
    positions: list[np.ndarray],
    headings: list[float],
    controls_log: list[np.ndarray],
    params: PlannerParams,
    reached: bool,
    cycles: int,
) -> SimulationResult:
    if len(positions) == 1:
        # Degenerate run (started at the goal): duplicate the start so the
        # executed path is still a valid trajectory.
        positions = positions + [positions[0]]
        headings = headings + [headings[0]]
    executed = Trajectory(np.vstack(positions), params.dt)
    controls = (
        np.vstack(controls_log) if controls_log else np.zeros((0, 2), dtype=float)
    )
    return SimulationResult(
        plan_results=tuple(plan_results),
        executed=executed,
        headings=np.array(headings, dtype=float),
        controls=controls,
        reached=reached,
        cycles_used=cycles,
    )
