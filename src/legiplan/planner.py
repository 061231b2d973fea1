"""Receding-horizon sampling planner.

Candidates are unicycle control sequences (v, omega) optimized with the
cross-entropy method. Every cycle the planner first predicts, per goal, the
local path an observer would expect (a pure task-cost optimization), then in
legible mode runs a second optimization of the combined objective with those
predictions held fixed.

An objective returns its cost kernel's term dict (task_cost_batch or
legibility.legible_objective's), and each search keeps the terms of the best
row it scored. Every reported cost breakdown is one such row, read by
CostBreakdown.from_terms, so every candidate is scored once per cycle
(plan_once states the one exception). The per-goal predictions run as one
batched search over all goals, and the legible search's warm-start row is
scored with its first iteration. Each CEM iteration selects and refits
all searches of a batch in one array pass over the search axis.

The closed loop plans each cycle from the state the cycle before reached
(plan_once's ``robot``); the scenario itself is never copied or changed.

Randomness is counter-based: each CEM iteration's population is one block
of draws from the Philox stream keyed by (seed mod 2^64, iteration << 32),
so results do not depend on evaluation order. The noise is drawn once per
cycle and CEM iteration and shared: every goal of the batched prediction
search and the legible re-optimization sample the same draws.
"""
from __future__ import annotations

import dataclasses
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .legibility import (
    PredictedPathSet, designated_observer, legible_objective,
    # unused here; kept only for the benchmark tracer
    fov_cost_batch, legibility_aware_cost, weighted_similarity_batch,
)
from .model import (
    PlannerFailure, PlannerParams, Point2, RobotState, ScenarioSpec, Trajectory, velocity_points,
    wrap_angle,
)
from .task_cost import (
    CostBreakdown, task_cost_batch,
    task_cost,  # unused here; kept only for the benchmark tracer
)

_SEED_MODULUS = 2**64
_STD_FLOOR = 1e-3  # keeps the sampling distribution from collapsing


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
    """One cycle's plan: its path, cost breakdown, per-goal predictions and controls."""

    trajectory: Trajectory
    breakdown: CostBreakdown
    predictions: PredictedPathSet
    controls: ControlSequence


@dataclass(frozen=True)
class SimulationResult:
    """Closed-loop run: per-cycle plans plus the executed path."""

    plan_results: tuple[PlanResult, ...]
    executed: Trajectory
    headings: np.ndarray  # heading at each executed waypoint
    controls: np.ndarray  # (n_steps, 2) applied (v, omega)
    reached: bool

    @property
    def cycles_used(self) -> int:
        return len(self.plan_results)


# An objective scores a batch of rollouts (n, w+1, 2) and returns its cost
# kernel's term dict: arrays of shape (n,) keyed by term name, "total" (what
# the search minimizes) and "collided".
Objective = Callable[[np.ndarray], dict[str, np.ndarray]]


def _score_chunked(objective: Objective, waypoints: np.ndarray) -> dict[str, np.ndarray]:
    """Score a whole candidate population with one objective call.

    A function of its own so the scoring step can be wrapped and timed as
    one layer.
    """
    return objective(waypoints)


_THREAD_RNG = threading.local()


def _candidate_rng(seed: int, iteration: int) -> np.random.Generator:
    """This thread's generator, re-keyed to (seed mod 2^64, iteration << 32).

    Its whole state is set (counter 0, empty buffer), so it draws what a fresh
    Philox(key=...) would, whatever it drew before; building one reads OS
    entropy that the key discards."""
    try:
        gen = _THREAD_RNG.gen
    except AttributeError:
        gen = _THREAD_RNG.gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed % _SEED_MODULUS, iteration << 32)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _draw_noise(seed: int, iteration: int, population: int, horizon: int) -> np.ndarray:
    """Standard-normal noise for one CEM iteration, shape (population, horizon, 2).

    The first draws of the Philox stream keyed by (seed mod 2^64,
    iteration << 32), filled in C order: the population is sampled as one
    block, and a wider population at the same horizon extends the rows.
    """
    return _candidate_rng(seed, iteration).standard_normal((population, horizon, 2))


def _clip_controls(raw: np.ndarray, state: RobotState, dt: float) -> np.ndarray:
    """Clip sampled controls to speed, accel and turn-rate bounds.

    The speed channel is clipped sequentially so |v_t - v_{t-1}| <= a_max*dt
    holds along the whole sequence, starting from the current speed. Clipping
    to [0, v_max] first and to the accel band per step selects the same
    floats as clipping to their intersection, because every previous speed
    already lies in [0, v_max]. ndarray.clip, not np.maximum/np.minimum, for
    the bounds: clip keeps the sign of a -0.0 sample, which that pair drops.
    """
    out = np.empty(raw.shape)
    v = raw[:, :, 0].clip(0.0, state.v_max, out=out[:, :, 0])
    step = state.a_max * dt
    prev = state.speed
    for t in range(v.shape[1]):
        col = v[:, t]
        np.maximum(col, prev - step, out=col)
        np.minimum(col, prev + step, out=col)
        prev = col
    raw[:, :, 1].clip(-state.omega_max, state.omega_max, out=out[:, :, 1])
    return out


def _rollout_batch(state: RobotState, controls: np.ndarray, dt: float) -> np.ndarray:
    """Forward-integrate unicycle controls, shape (n, w, 2) -> (n, w+1, 2).

    Heading updates before displacement: theta_{t+1} = theta_t + omega_t*dt,
    q_{t+1} = q_t + v_t*dt*(cos theta_{t+1}, sin theta_{t+1}).
    """
    v = controls[:, :, 0]
    om = controls[:, :, 1]
    theta = state.heading + (om * dt).cumsum(axis=1)
    step = v * dt
    dx = step * np.cos(theta)
    dy = step * np.sin(theta)
    n, w = v.shape
    waypoints = np.empty((n, w + 1, 2), dtype=float)
    waypoints[:, 0, 0] = state.position.x
    waypoints[:, 0, 1] = state.position.y
    waypoints[:, 1:, 0] = state.position.x + dx.cumsum(axis=1)
    waypoints[:, 1:, 1] = state.position.y + dy.cumsum(axis=1)
    return waypoints


def rollout(state: RobotState, controls: ControlSequence, dt: float) -> Trajectory:
    """Trajectory traced by one control sequence from the given state."""
    waypoints = _rollout_batch(state, controls.controls[np.newaxis], dt)[0]
    return Trajectory(waypoints, dt)


def rollout_headings(state: RobotState, controls: np.ndarray, dt: float) -> np.ndarray:
    """Heading at each waypoint of a single rollout, shape (w+1,), wrapped by wrap_angle."""
    raw = np.concatenate([[state.heading], state.heading + (controls[:, 1] * dt).cumsum()])
    return np.array([wrap_angle(h) for h in raw.tolist()])


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
    """The outcome of one cross-entropy search."""

    controls: np.ndarray  # (w, 2) best sequence ever seen
    waypoints: np.ndarray  # (w+1, 2) its rollout
    cost: float
    final_mean: np.ndarray  # (w, 2) fitted mean after the last iteration
    best_cost_history: list[float]  # best-ever cost after each iteration
    # The objective's terms for the best sequence, each of shape (1,); None
    # when no candidate scored below +inf.
    terms: dict[str, np.ndarray] | None


def _cem_optimize(
    objective: Objective,
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
    ``objective`` must score row r for search r // population. Selection and
    refit are array operations over the search axis, with the bits of one
    search run on its own. Each search tracks the best candidate it ever
    scored and keeps that row of the objective's term dict, so the caller
    can report it without scoring the sequence again. Warm-start sequences
    (G, w, 2), when given, ride along in iteration 0's rollout and objective
    call as G extra rows; they seed the trackers before that iteration's
    candidates are compared, and take no part in its refit.
    """
    g, w, _ = init_mean.shape
    n = params.cem_population
    first_rows = np.arange(g) * n  # each search's first row in a population
    # Array methods and ufuncs, not np.* wrappers: the same C routines, less Python.
    mean, std = init_mean, init_std  # std: one spread (w, 2) or one per search (G, w, 2)
    # Each iteration's (controls, waypoints, terms), then a zero placeholder
    # (best_at -1): search i's best so far is row best_row[i] of scored[best_at[i]].
    scored = []
    best_cost, best_at, best_row = np.empty(g), np.empty(g, dtype=np.intp), np.zeros(g, np.intp)
    best_cost.fill(math.inf)
    best_at.fill(-1)
    history = np.empty((g, len(noise)))
    for k, z in enumerate(noise):
        raw = np.empty((g, n, 2 * w))
        np.multiply(std.reshape(-1, 1, 2 * w), z.reshape(n, 2 * w), out=raw)
        raw += mean.reshape(g, 1, 2 * w)  # mean + std * z's bits: product, then sum
        controls = _clip_controls(raw.reshape(g * n, w, 2), state, params.dt)
        warm = k == 0 and warm_controls is not None
        if warm:
            controls = np.concatenate([controls, warm_controls])
        waypoints = _rollout_batch(state, controls, params.dt)
        terms = _score_chunked(objective, waypoints)
        scored.append((controls, waypoints, terms))
        if warm:
            best_cost = terms["total"][g * n:].copy()
            best_at[:], best_row = 0, g * n + np.arange(g)
        costs = terms["total"][: g * n].reshape(g, n)
        # argmin picks a NaN row if any, and NaN < best is False.
        rows = first_rows + costs.argmin(axis=1)  # flat: numpy's fast index path
        row_cost = terms["total"][rows]
        improved = row_cost < best_cost
        np.copyto(best_cost, row_cost, where=improved)
        np.copyto(best_at, k, where=improved)
        np.copyto(best_row, rows, where=improved)
        order = costs.argsort(axis=1, kind="stable")[:, : params.cem_elites]
        elites = controls[first_rows[:, np.newaxis] + order]  # (G, cem_elites, w, 2)
        # elites.mean(axis=1) and .std(axis=1) by numpy's own steps (a sum, then
        # a division by the count): the same bits, with less per-call overhead.
        mean = np.add.reduce(elites, axis=1) / params.cem_elites
        history[:, k] = best_cost
        if k + 1 < len(noise):  # after the last iteration only final_mean is read
            var = np.add.reduce(np.square(elites - mean[:, np.newaxis]), axis=1)
            std = np.maximum(np.sqrt(var / params.cem_elites), _STD_FLOOR)
    scored.append((np.zeros((1, w, 2)), np.zeros((1, w + 1, 2)), None))
    results = []
    for i, (k, r) in enumerate(zip(best_at, best_row)):
        controls, waypoints, terms = scored[k]
        results.append(_CEMResult(
            controls[r].copy(), waypoints[r].copy(), float(best_cost[i]), mean[i], history[i].tolist(),
            None if terms is None else {name: values[r:r + 1] for name, values in terms.items()},
        ))
    return results


def _plan_path(waypoints: np.ndarray, dt: float) -> Trajectory:
    try:  # a path beyond COORD_LIMIT is the plan's failure, not a bad input
        return Trajectory(waypoints, dt)
    except ValueError as exc:
        raise PlannerFailure(f"planned {exc}") from None


def _task_objective(scenario: ScenarioSpec, goal_xy: np.ndarray) -> Objective:
    """Task cost toward ``goal_xy``: one goal (2,), or one per row (n, 1, 2)."""

    def objective(waypoints: np.ndarray) -> dict[str, np.ndarray]:
        return task_cost_batch(
            waypoints,
            scenario.planner.dt,
            goal_xy,
            scenario.obstacles,
            scenario.robot.radius,
            scenario.task_weights,
        )

    return objective


def _legible_objective(scenario: ScenarioSpec, predictions: PredictedPathSet) -> Objective:
    """Combined objective with the predicted paths held fixed."""
    dt = scenario.planner.dt
    pred_waypoints = np.array([predictions[goal.id].waypoints for goal in scenario.goals])
    return legible_objective(
        dt, velocity_points(pred_waypoints, dt), scenario.goals, designated_observer(scenario),
        scenario.obstacles, scenario.robot.radius, scenario.task_weights, scenario.legibility,
    )


def plan_once(
    scenario: ScenarioSpec, rng_seed: int | None = None, robot: RobotState | None = None
) -> PlanResult:
    """One planning cycle from ``robot`` (scenario.robot by default; the closed
    loop passes its executed state): per-goal predictions, then the mode's objective.

    Baseline mode returns the target-goal prediction directly. Legible mode
    runs a second optimization of the combined cost, warm-started from the
    target prediction's control distribution. The one exception: with both
    lambda weights zero that objective coincides with the task cost, so the
    target prediction is returned unchanged, and the legible objective scores
    that one row again so the report carries its raw similarity and FOV terms.

    The reported breakdown is CostBreakdown.from_terms of the chosen row's
    terms. A prediction search that scored no candidate finitely raises
    PlannerFailure, and so do a path beyond COORD_LIMIT and a collided chosen
    row, whose breakdown carries zero similarity and FOV terms.
    """
    params = scenario.planner
    robot = scenario.robot if robot is None else robot
    seed = scenario.seed if rng_seed is None else rng_seed
    init_std = np.empty((params.horizon_w, 2))
    init_std[:] = params.cem_init_std_v, params.cem_init_std_omega
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
            scenario, goals_xy.repeat(params.cem_population, axis=0)[:, np.newaxis]
        ),
        robot,
        params,
        noise,
        np.array([
            _initial_mean(
                robot, params.horizon_w, params.dt, scenario.task_weights.v_pref, goal.position
            )
            for goal in scenario.goals
        ]),
        init_std,
    )
    if not all(math.isfinite(res.cost) for res in results):
        raise PlannerFailure("no candidate scored a finite cost")
    predictions: PredictedPathSet = {
        goal.id: _plan_path(res.waypoints, params.dt)
        for goal, res in zip(scenario.goals, results)
    }

    chosen = results[scenario.goals.index(target := scenario.target_goal())]
    terms, trajectory = chosen.terms, predictions[target.id]
    if params.mode == "legible":
        objective = _legible_objective(scenario, predictions)
        leg = scenario.legibility
        if leg.lambda_sim > 0 or leg.lambda_fov > 0:
            (chosen,) = _cem_optimize(
                objective,
                robot,
                params,
                noise,
                chosen.final_mean[np.newaxis],
                init_std,
                warm_controls=chosen.controls[np.newaxis],
            )
            terms, trajectory = chosen.terms, _plan_path(chosen.waypoints, params.dt)
        else:
            terms = objective(chosen.waypoints[np.newaxis])
    breakdown = CostBreakdown.from_terms(terms)
    if breakdown.collided:
        raise PlannerFailure(
            "no collision-free candidate found", breakdown=breakdown
        )
    return PlanResult(
        trajectory=trajectory,
        breakdown=breakdown,
        predictions=predictions,
        controls=ControlSequence(chosen.controls),
    )


def _execute(
    plan: PlanResult, state: RobotState, goal: Point2, params: PlannerParams
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], RobotState, bool]:
    """Execute ``plan``'s first execute_steps controls from ``state``, stopping
    at the first waypoint within goal_tolerance of ``goal``.

    Returns the executed rows (waypoints (k, 2), headings (k,), controls
    (k, 2)), the state after them and whether the goal was reached.
    """
    waypoints = plan.trajectory.waypoints[1 : params.execute_steps + 1]
    for k, (x, y) in enumerate(waypoints.tolist(), 1):
        if reached := Point2(x, y).distance_to(goal) <= params.goal_tolerance:
            break
    controls = plan.controls.controls[:k]
    headings = rollout_headings(state, controls, params.dt)[1:]
    state = dataclasses.replace(
        state, position=Point2(x, y), heading=float(headings[-1]), speed=float(controls[-1, 0])
    )
    return (waypoints[:k], headings, controls), state, reached


def run_closed_loop(scenario: ScenarioSpec) -> SimulationResult:
    """Plan from the current state, execute the plan's first controls, replan;
    stop at the goal or the cycle budget.

    Cycle i plans from the state cycle i-1 reached, with the optimizer
    reseeded by (seed + i) mod 2^64, which makes the whole run a pure
    function of the scenario.
    """
    params, state = scenario.planner, scenario.robot
    goal = scenario.target_goal().position
    # The start, then each cycle's executed rows: (waypoints, headings, controls).
    rows = [(state.position.as_array()[np.newaxis], np.array([state.heading], dtype=float),
             np.zeros((0, 2)))]
    plan_results: list[PlanResult] = []
    reached = state.position.distance_to(goal) <= params.goal_tolerance
    while not reached and len(plan_results) < params.max_cycles:
        cycle_seed = (scenario.seed + len(plan_results)) % _SEED_MODULUS
        try:
            result = plan_once(scenario, rng_seed=cycle_seed, robot=state)
        except PlannerFailure as failure:
            failure.partial = _finish_simulation(plan_results, rows, params.dt, False)
            raise
        plan_results.append(result)
        executed, state, reached = _execute(result, state, goal, params)
        rows.append(executed)
    return _finish_simulation(plan_results, rows, params.dt, reached)


def _finish_simulation(
    plan_results: list[PlanResult],
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    dt: float,
    reached: bool,
) -> SimulationResult:
    positions, headings, controls = (np.concatenate(column) for column in zip(*rows))
    if len(positions) == 1:
        # Degenerate run (started at the goal): duplicate the start so the
        # executed path is still a valid trajectory.
        positions, headings = positions.repeat(2, axis=0), headings.repeat(2)
    return SimulationResult(
        plan_results=tuple(plan_results),
        executed=Trajectory(positions, dt),
        headings=headings,
        controls=controls,
        reached=reached,
    )
