"""Timed operations and correctness checks.

The program under test receives only the inputs ``inputs.generate`` made
from the seed, through its public API.  Two operation kinds exist:

* closed loop -- one episode: ``run_closed_loop``, then ``evaluate_trajectory``
  and the CSV and SVG a ``simulate --out --svg`` run writes, kept in memory;
* score -- one logged trajectory: ``parse_scenario`` and
  ``read_trajectory_csv`` on bytes, then ``evaluate_trajectory`` at the
  default fractions and on a 20-point grid, each with and without
  ``mask_fov``.

``run_op(timed)`` runs the operation's program calls inside ``timed()``, a
context manager that times them, and judges the outputs after it closes.
Every program function is looked up on its module at call time, so the
tracer's wrappers are seen.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

import legiplan
from inputs import Inputs, Log, clearance_margin

GRID_FRACTIONS = tuple((i + 1) / 20 for i in range(20))


@dataclass
class Outcome:
    """Result of one operation, judged outside the timed region."""

    failure: str | None  # reason the operation failed, None when it passed
    record: bytes = b""  # output bytes hashed into output_sha256
    score: float = math.nan  # legibility L
    margin: float = math.inf  # worst executed clearance margin, m
    cycles: int = 1  # planning cycles the operation ran


class ClosedLoop:
    """Closed-loop episodes in one planner mode over a set of scenes."""

    def __init__(self, inputs: Inputs):
        self.workload = workload = inputs.workload
        self.scenes = inputs.scenes
        self.specs = {}
        for name, scene in self.scenes.items():
            spec = legiplan.parse_scenario(scene.raw)
            self.specs[name] = dataclasses.replace(
                spec, planner=dataclasses.replace(spec.planner, mode=workload.mode)
            )
        self.inputs = inputs.episodes
        self.fixed_ops = workload.fixed_ops

    def warm_up(self) -> None:
        """One planning cycle per scene, at the scene file's own seed."""
        for spec in self.specs.values():
            legiplan.plan_once(spec)

    def run_op(self, timed) -> Outcome:
        name, planner_seed = next(self.inputs)
        spec = dataclasses.replace(self.specs[name], seed=planner_seed)
        mode = spec.planner.mode
        try:
            with timed():
                sim = legiplan.run_closed_loop(spec)
                report = legiplan.evaluate_trajectory(sim.executed, spec)
                rows = legiplan.scenario_io.simulation_rows(sim, spec)
                csv = legiplan.scenario_io.format_trajectory_csv(rows).encode()
                legiplan.render_svg(spec, [(mode, sim.executed)])
        except legiplan.PlannerFailure:
            return Outcome("planner_failure")
        margin = float(clearance_margin(sim.executed.waypoints, self.scenes[name]).min())
        summary = {
            "scene": name, "seed": planner_seed, "mode": mode, "reached": sim.reached,
            "cycles_used": sim.cycles_used, "L": report.score,
            "partial_fractions": list(report.partial_fractions),
            "correctness": list(report.correctness),
        }
        record = csv + json.dumps(summary, sort_keys=True).encode()
        return Outcome(
            _episode_failure(sim, spec, report, margin), record, report.score, margin,
            sim.cycles_used,
        )


def _episode_failure(sim, spec, report, margin: float) -> str | None:
    if not sim.reached:
        return "budget"
    robot, dt, stride = spec.robot, spec.planner.dt, spec.planner.execute_steps
    for i, plan in enumerate(sim.plan_results):
        idx = i * stride
        pos = sim.executed.waypoints[idx]
        state = legiplan.RobotState(
            position=legiplan.Point2(float(pos[0]), float(pos[1])),
            heading=float(sim.headings[idx]),
            speed=float(sim.controls[idx - 1, 0]) if idx else robot.speed,
            radius=robot.radius, v_max=robot.v_max, a_max=robot.a_max,
            omega_max=robot.omega_max,
        )
        if not plan.controls.respects(state, dt):
            return "control_bounds"
    if margin < 0.0:
        return "clearance"
    if not 0.0 <= report.score <= 1.0:
        return "score_range"
    return None


class ScoreLogs:
    """Synthetic-observer scoring of generated trajectory logs."""

    def __init__(self, inputs: Inputs):
        self.workload = inputs.workload
        self.scenes = inputs.scenes
        self.fixed_ops = inputs.workload.fixed_ops
        self.logs = inputs.logs
        self.k = 0

    def warm_up(self) -> None:
        """Score one log per scene."""
        for log in self.logs[: len(self.scenes)]:
            self._score(log)

    def _score(self, log: Log):
        spec = legiplan.parse_scenario(self.scenes[log.scene].raw)
        trajectory, _ = legiplan.scenario_io.read_trajectory_csv(log.csv)
        reports = [
            legiplan.evaluate_trajectory(trajectory, spec, mask_fov=mask)
            for mask in (False, True)
        ] + [
            legiplan.evaluate_trajectory(trajectory, spec, fractions=GRID_FRACTIONS, mask_fov=mask)
            for mask in (False, True)
        ]
        return trajectory, reports

    def run_op(self, timed) -> Outcome:
        log = self.logs[self.k % len(self.logs)]
        self.k += 1
        with timed():
            trajectory, reports = self._score(log)
        record = json.dumps([r.to_dict() for r in reports], sort_keys=True).encode()
        return Outcome(_log_failure(log, trajectory, reports), record, reports[0].score)


def _log_failure(log: Log, trajectory, reports) -> str | None:
    # The log holds 9 significant digits, so the read-back path matches the
    # generated one to a relative 1e-8.
    if (
        trajectory.waypoints.shape != log.waypoints.shape
        or not np.allclose(trajectory.waypoints, log.waypoints, rtol=1e-8, atol=1e-12)
        or not math.isclose(trajectory.dt, log.dt, rel_tol=1e-9)
    ):
        return "csv_roundtrip"
    for report in reports:
        if any(abs(sum(p.values()) - 1.0) > 1e-9 for p in report.posteriors):
            return "posterior_sum"
        if not 0.0 <= report.score <= 1.0:
            return "score_range"
    return None


def make(inputs: Inputs):
    return (ClosedLoop if inputs.workload.kind == "closed_loop" else ScoreLogs)(inputs)
