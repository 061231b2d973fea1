"""Workload definitions and their seeded inputs.

Inputs are made from the workload seed alone (``random.Random`` seeded with
a string, which is stable across Python versions) plus the frozen scene files
in ``scenes/``.  This module does not import legiplan: input generation is the
benchmark's own work, done before the set-up clock starts, and a planner
change cannot alter what it makes.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

SCENE_DIR = Path(__file__).resolve().parent / "scenes"

LEGIBLE_SCENES = ("fig1_two_goals", "fig3_obstacle_detour", "restaurant_front", "restaurant_side")
FOV_SCENES = ("fig4_fov_sweep_center", "fig4_fov_sweep_left", "fig4_fov_sweep_right")
LOG_WAYPOINTS = (20, 200)  # inclusive range of waypoints per generated log
CSV_HEADER = "t,x,y,heading,v,omega,clearance"
FREE_SPACE = 1e9  # clearance column value with no obstacles, as the program writes it


@dataclass(frozen=True)
class Workload:
    """What one named workload runs.

    ``rounds`` full passes over ``scenes`` make the fixed set of operations
    every run completes; L_mean, the worst clearance and output_sha256 come
    from that set only, so they do not depend on how fast the program is.
    """

    name: str
    kind: str  # "closed_loop" | "score"
    scenes: tuple[str, ...]
    rounds: int
    mode: str | None = None

    @property
    def fixed_ops(self) -> int:
        return self.rounds * len(self.scenes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("legible_multigoal", "closed_loop", LEGIBLE_SCENES, 4, "legible"),
        Workload("baseline_single_goal", "closed_loop", FOV_SCENES, 8, "baseline"),
        Workload("score_logs", "score", LEGIBLE_SCENES + FOV_SCENES, 32),
    )
}


@dataclass(frozen=True)
class Scene:
    name: str
    raw: bytes  # the file's bytes, as handed to parse_scenario
    data: dict  # decoded JSON, for input generation and the clearance oracle


def load_scene(name: str) -> Scene:
    raw = (SCENE_DIR / f"{name}.json").read_bytes()
    return Scene(name, raw, json.loads(raw))


def clearance_margin(points: np.ndarray, scene: Scene) -> np.ndarray:
    """Distance from each point to the nearest obstacle minus the robot radius.

    An independent oracle for the program's clearance: signed distance to
    circles and axis-aligned rectangles read straight from the scene JSON.
    """
    pts = np.asarray(points, dtype=float)
    out = np.full(pts.shape[:-1], math.inf)
    for obs in scene.data["obstacles"]:
        if obs["type"] == "circle":
            d = np.linalg.norm(pts - np.array(obs["center"]), axis=-1) - obs["radius"]
        else:
            lo, hi = np.array(obs["min"]), np.array(obs["max"])
            q = np.abs(pts - 0.5 * (lo + hi)) - 0.5 * (hi - lo)
            d = np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(q.max(axis=-1), 0.0)
        out = np.minimum(out, d)
    return out - scene.data["robot"]["radius"]


def episode_inputs(workload: str, seed: int) -> Iterator[tuple[str, int]]:
    """Endless (scene, planner seed) stream: scenes round-robin, seeds drawn."""
    rng = random.Random(f"{workload}/{seed}")
    scenes = WORKLOADS[workload].scenes
    k = 0
    while True:
        yield scenes[k % len(scenes)], rng.getrandbits(63)
        k += 1


@dataclass(frozen=True)
class Log:
    scene: str
    waypoints: np.ndarray  # (n, 2) as generated, before formatting
    dt: float
    csv: bytes


def _log_path(rng: random.Random, start: np.ndarray, goal: np.ndarray, n: int) -> np.ndarray:
    """A path from start toward goal, bowed sideways, wiggled and jittered."""
    s = np.linspace(0.0, 1.0, n)
    delta = goal - start
    normal = np.array([-delta[1], delta[0]]) / math.hypot(*delta)
    reach = rng.uniform(0.6, 1.0)
    bow = rng.uniform(-1.0, 1.0)
    wiggle = rng.uniform(0.0, 0.2)
    freq = rng.randint(2, 5)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    lateral = np.sin(math.pi * s) * (bow + wiggle * np.sin(2.0 * math.pi * freq * s + phase))
    jitter = np.array([[rng.gauss(0.0, 0.01), rng.gauss(0.0, 0.01)] for _ in range(n)])
    jitter[0] = 0.0
    return start + np.outer(reach * s, delta) + np.outer(lateral, normal) + jitter


def _log_csv(points: np.ndarray, dt: float, scene: Scene) -> bytes:
    """The trajectory log format: t to 6 decimals, other columns 9 significant digits."""
    step = np.diff(points, axis=0)
    heading = np.arctan2(step[:, 1], step[:, 0])
    heading = np.concatenate([[heading[0]], heading])
    v = np.concatenate([[0.0], np.linalg.norm(step, axis=1) / dt])
    omega = np.concatenate([[0.0], np.angle(np.exp(1j * np.diff(heading))) / dt])
    clr = clearance_margin(points, scene) + scene.data["robot"]["radius"]
    clr = np.where(np.isinf(clr), FREE_SPACE, clr)
    lines = [CSV_HEADER]
    for i, (x, y) in enumerate(points):
        lines.append(
            f"{i * dt:.6f},{x:.9g},{y:.9g},{heading[i]:.9g},{v[i]:.9g},{omega[i]:.9g},{clr[i]:.9g}"
        )
    return ("\n".join(lines) + "\n").encode()


def make_logs(seed: int, scenes: dict[str, Scene], count: int) -> list[Log]:
    """Logged trajectories for score_logs, independent of the planner.

    Waypoint counts are spread evenly over LOG_WAYPOINTS and heading goals
    alternate per scene, both in a seed-shuffled order, so that every seed
    scores the same mix of log sizes and goals and only the paths differ.
    """
    rng = random.Random(f"score_logs/{seed}")
    names = WORKLOADS["score_logs"].scenes
    low, high = LOG_WAYPOINTS
    sizes = [low + round(i * (high - low) / (count - 1)) for i in range(count)]
    rng.shuffle(sizes)
    logs = []
    for k in range(count):
        scene = scenes[names[k % len(names)]]
        goals = scene.data["goals"]
        start = np.array(scene.data["robot"]["position"], dtype=float)
        goal = np.array(goals[(k // len(names)) % len(goals)]["position"], dtype=float)
        points = _log_path(rng, start, goal, sizes[k])
        dt = scene.data["planner"]["dt"]
        logs.append(Log(scene.name, points, dt, _log_csv(points, dt, scene)))
    return logs


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program, made from its seed."""

    workload: Workload
    scenes: dict[str, Scene]
    episodes: Iterator[tuple[str, int]] | None  # closed-loop workloads
    logs: list[Log] | None  # score_logs


def generate(workload: str, seed: int) -> Inputs:
    spec = WORKLOADS[workload]
    scenes = {name: load_scene(name) for name in spec.scenes}
    if spec.kind == "closed_loop":
        return Inputs(spec, scenes, episode_inputs(workload, seed), None)
    return Inputs(spec, scenes, None, make_logs(seed, scenes, spec.fixed_ops))
