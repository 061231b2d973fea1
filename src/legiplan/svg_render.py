"""Deterministic SVG rendering of scenarios and trajectories.

The output is plain hand-built SVG with fixed-precision coordinates, so
identical inputs always produce byte-identical files (which makes golden
tests possible). World y points up; the renderer flips it at emit time.
"""
from __future__ import annotations

import math

import numpy as np

from .legibility import PredictedPathSet
from .model import CircleObstacle, ScenarioSpec, Trajectory

MARGIN = 1.0  # m of padding around the scene
PIXELS_PER_METER = 80.0
FOV_WEDGE_DEPTH = 2.0  # m, display depth of the (infinite) FOV wedge

OBSTACLE_FILL = "#9e9e9e"
FOV_FILL = "#00bcd4"
OBSERVER_COLOR = "#00838f"
TARGET_GOAL_COLOR = "#1b5e20"
GOAL_COLOR = "#b71c1c"
TRAJECTORY_COLORS = {
    "legible": "#1b7a1b",  # dark green
    "baseline": "#8fd48f",  # light green
}
FALLBACK_TRAJECTORY_COLOR = "#5c6bc0"
PREDICTION_TARGET_COLOR = "#2e8b57"
PREDICTION_OTHER_COLOR = "#d64541"
# xml.sax.saxutils.escape's table for text; importing that module loads urllib.request.
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def _pt(x: float, y: float) -> str:
    # Flip y so world +y renders upward.
    return f"{_fmt(x)},{_fmt(-y)}"


def _polyline(points: np.ndarray, color: str, width: float, dashed: bool = False,
              marker: str | None = None) -> str:
    coords = " ".join(_pt(float(p[0]), float(p[1])) for p in points)
    dash = ' stroke-dasharray="0.15,0.1"' if dashed else ""
    mark = f' marker-end="url(#{marker})"' if marker else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{_fmt(width)}" stroke-linecap="round"{dash}{mark}/>'
    )


def _scene_bounds(
    scenario: ScenarioSpec,
    trajectories: list[tuple[str, Trajectory]],
    predictions: PredictedPathSet | None,
) -> tuple[float, float, float, float]:
    xs = [scenario.robot.position.x]
    ys = [scenario.robot.position.y]
    for goal in scenario.goals:
        xs.append(goal.position.x)
        ys.append(goal.position.y)
    for obs in scenario.observers:
        xs.append(obs.position.x)
        ys.append(obs.position.y)
    for ob in scenario.obstacles:
        if isinstance(ob, CircleObstacle):
            xs.extend([ob.center.x - ob.radius, ob.center.x + ob.radius])
            ys.extend([ob.center.y - ob.radius, ob.center.y + ob.radius])
        else:
            xs.extend([ob.min.x, ob.max.x])
            ys.extend([ob.min.y, ob.max.y])
    for traj in [*(traj for _, traj in trajectories), *(predictions or {}).values()]:
        xs.extend(traj.waypoints[:, 0].tolist())
        ys.extend(traj.waypoints[:, 1].tolist())
    return min(xs) - MARGIN, max(xs) + MARGIN, min(ys) - MARGIN, max(ys) + MARGIN


def render_svg(
    scenario: ScenarioSpec,
    trajectories: list[tuple[str, Trajectory]] | None = None,
    predictions: PredictedPathSet | None = None,
) -> bytes:
    """Render the scene plus labeled trajectories to SVG bytes.

    Executed trajectories are drawn as solid polylines (legible dark green,
    baseline light green); predicted per-goal paths as dashed arrows (target
    green, others red); observers as cyan FOV wedges.
    """
    trajectories = trajectories or []
    x0, x1, y0, y1 = _scene_bounds(scenario, trajectories, predictions)
    width = x1 - x0
    height = y1 - y0
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{_fmt(width * PIXELS_PER_METER)}" '
        f'height="{_fmt(height * PIXELS_PER_METER)}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(width)} {_fmt(height)}">',
        "<defs>",
        '<marker id="arrow-target" viewBox="0 0 10 10" refX="8" refY="5" '
        'markerWidth="4" markerHeight="4" orient="auto-start-reverse">'
        f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{PREDICTION_TARGET_COLOR}"/></marker>',
        '<marker id="arrow-other" viewBox="0 0 10 10" refX="8" refY="5" '
        'markerWidth="4" markerHeight="4" orient="auto-start-reverse">'
        f'<path d="M 0 0 L 10 5 L 0 10 z" fill="{PREDICTION_OTHER_COLOR}"/></marker>',
        "</defs>",
        f'<rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    for ob in scenario.obstacles:
        if isinstance(ob, CircleObstacle):
            parts.append(
                f'<circle cx="{_fmt(ob.center.x)}" cy="{_fmt(-ob.center.y)}" '
                f'r="{_fmt(ob.radius)}" fill="{OBSTACLE_FILL}"/>'
            )
        else:
            parts.append(
                f'<rect x="{_fmt(ob.min.x)}" y="{_fmt(-ob.max.y)}" '
                f'width="{_fmt(ob.max.x - ob.min.x)}" height="{_fmt(ob.max.y - ob.min.y)}" '
                f'fill="{OBSTACLE_FILL}"/>'
            )

    for obs in scenario.observers:
        left = obs.heading + obs.fov / 2.0
        right = obs.heading - obs.fov / 2.0
        apex = (obs.position.x, obs.position.y)
        tips = [
            (apex[0] + FOV_WEDGE_DEPTH * math.cos(a), apex[1] + FOV_WEDGE_DEPTH * math.sin(a))
            for a in (left, right)
        ]
        wedge = " ".join(_pt(*p) for p in (apex, tips[0], tips[1]))
        parts.append(f'<polygon points="{wedge}" fill="{FOV_FILL}" fill-opacity="0.25"/>')
        parts.append(
            f'<circle cx="{_fmt(apex[0])}" cy="{_fmt(-apex[1])}" r="0.12" '
            f'fill="{OBSERVER_COLOR}"/>'
        )
        parts.append(
            f'<text x="{_fmt(apex[0] + 0.2)}" y="{_fmt(-(apex[1] + 0.2))}" '
            f'font-size="0.3" font-family="sans-serif" fill="{OBSERVER_COLOR}">'
            f'{obs.id.translate(_XML_TEXT)}</text>'
        )

    if predictions:
        target_id = scenario.target_goal().id
        for goal in scenario.goals:
            traj = predictions.get(goal.id)
            if traj is None:
                continue
            is_target = goal.id == target_id
            color = PREDICTION_TARGET_COLOR if is_target else PREDICTION_OTHER_COLOR
            marker = "arrow-target" if is_target else "arrow-other"
            parts.append(_polyline(traj.waypoints, color, 0.04, dashed=True, marker=marker))

    for label, traj in trajectories:
        color = TRAJECTORY_COLORS.get(label, FALLBACK_TRAJECTORY_COLOR)
        parts.append(_polyline(traj.waypoints, color, 0.08))

    start = scenario.robot.position
    parts.append(
        f'<circle cx="{_fmt(start.x)}" cy="{_fmt(-start.y)}" '
        f'r="{_fmt(scenario.robot.radius)}" fill="none" stroke="#333333" '
        'stroke-width="0.04"/>'
    )
    for goal in scenario.goals:
        color = TARGET_GOAL_COLOR if goal.is_target else GOAL_COLOR
        parts.append(
            f'<circle cx="{_fmt(goal.position.x)}" cy="{_fmt(-goal.position.y)}" '
            f'r="0.15" fill="{color}"/>'
        )
        if goal.is_target:
            parts.append(
                f'<circle cx="{_fmt(goal.position.x)}" cy="{_fmt(-goal.position.y)}" '
                f'r="0.25" fill="none" stroke="{color}" stroke-width="0.05"/>'
            )
        label = goal.id.translate(_XML_TEXT) + ("*" if goal.is_target else "")
        parts.append(
            f'<text x="{_fmt(goal.position.x + 0.3)}" y="{_fmt(-(goal.position.y + 0.1))}" '
            f'font-size="0.35" font-family="sans-serif" fill="{color}">{label}</text>'
        )

    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
