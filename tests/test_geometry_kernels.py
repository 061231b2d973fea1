"""Bit parity of the per-channel geometry kernels with np.linalg.norm.

Each kernel takes its 2-D lengths as sqrt(x*x + y*y) on the x and y channels.
The references below are the same kernels written with
``np.linalg.norm(..., axis=-1)``; every comparison is exact.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from legiplan import CircleObstacle, ObserverState, Point2, TaskCostWeights, Trajectory  # noqa: E402
from legiplan import h_weight  # noqa: E402
from legiplan.legibility import masked_cosines, theta_dev_points  # noqa: E402
from legiplan.model import EMPTY_CLEARANCE, arc_length_prefix, clearance_points  # noqa: E402
from legiplan.model import _hypot2, velocities, velocity_points  # noqa: E402
from legiplan.model import RectObstacle  # noqa: E402
from legiplan.task_cost import task_cost_batch  # noqa: E402

coords = st.floats(-50.0, 50.0, allow_nan=False)
sizes = st.floats(0.01, 20.0, allow_nan=False)


def points_of(shape) -> st.SearchStrategy[np.ndarray]:
    return arrays(float, shape, elements=coords)


def ref_clearance(pts: np.ndarray, obstacles) -> np.ndarray:
    out = np.full(pts.shape[:-1], EMPTY_CLEARANCE)
    for obs in obstacles:
        if isinstance(obs, CircleObstacle):
            d = np.linalg.norm(pts - obs.center.as_array(), axis=-1) - obs.radius
        else:
            center = 0.5 * (obs.min.as_array() + obs.max.as_array())
            half = 0.5 * (obs.max.as_array() - obs.min.as_array())
            q = np.abs(pts - center) - half
            d = np.linalg.norm(np.maximum(q, 0.0), axis=-1) + np.minimum(np.max(q, axis=-1), 0.0)
        np.minimum(out, d, out=out)
    return out


@st.composite
def rect_and_points(draw):
    """A rectangle and points inside it, on its edges and corners, and outside."""
    x0, y0, w, h = draw(coords), draw(coords), draw(sizes), draw(sizes)
    rect = RectObstacle(Point2(x0, y0), Point2(x0 + w, y0 + h))
    lo, hi = rect.min, rect.max
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    special = [
        (lo.x + u[0] * w, lo.y + u[1] * h),  # inside (or on an edge)
        (lo.x, lo.y + u[2] * h), (hi.x, lo.y + u[2] * h),  # left and right edges
        (lo.x + u[3] * w, lo.y), (lo.x + u[3] * w, hi.y),  # bottom and top edges
        (lo.x, lo.y), (hi.x, hi.y), (lo.x, hi.y), (hi.x, lo.y),  # corners
        (0.5 * (lo.x + hi.x), 0.5 * (lo.y + hi.y)),  # centre
    ]
    others = draw(points_of((draw(st.integers(0, 12)), 2)))
    return rect, np.vstack([np.array(special), others])


@settings(max_examples=200, deadline=None)
@given(case=rect_and_points())
def test_rect_clearance_matches_norm(case):
    rect, pts = case
    assert np.array_equal(clearance_points(pts, (rect,)), ref_clearance(pts, (rect,)))


@settings(max_examples=200, deadline=None)
@given(
    cx=coords, cy=coords, r=sizes,
    others=points_of(st.tuples(st.integers(1, 4), st.integers(1, 6), st.just(2))),
)
def test_circle_clearance_matches_norm(cx, cy, r, others):
    circle = CircleObstacle(Point2(cx, cy), r)
    pts = others.copy()
    pts[0, 0] = (cx, cy)  # exactly on the centre
    got = clearance_points(pts, (circle,))
    assert got[0, 0] == -r
    assert np.array_equal(got, ref_clearance(pts, (circle,)))


@settings(max_examples=100, deadline=None)
@given(case=rect_and_points(), cx=coords, cy=coords, r=sizes)
def test_mixed_obstacles_clearance_matches_norm(case, cx, cy, r):
    rect, pts = case
    obstacles = (CircleObstacle(Point2(cx, cy), r), rect)
    assert np.array_equal(clearance_points(pts, obstacles), ref_clearance(pts, obstacles))


def ref_goal_and_speed(waypoints: np.ndarray, goal_xy: np.ndarray, dt: float):
    dists = np.linalg.norm(waypoints - goal_xy, axis=2)
    speeds = np.linalg.norm(np.diff(waypoints, axis=1) / dt, axis=2)
    speeds = np.concatenate([speeds, speeds[:, -1:]], axis=1)
    return dists, speeds


@settings(max_examples=150, deadline=None)
@given(
    waypoints=points_of(st.tuples(st.integers(1, 6), st.integers(2, 9), st.just(2))),
    goal=points_of((2,)),
    per_row=st.booleans(),
    still=st.booleans(),
    dt=st.floats(0.05, 1.0),
)
def test_task_cost_goal_and_speed_terms_match_norm(waypoints, goal, per_row, still, dt):
    if still:
        waypoints[:, 1] = waypoints[:, 0]  # a zero-velocity step
    n = waypoints.shape[0]
    goal_xy = np.broadcast_to(goal, (n, 1, 2)) + np.arange(n)[:, None, None] if per_row else goal
    weights = TaskCostWeights()
    terms = task_cost_batch(waypoints, dt, goal_xy, (), 0.3, weights)
    dists, speeds = ref_goal_and_speed(waypoints, goal_xy, dt)
    assert np.array_equal(terms["goal"], dists[:, -1] + dists.mean(axis=1))
    ref_speed = np.sum((weights.v_pref - speeds) ** 2, axis=1) / weights.v_pref**2
    assert np.array_equal(terms["speed"], ref_speed)


@settings(max_examples=150, deadline=None)
@given(
    waypoints=points_of(st.tuples(st.integers(1, 6), st.integers(2, 9), st.just(2))),
    still=st.booleans(),
    dt=st.floats(0.05, 1.0),
)
def test_velocity_points_is_velocities_per_row(waypoints, still, dt):
    # One finite-difference kernel: the batch form is the per-trajectory form
    # row by row, and the speed term it feeds is the inline one it replaced.
    if still:
        waypoints[:, 1] = waypoints[:, 0]  # a zero-velocity step
    batch = velocity_points(waypoints, dt)
    assert batch.shape == waypoints.shape
    for row, vel in zip(waypoints, batch):
        assert np.array_equal(vel, velocities(Trajectory(row, dt)))
    weights = TaskCostWeights()
    step_v = np.diff(waypoints, axis=1) / dt
    speeds = _hypot2(step_v[..., 0], step_v[..., 1])
    speeds = np.concatenate([speeds, speeds[:, -1:]], axis=1)
    old_speed = np.sum((weights.v_pref - speeds) ** 2, axis=1) / weights.v_pref**2
    terms = task_cost_batch(waypoints, dt, np.zeros(2), (), 0.3, weights)
    assert np.array_equal(terms["speed"], old_speed)


def ref_masked_cosines(vel_a, vel_b, eps_v):
    na = np.linalg.norm(vel_a, axis=-1)
    nb = np.linalg.norm(vel_b, axis=-1)
    usable = (na >= eps_v) & (nb >= eps_v)
    cos = np.sum(vel_a * vel_b, axis=-1) / np.where(usable, na * nb, 1.0)
    return np.where(usable, cos, 0.0)


EPS_V = 1e-6
tiny = st.floats(-EPS_V, EPS_V, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    vel_a=arrays(float, (3, 5, 2), elements=st.one_of(coords, tiny, st.just(0.0))),
    vel_b=arrays(float, (2, 1, 5, 2), elements=st.one_of(coords, tiny, st.just(0.0))),
)
def test_masked_cosines_match_norm(vel_a, vel_b):
    vel_a[0, 0] = 0.0  # a zero speed
    vel_a[0, 1] = (EPS_V / 4, -EPS_V / 4)  # a speed below eps_v
    vel_b[0, 0, 2] = (EPS_V / 2, 0.0)
    got = masked_cosines(vel_a, vel_b, EPS_V)
    assert got.shape == (2, 3, 5)
    assert np.all(got[:, 0, :2] == 0.0)
    # == also holds where a zero cosine comes out as -0.0 rather than +0.0.
    assert np.array_equal(got, ref_masked_cosines(vel_a, vel_b, EPS_V))


def ref_h_weight(pts, g_star_xy, g_xy, h_max):
    if np.all(g_star_xy == g_xy):
        return np.ones(pts.shape[:-1])
    d_star = np.linalg.norm(pts - g_star_xy, axis=-1)
    d_g = np.linalg.norm(pts - g_xy, axis=-1)
    ratio = np.where(d_g == 0.0, h_max, d_star / np.where(d_g == 0.0, 1.0, d_g))
    return np.minimum(ratio, h_max)


@settings(max_examples=200, deadline=None)
@given(
    pts=points_of(st.tuples(st.integers(1, 4), st.integers(2, 8), st.just(2))),
    g_star=points_of((2,)),
    g=points_of((2,)),
    h_max=st.floats(0.5, 10.0),
)
def test_h_weight_matches_norm(pts, g_star, g, h_max):
    pts[0, 0] = g  # exactly on the unintended goal
    pts[-1, -1] = g_star  # exactly on the target
    target, goal = Point2(*g_star), Point2(*g)
    got = np.array([[h_weight(Point2(*p), target, goal, h_max) for p in row] for row in pts])
    if not np.all(g_star == g):
        assert got[0, 0] == h_max
    assert np.array_equal(got, ref_h_weight(pts, g_star, g, h_max))


def ref_theta_dev(pts, observer):
    rel = pts - observer.position.as_array()
    gx, gy = math.cos(observer.heading), math.sin(observer.heading)
    x, y = rel[..., 0], rel[..., 1]
    return np.arctan2(np.abs(x * gy - y * gx), x * gx + y * gy + 0.0)


@settings(max_examples=200, deadline=None)
@given(
    pts=points_of(st.tuples(st.integers(1, 4), st.integers(1, 8), st.just(2))),
    ox=coords, oy=coords,
    heading=st.floats(-math.pi, math.pi),
)
def test_theta_dev_matches_norm(pts, ox, oy, heading):
    observer = ObserverState("O", Point2(ox, oy), heading)
    pts[0, 0] = (ox, oy)  # exactly at the observer
    got = theta_dev_points(pts, observer)
    assert got[0, 0] == 0.0
    assert np.array_equal(got, ref_theta_dev(pts, observer))


@settings(max_examples=200, deadline=None)
@given(
    pts=points_of(st.tuples(st.integers(1, 4), st.integers(1, 8), st.just(2))),
    other=points_of((2,)),
    ox=coords, oy=coords,
    heading=st.floats(-math.pi, math.pi),
)
def test_theta_dev_of_a_point_is_independent_of_its_batch(pts, other, ox, oy, heading):
    # A point's angle has the same bits alone, in a 2-row batch and in any
    # (k, T, 2) batch, T = 1 included.
    observer = ObserverState("O", Point2(ox, oy), heading)
    batch = theta_dev_points(pts, observer)
    for point, angle in zip(pts.reshape(-1, 2), batch.ravel()):
        assert theta_dev_points(point, observer) == angle
        assert theta_dev_points(np.stack([other, point]), observer)[1] == angle


def ref_arc_length_prefix(pts: np.ndarray, fraction: float) -> np.ndarray:
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    target = fraction * cum[-1]
    j = max(int(np.searchsorted(cum, target, side="left")), 1)
    s = (target - cum[j - 1]) / seg[j - 1] if seg[j - 1] > 0.0 else 0.0
    return np.vstack([pts[:j], pts[j - 1] + s * (pts[j] - pts[j - 1])])


@settings(max_examples=100, deadline=None)
@given(
    pts=points_of(st.tuples(st.integers(2, 12), st.just(2))),
    fraction=st.floats(0.0, 1.0),
)
def test_arc_lengths_match_norm(pts, fraction):
    pts[1] = pts[0]  # a zero-length segment
    traj = Trajectory(pts, 0.4)
    assert traj.arc_length() == float(np.cumsum(np.linalg.norm(np.diff(pts, axis=0), axis=1))[-1])
    prefix = arc_length_prefix(traj, fraction)
    assert np.array_equal(prefix.waypoints, ref_arc_length_prefix(pts, fraction))
