"""Bit parity of the flat-batch kernels with per-row reference formulas.

task_cost_batch and velocity_points take their row differences on shifted
slices of the flat batch, so some computed values straddle two rows; none may
reach a term, or raise a floating-point error the row-wise formulas would not
raise. legible_objective repeats its predictions to the batch's rows once and
reads their leading rows. The references below take one row at a time, and
every comparison is bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from legiplan import (  # noqa: E402
    CircleObstacle, Goal, LegibilityParams, ObserverState, PlannerParams, Point2, TaskCostWeights,
)
from legiplan.legibility import legible_objective  # noqa: E402
from legiplan.model import COORD_LIMIT, clearance_points, velocity_points  # noqa: E402
from legiplan.task_cost import task_cost_batch  # noqa: E402

WEIGHTS = TaskCostWeights()
RADIUS = 0.2
OBSTACLES = st.sampled_from([(), (CircleObstacle(Point2(1.0, 0.5), 0.75),)])
coords = st.floats(-50.0, 50.0, allow_nan=False)
whole = st.integers(-50, 50).map(float)  # exact differences: no rounding, no underflow
corner = st.tuples(*[st.sampled_from([-COORD_LIMIT, COORD_LIMIT])] * 2)


def batches(elements) -> st.SearchStrategy[np.ndarray]:
    """(n, T, 2) batches of 1-6 rows and 2-12 waypoints."""
    shapes = st.tuples(st.integers(1, 6), st.integers(2, 12), st.just(2))
    return shapes.flatmap(lambda shape: arrays(float, shape, elements=elements))


def with_far_rows(batch: np.ndarray, far: list, corners: list) -> np.ndarray:
    """``batch`` with each row r where ``far[r]`` held at a corner of the coordinate domain."""
    batch = batch.copy()
    for r, is_far, xy in zip(range(len(batch)), far, corners):
        if is_far:
            batch[r] = xy
    return batch


def ref_velocities(row: np.ndarray, dt: float) -> np.ndarray:
    diffs = (row[1:] - row[:-1]) / dt
    return np.concatenate([diffs, diffs[-1:]])


def ref_terms(row: np.ndarray, dt: float, obstacles) -> list[float]:
    """The smooth, speed and approach terms of one row (T, 2), row-wise."""
    accel = row[2:] - 2.0 * row[1:-1] + row[:-2]
    vel = ref_velocities(row, dt)
    speeds = np.sqrt(vel[:, 0] * vel[:, 0] + vel[:, 1] * vel[:, 1])
    c = clearance_points(row, obstacles) - RADIUS
    return [
        np.sum(accel**2) / dt**4,
        np.sum((WEIGHTS.v_pref - speeds) ** 2) / WEIGHTS.v_pref**2,
        np.sum(np.maximum(0.0, c[:-1] - c[1:])) / WEIGHTS.d_safe,
    ]


def assert_rows_match(batch: np.ndarray, dt: float, obstacles) -> None:
    terms = task_cost_batch(batch, dt, np.zeros(2), obstacles, RADIUS, WEIGHTS)
    expected = np.array([ref_terms(row, dt, obstacles) for row in batch])
    for i, name in enumerate(("smooth", "speed", "approach")):
        assert terms[name].tobytes() == expected[:, i].tobytes(), name
    vel = velocity_points(batch, dt)
    assert vel.shape == batch.shape
    for row, got in zip(batch, vel):
        assert got.tobytes() == np.ascontiguousarray(ref_velocities(row, dt)).tobytes()


@settings(max_examples=200, deadline=None)
@given(batch=batches(coords), still=st.booleans(), dt=st.floats(0.05, 1.0), obstacles=OBSTACLES)
def test_task_terms_and_velocities_are_the_row_formulas(batch, still, dt, obstacles):
    if still:
        batch[:, 1] = batch[:, 0]  # a zero-velocity step
    assert_rows_match(batch, dt, obstacles)


@settings(max_examples=150, deadline=None)
@given(
    batch=batches(whole), far=st.lists(st.booleans(), min_size=6, max_size=6),
    corners=st.lists(corner, min_size=6, max_size=6), dt=st.sampled_from([0.25, 0.4, 1.0]),
    obstacles=OBSTACLES,
)
def test_a_row_at_the_domain_edge_leaks_nothing_into_its_neighbours(
    batch, far, corners, dt, obstacles
):
    # A difference across rows is about 1e150 here, and no row-wise value
    # under- or overflows: a straddling value that reaches a term shows in its
    # bits, and one that overflows raises.
    with np.errstate(all="raise"):
        assert_rows_match(with_far_rows(batch, far, corners), dt, obstacles)


@settings(max_examples=150, deadline=None)
@given(
    batch=batches(whole), far=st.lists(st.booleans(), min_size=6, max_size=6),
    corners=st.lists(corner, min_size=6, max_size=6), dt=st.sampled_from([1e-300, 1e-200, 0.5]),
)
def test_velocities_across_rows_do_not_overflow_a_tiny_dt(batch, far, corners, dt):
    # (1e150 - 50) / 1e-300 overflows, so each straddling difference must be
    # zeroed before the division; a row's own differences stay below 1e303.
    batch = with_far_rows(batch, far, corners)
    with np.errstate(all="raise"):
        vel = velocity_points(batch, dt)
        for row, got in zip(batch, vel):
            assert got.tobytes() == np.ascontiguousarray(ref_velocities(row, dt)).tobytes()


GOALS = (
    Goal("A", Point2(3.0, -1.2)), Goal("B", Point2(4.0, 0.3)),
    Goal("T", Point2(3.0, 1.2), is_target=True),
)


def _objective(order, pred_velocities):
    return legible_objective(
        0.4, pred_velocities[list(order)], [GOALS[i] for i in order],
        ObserverState("O", Point2(3.5, 1.2), heading=math.pi),
        (CircleObstacle(Point2(1.5, 0.0), 0.4),), RADIUS, WEIGHTS, LegibilityParams(),
    )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), order=st.permutations(range(len(GOALS))),
    sizes=st.permutations([PlannerParams().cem_population + 1, PlannerParams().cem_population, 1]),
)
def test_legible_objective_rows_equal_the_per_call_broadcast(seed, order, sizes):
    # One objective scores batches of several sizes in any order, as the
    # planner's first call (population + warm row) and later ones do; each row
    # must read what a fresh one-row objective, whose predictions broadcast
    # per call, gives it, whatever the goals' order.
    rng = np.random.default_rng(seed)
    pred_velocities = rng.normal(scale=0.5, size=(len(GOALS), 11, 2))
    objective = _objective(order, pred_velocities)
    for n in sizes:
        batch = np.cumsum(rng.normal(scale=0.4, size=(n, 11, 2)), axis=1)
        got = objective(batch)
        alone = [_objective(range(len(GOALS)), pred_velocities)(batch[r:r + 1]) for r in range(n)]
        for name, values in got.items():
            assert values.tobytes() == np.concatenate([a[name] for a in alone]).tobytes(), name
