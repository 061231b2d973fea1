"""Without obstacles the batch kernels take the clearance terms from one
memoised row and repeat them; they must keep the bits of the full per-row
formula."""
from __future__ import annotations

import math

import numpy as np
import pytest

from legiplan import Goal, LegibilityParams, ObserverState, Point2, TaskCostWeights
from legiplan.legibility import legible_objective
from legiplan.model import EMPTY_CLEARANCE, clearance_points
from legiplan.task_cost import COLLISION_COST, task_cost_batch

DT = 0.4
GOALS = (Goal("A", Point2(3.0, -1.2)), Goal("T", Point2(3.0, 1.2), is_target=True))
OBSERVER = ObserverState("O", Point2(3.5, 1.2), heading=math.pi)
PARAMS = LegibilityParams(lambda_sim=1.3, lambda_fov=0.6)


def frozen_clearance_terms(waypoints, robot_radius, weights):
    """The per-row clearance formula of task_cost._task_terms, every row
    measured on its own."""
    c = clearance_points(waypoints, ()) - robot_radius  # (n, T)
    collided = (c < 0.0).any(axis=1)
    j_clr = np.add.reduce((np.maximum(0.0, weights.d_safe - c) / weights.d_safe) ** 2, axis=1)
    j_app = np.add.reduce(np.maximum(0.0, c[:, :-1] - c[:, 1:]), axis=1) / weights.d_safe
    return {"collided": collided, "clearance": j_clr, "approach": j_app}


def frozen_task_total(terms, clearance, weights):
    total = (
        weights.w_goal * terms["goal"]
        + weights.w_clearance * clearance["clearance"]
        + weights.w_approach * clearance["approach"]
        + weights.w_smooth * terms["smooth"]
        + weights.w_speed * terms["speed"]
    )
    return np.where(clearance["collided"], COLLISION_COST, total)


def assert_same_bits(got, expected, n, name):
    assert got.shape == (n,), name
    assert got.dtype == expected.dtype, name
    assert got.tobytes() == expected.tobytes(), name  # every bit, sign included


@pytest.mark.parametrize("n", [0, 1, 97])
@pytest.mark.parametrize("radius", [0.3, 2 * EMPTY_CLEARANCE])
@pytest.mark.parametrize("d_safe", [0.5, 2e9, 1e300])
def test_obstacle_free_terms_equal_the_per_row_formula(n, radius, d_safe):
    rng = np.random.default_rng(n)
    batch = np.cumsum(rng.normal(scale=0.3, size=(n, 12, 2)), axis=1)
    batch[: n // 4] = batch[: n // 4, :1]  # stationary rows
    weights = TaskCostWeights(w_approach=0.7, w_smooth=0.13, d_safe=d_safe, v_pref=0.9)
    expected = frozen_clearance_terms(batch, radius, weights)
    if n:
        assert expected["collided"].all() == (radius > EMPTY_CLEARANCE)
        assert (expected["clearance"] > 0).all() == (d_safe > EMPTY_CLEARANCE - radius)
    pred_velocities = rng.normal(scale=0.5, size=(2, 12, 2))
    task = task_cost_batch(batch, DT, GOALS[1].position.as_array(), (), radius, weights)
    legible = legible_objective(
        DT, pred_velocities, GOALS, OBSERVER, (), radius, weights, PARAMS
    )(batch)
    task_total = frozen_task_total(task, expected, weights)
    legible_total = np.where(
        expected["collided"], COLLISION_COST,
        frozen_task_total(legible, expected, weights)
        + PARAMS.lambda_sim * legible["sim"] + PARAMS.lambda_fov * legible["fov"],
    )
    for kernel, terms, total in (("task", task, task_total), ("legible", legible, legible_total)):
        for name, values in expected.items():
            assert_same_bits(terms[name], values, n, (kernel, name))
        assert_same_bits(terms["total"], total, n, (kernel, "total"))
        for name, values in terms.items():
            assert values.shape == (n,), (kernel, name)


def test_memoised_rows_keep_the_per_row_bits_across_calls():
    # The same keys again and again, as in a run, through both kernels: every
    # call must return fresh arrays with the frozen bits, also after an earlier
    # caller wrote into the arrays it was given.
    rng = np.random.default_rng(5)
    radius = 0.3
    pred_velocities = rng.normal(scale=0.5, size=(2, 12, 2))
    for _ in range(2):
        for d_safe in (0.5, 2e9, 1e300):
            weights = TaskCostWeights(d_safe=d_safe)
            legible = legible_objective(
                DT, pred_velocities, GOALS, OBSERVER, (), radius, weights, PARAMS
            )
            for n in (0, 1, 97, 192):
                batch = np.cumsum(rng.normal(scale=0.3, size=(n, 12, 2)), axis=1)
                expected = frozen_clearance_terms(batch, radius, weights)
                task = task_cost_batch(batch, DT, GOALS[1].position.as_array(), (), radius, weights)
                for terms in (task, legible(batch)):
                    for name, values in expected.items():
                        assert_same_bits(terms[name], values, n, (d_safe, n, name))
                        terms[name][...] = np.logical_not(values) if name == "collided" else -1.0
