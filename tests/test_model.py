"""Geometry and trajectory primitives."""
from __future__ import annotations

import math

import numpy as np
import pytest

from legiplan import (
    CircleObstacle,
    LegibilityParams,
    ObserverState,
    PlannerParams,
    Point2,
    PosteriorModel,
    RectObstacle,
    Trajectory,
    arc_length_prefix,
    clearance,
    TaskCostWeights,
    velocities,
)
from legiplan.model import COORD_LIMIT, EMPTY_CLEARANCE, clearance_points, wrap_angle
from legiplan.planner import plan_once
from tests.conftest import make_robot, make_scenario


class TestClearance:
    def test_outside_circle(self):
        assert clearance(Point2(2, 0), [CircleObstacle(Point2(0, 0), 0.5)]) == pytest.approx(1.5)

    def test_inside_circle_negative(self):
        assert clearance(Point2(0, 0), [CircleObstacle(Point2(0, 0), 0.5)]) == pytest.approx(-0.5)

    def test_empty_sentinel(self):
        assert clearance(Point2(123.0, -7.0), []) == EMPTY_CLEARANCE

    def test_rect_outside_edge(self):
        rect = RectObstacle(Point2(0, -1), Point2(2, 1))
        assert clearance(Point2(3, 0), [rect]) == pytest.approx(1.0)

    def test_rect_outside_corner(self):
        rect = RectObstacle(Point2(0, -1), Point2(2, 1))
        assert clearance(Point2(3, 2), [rect]) == pytest.approx(math.sqrt(2))

    def test_rect_inside_negative(self):
        rect = RectObstacle(Point2(0, -1), Point2(2, 1))
        assert clearance(Point2(1, 0.5), [rect]) == pytest.approx(-0.5)

    def test_min_over_obstacles(self):
        obstacles = [CircleObstacle(Point2(0, 0), 0.5), CircleObstacle(Point2(5, 0), 1.0)]
        assert clearance(Point2(3, 0), obstacles) == pytest.approx(1.0)

    def test_lipschitz_randomized(self):
        # |clearance(p) - clearance(q)| <= |p - q| over mixed obstacle sets.
        rng = np.random.default_rng(11)
        obstacles = (
            CircleObstacle(Point2(1.0, -0.5), 0.7),
            CircleObstacle(Point2(-2.0, 2.0), 0.3),
            RectObstacle(Point2(-1.0, -2.0), Point2(0.5, -1.0)),
        )
        pts = rng.uniform(-5, 5, size=(10_000, 2, 2))
        for (p, q) in pts:
            cp = float(clearance_points(p, obstacles))
            cq = float(clearance_points(q, obstacles))
            assert abs(cp - cq) <= np.linalg.norm(p - q) + 1e-12


class TestVelocities:
    def test_uniform_motion(self):
        traj = Trajectory([[0, 0], [1, 0], [2, 0]], dt=1.0)
        assert np.allclose(velocities(traj), [[1, 0], [1, 0], [1, 0]])

    def test_stationary(self):
        traj = Trajectory([[0, 0], [0, 0]], dt=1.0)
        assert np.allclose(velocities(traj), [[0, 0], [0, 0]])

    def test_half_second_step(self):
        traj = Trajectory([[0, 0], [0, 2]], dt=0.5)
        assert np.allclose(velocities(traj), [[0, 4], [0, 4]])

    def test_integration_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = np.cumsum(rng.normal(size=(10, 2)), axis=0)
            traj = Trajectory(pts, dt=0.25)
            vel = velocities(traj)
            rebuilt = pts[0] + np.vstack(
                [np.zeros(2), np.cumsum(vel[:-1] * traj.dt, axis=0)]
            )
            assert np.max(np.abs(rebuilt - pts)) < 1e-9


class TestArcLengthPrefix:
    def test_quarter_of_straight_line(self):
        traj = Trajectory([[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]], dt=1.0)
        prefix = arc_length_prefix(traj, 0.25)
        assert np.allclose(prefix.waypoints, [[0, 0], [1, 0]])

    def test_full_fraction_is_identity(self):
        traj = Trajectory([[0, 0], [1, 0], [2, 0], [3, 0], [4, 0]], dt=1.0)
        prefix = arc_length_prefix(traj, 1.0)
        assert np.array_equal(prefix.waypoints, traj.waypoints)

    def test_l_shaped_three_quarters(self):
        traj = Trajectory([[0, 0], [2, 0], [2, 2]], dt=1.0)
        prefix = arc_length_prefix(traj, 0.75)
        assert np.allclose(prefix.waypoints, [[0, 0], [2, 0], [2, 1]])

    def test_zero_fraction_degenerates(self):
        traj = Trajectory([[1, 1], [2, 2], [3, 3]], dt=1.0)
        prefix = arc_length_prefix(traj, 0.0)
        assert np.allclose(prefix.waypoints, [[1, 1], [1, 1]])

    def test_fraction_out_of_range(self):
        traj = Trajectory([[0, 0], [1, 0]], dt=1.0)
        with pytest.raises(ValueError):
            arc_length_prefix(traj, 1.5)
        with pytest.raises(ValueError):
            arc_length_prefix(traj, -0.1)

    def test_prefix_nesting(self):
        # All full waypoints of the shorter prefix appear in the longer one,
        # and the interpolated endpoint lies on the longer prefix's polyline.
        rng = np.random.default_rng(7)
        for _ in range(200):
            pts = np.cumsum(rng.normal(size=(9, 2)), axis=0)
            traj = Trajectory(pts, dt=0.5)
            f1, f2 = sorted(rng.uniform(0.05, 1.0, size=2))
            p1 = arc_length_prefix(traj, f1)
            p2 = arc_length_prefix(traj, f2)
            shared = p1.waypoints.shape[0] - 1
            assert np.array_equal(p1.waypoints[:shared], p2.waypoints[:shared])
            assert p1.arc_length() <= p2.arc_length() + 1e-12


class TestTrajectoryType:
    def test_requires_two_waypoints(self):
        with pytest.raises(ValueError):
            Trajectory([[0, 0]], dt=1.0)

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            Trajectory([[0, 0], [1, 0]], dt=0.0)

    def test_waypoints_are_read_only(self):
        traj = Trajectory([[0, 0], [1, 0]], dt=1.0)
        with pytest.raises(ValueError):
            traj.waypoints[0, 0] = 5.0


@pytest.mark.parametrize(
    "beyond", [math.nextafter(COORD_LIMIT, math.inf), 10**151, 1e308, math.inf, math.nan],
    ids=["above-1e150", "10**151", "1e308", "inf", "nan"],
)
def test_coordinate_domain_is_owned_by_point2_and_trajectory(beyond):
    # One rule, |x|, |y| <= COORD_LIMIT, with the bound itself inside; NaN
    # fails the comparison. Inside it no squared difference overflows.
    rule = r"coordinates must lie within \+-1e\+150"
    for sign in (1, -1):
        corner = sign * COORD_LIMIT
        assert Point2(corner, -corner).distance_to(Point2(-corner, corner)) < math.inf
        assert Trajectory([[corner, corner], [-corner, -corner]], dt=1.0).arc_length() < math.inf
        for x, y in ((sign * beyond, 0.0), (0.0, sign * beyond)):
            with pytest.raises(ValueError, match=rf"^{rule}, got \("):
                Point2(x, y)
            with pytest.raises(ValueError, match=rf"^waypoint {rule}$"):
                Trajectory([[0.0, 0.0], [x, y]], dt=1.0)


def test_wrap_angle_range():
    # Exact: IEEE remainder by tau rounds nothing, so an angle already in
    # (-pi, pi] comes back unchanged and wrap(-a) == -wrap(a) away from +-pi,
    # which a mirrored scene needs bit for bit.
    assert wrap_angle(math.radians(160)) == math.radians(160)
    assert wrap_angle(-math.pi) == math.pi
    assert math.copysign(1.0, wrap_angle(-0.0)) == -1.0
    rng = np.random.default_rng(27)
    for bound in (3.2, 12.0, 1e6):
        # Scaled after the draw, so the angles' low bits vary: the draws of
        # rng.uniform(-3.2, 3.2) lie on a coarse grid, on which even an
        # inexact wrap can be the identity.
        angles = bound * rng.uniform(-1.0, 1.0, 200_000)
        wrapped = np.array([wrap_angle(a) for a in angles.tolist()])
        assert np.all((-math.pi < wrapped) & (wrapped <= math.pi))
        in_range = (-math.pi < angles) & (angles <= math.pi)
        assert np.array_equal(wrapped[in_range], angles[in_range])
        negated = np.array([wrap_angle(-a) for a in angles.tolist()])
        odd = np.abs(wrapped) != math.pi
        assert np.array_equal(negated[odd], -wrapped[odd])
        assert np.array_equal([wrap_angle(w) for w in wrapped.tolist()], wrapped)
        turns = (angles - wrapped) / math.tau
        assert np.allclose(turns, np.round(turns), rtol=0, atol=1e-9)


NON_FINITE_GUARDS = {
    "LegibilityParams.lambda_sim": (LegibilityParams, "lambda_sim", "must be nonnegative"),
    "LegibilityParams.lambda_fov": (LegibilityParams, "lambda_fov", "must be nonnegative"),
    "LegibilityParams.h_max": (LegibilityParams, "h_max", "must be positive"),
    "LegibilityParams.eps_v": (LegibilityParams, "eps_v", "must be positive"),
    "TaskCostWeights.d_safe": (TaskCostWeights, "d_safe", "must be positive"),
    "TaskCostWeights.v_pref": (TaskCostWeights, "v_pref", "must be positive"),
    "PlannerParams.dt": (PlannerParams, "dt", "must be positive"),
    "PlannerParams.goal_tolerance": (PlannerParams, "goal_tolerance", "must be positive"),
    "PlannerParams.cem_init_std_v": (PlannerParams, "cem_init_std_v", "must be positive"),
    "PlannerParams.cem_init_std_omega": (PlannerParams, "cem_init_std_omega", "must be positive"),
    "PlannerParams.horizon_w": (PlannerParams, "horizon_w", "horizon_w must be"),
    "PlannerParams.cem_population": (PlannerParams, "cem_population", "cem_population must be"),
    "PlannerParams.cem_iterations": (PlannerParams, "cem_iterations", "cem_iterations must be"),
    "PlannerParams.max_cycles": (PlannerParams, "max_cycles", "max_cycles must be"),
    "RobotState.radius": (make_robot, "radius", "must be positive"),
    "RobotState.v_max": (make_robot, "v_max", "must be positive"),
    "RobotState.a_max": (make_robot, "a_max", "must be positive"),
    "RobotState.omega_max": (make_robot, "omega_max", "must be positive"),
    "RobotState.heading": (make_robot, "heading", "must be finite"),
    "ObserverState.heading": (
        lambda **kw: ObserverState("O", Point2(0, 0), **kw), "heading", "must be finite"
    ),
    "CircleObstacle.radius": (
        lambda **kw: CircleObstacle(Point2(0, 0), **kw), "radius", "must be positive"
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    ("build", "field", "rule"), NON_FINITE_GUARDS.values(), ids=NON_FINITE_GUARDS.keys()
)
def test_library_built_values_reject_non_finite(build, field, rule, value):
    # Library callers get the checks the scenario file route applies: NaN
    # and infinities fail every positivity or nonnegativity guard.
    with pytest.raises(ValueError, match=rule):
        build(**{field: value})


# Every float field of the model and config dataclasses. An int beyond float
# range compares exactly in Python, so 10**400 passed `< math.inf` guards and
# raised OverflowError or TypeError from math.isfinite and np.isfinite.
FLOAT_FIELDS = {
    key: guard for key, guard in NON_FINITE_GUARDS.items()
    if guard[1] not in ("horizon_w", "cem_population", "cem_iterations", "max_cycles")
} | {
    "Point2.x": (lambda **kw: Point2(**{"x": 0.0, "y": 0.0, **kw}), "x", "must lie within"),
    "Point2.y": (lambda **kw: Point2(**{"x": 0.0, "y": 0.0, **kw}), "y", "must lie within"),
    "RobotState.speed": (make_robot, "speed", "outside"),
    "ObserverState.fov": (lambda **kw: ObserverState("O", Point2(0, 0), 0.0, **kw), "fov", "outside"),
    "Trajectory.dt": (lambda **kw: Trajectory([[0, 0], [1, 0]], **kw), "dt", "must be positive"),
    **{
        f"TaskCostWeights.{name}": (TaskCostWeights, name, "must be finite and nonnegative")
        for name in ("w_goal", "w_clearance", "w_approach", "w_smooth", "w_speed")
    },
    "PosteriorModel.beta": (PosteriorModel, "beta", "must be finite and nonnegative"),
    "PosteriorModel.prior": (
        lambda prior: PosteriorModel(prior={"A": prior, "B": 0.5}), "prior", "must be finite"
    ),
}


@pytest.mark.parametrize(
    "value", [10**400, -10**400, math.nan, math.inf], ids=["10**400", "-10**400", "nan", "inf"]
)
@pytest.mark.parametrize(("build", "field", "rule"), FLOAT_FIELDS.values(), ids=FLOAT_FIELDS.keys())
def test_float_fields_reject_numbers_beyond_float_range(build, field, rule, value):
    with pytest.raises(ValueError, match=rule):
        build(**{field: value})


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize(("build", "field", "rule"), FLOAT_FIELDS.values(), ids=FLOAT_FIELDS.keys())
def test_float_fields_refuse_bools(build, field, rule, value):
    # A bool is an int to Python, so True used to pass as 1.0 and stay True
    # in the field; the scenario file route already refuses `true`.
    with pytest.raises(ValueError, match=rule):
        build(**{field: value})


def test_float_fields_keep_valid_ints():
    # An int inside the field's range is accepted and kept as it was given.
    assert type(Point2(10**150, -3).x) is int
    assert Point2(10**150, -3).x == 10**150
    assert make_robot(a_max=2, heading=-1).a_max == 2
    assert PlannerParams(dt=1, goal_tolerance=1, cem_init_std_v=1).dt == 1
    assert type(TaskCostWeights(w_goal=3).w_goal) is int
    assert LegibilityParams(lambda_sim=0, h_max=2).lambda_sim == 0
    assert PosteriorModel(beta=2, prior={"A": 1, "B": 0}).beta == 2
    assert Trajectory([[0, 0], [1, 0]], dt=1).dt == 1


# The six counts and the seed: (build, field, a valid value, the field's rule).
# Before these checks 96.0 passed and failed inside plan_once with a TypeError,
# and seed 1.5 planned as seed 1.
INTEGER_FIELDS = {
    "PlannerParams.horizon_w": (PlannerParams, "horizon_w", 10, "horizon_w must be >= 2"),
    "PlannerParams.cem_population": (
        PlannerParams, "cem_population", 96, "cem_population must be >= 8"
    ),
    "PlannerParams.cem_elites": (
        PlannerParams, "cem_elites", 8, r"cem_elites must be in \[2, cem_population\]"
    ),
    "PlannerParams.cem_iterations": (PlannerParams, "cem_iterations", 4, "cem_iterations must be >= 1"),
    "PlannerParams.execute_steps": (
        PlannerParams, "execute_steps", 2, r"execute_steps must be in \[1, horizon_w\]"
    ),
    "PlannerParams.max_cycles": (PlannerParams, "max_cycles", 50, "max_cycles must be >= 1"),
    "ScenarioSpec.seed": (make_scenario, "seed", 1, "must be a 64-bit unsigned integer"),
}
NOT_INTEGERS = {
    "float": float, "fraction": lambda v: v + 0.5, "np.float64": np.float64,
    "True": lambda v: True, "np.True_": lambda v: np.True_, "str": str,
}


@pytest.mark.parametrize("make", NOT_INTEGERS.values(), ids=NOT_INTEGERS.keys())
@pytest.mark.parametrize(
    ("build", "field", "valid", "rule"), INTEGER_FIELDS.values(), ids=INTEGER_FIELDS.keys()
)
def test_integer_fields_refuse_other_types(build, field, valid, rule, make):
    build(**{field: valid})
    with pytest.raises(ValueError, match=rule):
        build(**{field: make(valid)})


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int16])
@pytest.mark.parametrize(
    ("build", "field", "valid", "rule"), INTEGER_FIELDS.values(), ids=INTEGER_FIELDS.keys()
)
def test_integer_fields_keep_numpy_integers_as_ints(build, field, valid, rule, dtype):
    value = getattr(build(**{field: dtype(valid)}), field)
    assert type(value) is int and value == valid


def test_numpy_integer_fields_plan_as_ints():
    # np.uint64 seeds used to overflow in the seed's mod-2**64 key.
    sizes = dict(cem_population=16, cem_elites=4, cem_iterations=2, horizon_w=8)
    seed = 2**64 - 1
    as_ints = plan_once(make_scenario(seed=seed, planner=PlannerParams(**sizes)))
    as_numpy = plan_once(make_scenario(
        seed=np.uint64(seed),
        planner=PlannerParams(**{k: np.int32(v) for k, v in sizes.items()}),
    ))
    assert as_numpy.trajectory.waypoints.tobytes() == as_ints.trajectory.waypoints.tobytes()
    assert as_numpy.breakdown == as_ints.breakdown
