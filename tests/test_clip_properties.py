"""Property sweep of control clipping against the sequential clip loop, and
of the initial mean's speed ramp against the clip."""
from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from legiplan import ControlSequence, Point2  # noqa: E402
from legiplan.planner import _clip_controls, _initial_mean  # noqa: E402
from tests.conftest import make_robot  # noqa: E402
from tests.test_planner import reference_clip  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    raw=arrays(
        float,
        st.tuples(st.integers(1, 6), st.integers(1, 12), st.just(2)),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    ),
    v_max=st.floats(0.05, 5.0),
    speed_frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    a_max=st.floats(0.01, 10.0),
    omega_max=st.floats(0.1, 4.0),
    dt=st.floats(0.01, 1.0),
)
def test_clip_matches_sequential_clip(raw, v_max, speed_frac, a_max, omega_max, dt):
    # speed_frac 0 and 1 put the start speed exactly on 0 and on v_max.
    state = make_robot(
        speed=speed_frac * v_max, v_max=v_max, a_max=a_max, omega_max=omega_max
    )
    clipped = _clip_controls(raw, state, dt)
    assert np.array_equal(clipped, reference_clip(raw, state, dt))
    for row in clipped:
        assert ControlSequence(row).respects(state, dt)


coords = st.floats(-50.0, 50.0)


@settings(max_examples=200, deadline=None)
@given(
    position=st.tuples(coords, coords),
    goal=st.tuples(coords, coords),
    v_max=st.floats(0.05, 5.0),
    speed_frac=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    a_max=st.floats(0.01, 10.0),
    dt=st.floats(0.01, 1.0),
    horizon=st.integers(1, 12),
    v_pref=st.floats(0.01, 6.0),
)
def test_initial_mean_is_the_clip_of_its_constant_request(
    position, goal, v_max, speed_frac, a_max, dt, horizon, v_pref
):
    # The scalar ramp and the batch clip keep one speed-band rule: the ramp
    # is the clip of min(v_pref, distance / (horizon * dt)) at every step,
    # with zero turn rate.
    state = make_robot(
        position=Point2(*position), speed=speed_frac * v_max, v_max=v_max, a_max=a_max
    )
    mean = _initial_mean(state, horizon, dt, v_pref, Point2(*goal))
    request = np.zeros((1, horizon, 2))
    request[:, :, 0] = min(v_pref, state.position.distance_to(Point2(*goal)) / (horizon * dt))
    assert np.array_equal(_clip_controls(request, state, dt)[0], mean)
