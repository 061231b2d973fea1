"""Property sweep of the CEM noise contract over random 64-bit seeds."""
from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legiplan.planner import _draw_noise  # noqa: E402
from tests.test_planner import reference_noise  # noqa: E402


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    iteration=st.integers(min_value=0, max_value=7),
    population=st.integers(min_value=1, max_value=12),
    horizon=st.integers(min_value=1, max_value=12),
)
def test_draws_match_one_generator_per_iteration(seed, iteration, population, horizon):
    assert np.array_equal(
        _draw_noise(seed, iteration, population, horizon),
        reference_noise(seed, iteration, population, horizon),
    )
