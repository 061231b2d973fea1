"""Fuzzed scenario documents: the parser returns a spec or raises ScenarioError."""
from __future__ import annotations

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legiplan import ScenarioError, parse_scenario, serialize_scenario  # noqa: E402
from tests.test_scenario_io import MINIMAL  # noqa: E402

# MINIMAL's goal in a document that sets every key the parser reads, so the
# fuzz can hit each: all robot keys, an observer with every key, one obstacle
# of each type, and every planner, task_weights and legibility key.
BASE = {
    "version": 1,
    "robot": {
        "position": [0.0, 0.0], "heading_deg": 0.0, "speed": 0.2, "radius": 0.3,
        "v_max": 1.0, "a_max": 1.0, "omega_max_deg": 90.0,
    },
    "goals": MINIMAL["goals"],
    "observers": [{
        "id": "O", "position": [2.0, 1.0], "heading_deg": -90.0, "fov_deg": 120.0,
        "attached_goal": "G",
    }],
    "obstacles": [
        {"type": "circle", "center": [1.0, 1.5], "radius": 0.3},
        {"type": "rect", "min": [0.8, -1.5], "max": [1.2, -0.5]},
    ],
    "planner": {
        "dt": 0.4, "horizon_w": 12, "mode": "legible", "cem_population": 16,
        "cem_elites": 4, "cem_iterations": 2, "cem_init_std": {"v": 0.5, "omega_deg": 45.0},
        "execute_steps": 1, "goal_tolerance": 0.3, "max_cycles": 50,
    },
    "task_weights": {
        "w_goal": 1.0, "w_clearance": 2.0, "w_approach": 0.5, "w_smooth": 0.1,
        "w_speed": 0.2, "d_safe": 0.5, "v_pref": 0.8,
    },
    "legibility": {"lambda_sim": 1.0, "lambda_fov": 1.0, "h_max": 3.0, "eps_v": 1e-6},
    "seed": 7,
}

SCALARS = st.one_of(
    st.sampled_from([10**400, -10**400, 2**64, -1, 0, 5e-324, 1e308, -1e308, math.nan, math.inf]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "x", "v", "type", "position"]), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, path=()):
    """Every place in `value` a mutation can write: each existing key or
    index, plus one new key per object."""
    if isinstance(value, dict):
        yield (*path, "new_key")
        for key, child in value.items():
            yield (*path, key)
            yield from _slots(child, (*path, key))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield (*path, i)
            yield from _slots(child, (*path, i))


SLOTS = list(_slots(BASE))


def test_base_parses_and_sets_every_key():
    # The serializer writes every key the parser reads, so equal slots mean
    # the fuzz can reach each of them.
    assert set(_slots(serialize_scenario(parse_scenario(BASE)))) == set(SLOTS)


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(SLOTS), JSON_VALUES), min_size=1, max_size=3))
def test_mutated_documents_raise_only_scenario_error(edits):
    doc = json.loads(json.dumps(BASE))
    for slot, value in edits:
        parent = doc
        try:
            for key in slot[:-1]:
                parent = parent[key]
            parent[slot[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier edit replaced this slot's container
    try:
        parse_scenario(doc)
    except ScenarioError:
        pass
