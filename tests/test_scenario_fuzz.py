"""Fuzzed scenario documents: the parser returns a spec or raises ScenarioError."""
from __future__ import annotations

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legiplan import ScenarioError, parse_scenario  # noqa: E402
from tests.test_scenario_io import MINIMAL  # noqa: E402

# MINIMAL with one observer and one obstacle, so their fields can be hit too.
BASE = {
    **MINIMAL,
    "observers": [{"id": "O", "position": [2.0, 1.0], "heading_deg": -90.0}],
    "obstacles": [{"type": "rect", "min": [0.8, -1.5], "max": [1.2, -0.5]}],
    "planner": {"dt": 0.4, "horizon_w": 12, "cem_init_std": {"v": 0.5, "omega_deg": 45.0}},
}

SCALARS = st.one_of(
    st.sampled_from([10**400, -10**400, 2**64, -1, 0, 1e308, -1e308, math.nan, math.inf]),
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
