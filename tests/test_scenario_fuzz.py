"""Fuzzed scenario documents: the parser returns a spec or raises ScenarioError."""
from __future__ import annotations

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from legiplan import ScenarioError, parse_scenario, serialize_scenario  # noqa: E402
from tests.conftest import BASE, document_slots  # noqa: E402

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


SLOTS = list(document_slots(BASE))


def test_base_parses_and_sets_every_key():
    # The serializer writes every key the parser reads, so equal slots mean
    # the fuzz can reach each of them.
    assert set(document_slots(serialize_scenario(parse_scenario(BASE)))) == set(SLOTS)


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
