"""Print what the scenario parser makes of 3,000 mutated scenario documents.

Each document is the fuzz test's ``BASE`` (``tests/conftest.py``) with one
to three edits drawn from ``random.Random(SEED)``: a key or array item is
set to a drawn JSON value or deleted, or a new key is added. Per document it
prints one line: the sha256 of ``scenario_to_bytes(parse_scenario(doc))``, or
the ScenarioError's ``path: rule``; then `` | warning: message`` for each
RuntimeWarning the parse let out. A refactor of the parser that keeps its
behaviour prints the same lines before and after, so diff two checkouts:

    python3 tools/scenario_parse_hashes.py > after.txt

``tests/test_scenario_parse_digest.py`` pins the sha256 of the whole listing.

The package is imported from this checkout's ``src/``.
"""
from __future__ import annotations

import copy
import hashlib
import math
import random
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from legiplan import ScenarioError, parse_scenario  # noqa: E402
from legiplan.scenario_io import scenario_to_bytes  # noqa: E402
from tests.conftest import BASE, document_slots  # noqa: E402

SEED = 20240
DOCUMENTS = 3000

# Values at the edges of every reader's rules: integers beyond float range,
# denormals, non-finite floats, bools, null, and strings the parser reads.
SPECIALS = (
    10**400, -10**400, 2**64, -1, 0, 1, 5e-324, 1e-9, 0.5, 2.0, 90.0, -90.0,
    1e154, 1e308, -1e308, math.nan, math.inf, -math.inf, True, False, None,
    "", "G", "O", "circle", "rect", "legible", "baseline",
)
KEYS = ("id", "x", "v", "type", "position", "omega_deg", "min", "max")


def _value(rng: random.Random, depth: int = 0):
    """A JSON value: mostly a special or a plain number, sometimes a point,
    an array or an object (nested at most twice)."""
    roll = rng.random()
    if roll < 0.4 or depth >= 2:
        return rng.choice(SPECIALS)
    if roll < 0.5:
        return rng.randint(-3, 20)
    if roll < 0.65:
        return rng.uniform(-10.0, 10.0)
    if roll < 0.8:
        return [rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)]
    if roll < 0.9:
        return [_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {rng.choice(KEYS): _value(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def documents():
    """Yield the mutated documents, in a fixed order."""
    rng = random.Random(SEED)
    slots = list(document_slots(BASE))
    for _ in range(DOCUMENTS):
        doc = copy.deepcopy(BASE)
        for _ in range(rng.randint(1, 3)):
            *parents, key = rng.choice(slots)
            delete = rng.random() < 0.2
            value = _value(rng)
            try:
                parent = doc
                for step in parents:
                    parent = parent[step]
                if delete:
                    del parent[key]
                else:
                    parent[key] = value
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit replaced or removed this slot
        yield doc


def outcome(doc: dict) -> str:
    """One listing line: the serialized spec's sha256 or the error, then
    each RuntimeWarning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            line = hashlib.sha256(scenario_to_bytes(parse_scenario(doc))).hexdigest()
        except ScenarioError as exc:
            line = f"{exc.path}: {exc.rule}"
    notes = (f" | warning: {w.message}" for w in caught if issubclass(w.category, RuntimeWarning))
    return line + "".join(notes)


def listing() -> str:
    """The listing ``main`` prints: one line per document."""
    return "".join(f"{outcome(doc)}\n" for doc in documents())


def main() -> None:
    sys.stdout.write(listing())


if __name__ == "__main__":
    main()
