"""The scenario parser's outcome on 3,000 mutated documents, pinned by one
digest.

tools/scenario_parse_hashes.py lists, per document, the sha256 of the
serialized spec or the ScenarioError's path and rule, plus any
RuntimeWarning; this test pins the sha256 of that listing. A change that
keeps the parser's behaviour keeps the digest. A change that alters it on
purpose updates DIGEST and records the old and new digests in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys

from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "scenario_parse_hashes.py"
_spec = importlib.util.spec_from_file_location("scenario_parse_hashes", _PATH)
scenario_parse_hashes = importlib.util.module_from_spec(_spec)
sys.modules["scenario_parse_hashes"] = scenario_parse_hashes
_spec.loader.exec_module(scenario_parse_hashes)

DIGEST = "c0bf8d20ba5ba00b6b5777c42a25c67efc01ba53be2af439052a4f4894fdf74b"


def test_scenario_parse_listing_digest_is_unchanged():
    listing = scenario_parse_hashes.listing()
    lines = listing.splitlines()
    assert len(lines) == 3000
    # The corpus reaches both outcomes. Its coordinates of 1e154 and 1e308,
    # whose squares overflowed, now fail at COORD_LIMIT: no warning is left.
    assert sum(len(line) == 64 for line in lines) > 300
    assert any("coordinates must lie within" in line for line in lines)
    assert not any(" | warning: " in line for line in lines)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == DIGEST
