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

DIGEST = "8eb6872a178f773ce8cea9929448119625d1cd325c4579d10b681e319be0aeb7"


def test_scenario_parse_listing_digest_is_unchanged():
    listing = scenario_parse_hashes.listing()
    lines = listing.splitlines()
    assert len(lines) == 3000
    # The corpus reaches both outcomes and the overflow warnings.
    assert sum(len(line) == 64 for line in lines) > 300
    assert any(" | warning: " in line for line in lines)
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == DIGEST
