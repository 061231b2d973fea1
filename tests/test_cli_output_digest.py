"""The CLI's output bytes on every shipped scenario, pinned by one digest.

tools/cli_output_hashes.py lists the sha256 of 210 CLI outputs; this test
pins the sha256 of that listing. A change that keeps output bytes keeps the
digest. A change that alters them on purpose updates DIGEST and records the
old and new digests in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import importlib.util
import sys

from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "cli_output_hashes.py"
_spec = importlib.util.spec_from_file_location("cli_output_hashes", _PATH)
cli_output_hashes = importlib.util.module_from_spec(_spec)
sys.modules["cli_output_hashes"] = cli_output_hashes
_spec.loader.exec_module(cli_output_hashes)

DIGEST = "a54404c21b4ab7bfd5c74d8481bd272aab59a4bae7fac82e1c9622c2afc2c333"


def test_cli_output_listing_digest_is_unchanged():
    listing = cli_output_hashes.listing()
    assert len(listing.splitlines()) == 210
    assert hashlib.sha256(listing.encode("utf-8")).hexdigest() == DIGEST
