"""The CLI's output bytes on every shipped scenario, pinned by one digest.

tools/cli_output_hashes.py lists the sha256 of 266 CLI outputs; this test
pins the sha256 of that listing. A change that keeps output bytes keeps the
digest. A change that alters them on purpose updates DIGEST and records the
old and new digests in CHANGES.md.

The listing's 56 `.svg` lines came in after its other 210; without them it
still reads the digest those 210 lines had (TEXT_DIGEST).
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

DIGEST = "178d661e4e359001cc8cd6fecb21e7dcfe304203e7611ef31683fbf63082e287"
TEXT_DIGEST = "a54404c21b4ab7bfd5c74d8481bd272aab59a4bae7fac82e1c9622c2afc2c333"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cli_output_listing_digest_is_unchanged():
    listing = cli_output_hashes.listing()
    lines = listing.splitlines(keepends=True)
    assert len(lines) == 266
    assert _sha256(listing) == DIGEST
    text = [line for line in lines if not line.endswith(".svg\n")]
    assert len(text) == 210
    assert _sha256("".join(text)) == TEXT_DIGEST
