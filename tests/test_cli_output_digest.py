"""The CLI's output bytes on every shipped scenario, pinned by one digest.

tools/cli_output_hashes.py lists the sha256 of 266 CLI outputs; this test
pins the sha256 of that listing. A change that keeps output bytes keeps the
digest. A change that alters them on purpose updates DIGEST and records the
old and new digests in CHANGES.md.

The listing without its 56 `.svg` lines is pinned too (TEXT_DIGEST), so a
mismatch tells a printed-number change from a drawing change.

No output path calls BLAS, so the listing is the same under every OpenBLAS
kernel; the second test checks the oldest one. It still depends on numpy's
SIMD loops for `exp` and `arctan2`, so a mismatch names the loops this host
dispatches to.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys

from numpy.lib.introspect import opt_func_info

from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "cli_output_hashes.py"
_spec = importlib.util.spec_from_file_location("cli_output_hashes", _PATH)
cli_output_hashes = importlib.util.module_from_spec(_spec)
sys.modules["cli_output_hashes"] = cli_output_hashes
_spec.loader.exec_module(cli_output_hashes)

DIGEST = "051e241e27e8681e8889d6da62f2fdfe241a322254b5614e016e939a935cbcaf"
TEXT_DIGEST = "62f0e5da5fdb770d05b2c3c839379c14acffdc7b31ce716c17b23b44761a2f1f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _host() -> str:
    """numpy's float64 loops for the ufuncs whose SIMD rounding reaches the listing."""
    info = opt_func_info(func_name="^(exp|arctan2|tanh)$", signature="float64.*")
    loops = (f"{name} {loop['current']}" for name, sigs in info.items() for loop in sigs.values())
    return "numpy loops: " + ", ".join(loops)


def test_cli_output_listing_digest_is_unchanged():
    listing = cli_output_hashes.listing()
    lines = listing.splitlines(keepends=True)
    assert len(lines) == 266
    assert _sha256(listing) == DIGEST, _host()
    text = [line for line in lines if not line.endswith(".svg\n")]
    assert len(text) == 210
    assert _sha256("".join(text)) == TEXT_DIGEST, _host()


def test_cli_output_listing_is_the_same_under_the_oldest_blas_kernel():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott"}
    run = subprocess.run(
        [sys.executable, str(_PATH)], env=env, capture_output=True, text=True, check=True
    )
    assert _sha256(run.stdout) == DIGEST, f"OPENBLAS_CORETYPE=Prescott; {_host()}"
