"""tools/setup_pairs.py: its summary on synthetic probe timings, and one
round of HEAD against this checkout."""
from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys

import pytest

from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "setup_pairs.py"
_spec = importlib.util.spec_from_file_location("setup_pairs", _PATH)
setup_pairs = importlib.util.module_from_spec(_spec)
sys.modules["setup_pairs"] = setup_pairs
_spec.loader.exec_module(setup_pairs)


def _in_git_checkout() -> bool:
    if shutil.which("git") is None:
        return False
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "HEAD"], cwd=SCENARIO_DIR.parent, capture_output=True
    )
    return done.returncode == 0


def test_rounds_alternate_and_pair_ref_with_this_checkout(monkeypatch):
    # Synthetic probes: REF takes 0.060 s, this checkout 0.048 s, except
    # the third round, where this checkout is slower.
    calls = []

    def fake_probe(checkout, workload):
        calls.append(checkout)
        if checkout == "ref":
            return 0.060
        return 0.066 if len(calls) in (5, 6) else 0.048

    monkeypatch.setattr(setup_pairs, "probe", fake_probe)
    pairs = setup_pairs.time_rounds("ref", "score_logs", 4)
    root = setup_pairs.ROOT
    assert calls == ["ref", root, root, "ref", "ref", root, root, "ref"]
    assert pairs == [(0.060, 0.048), (0.060, 0.048), (0.060, 0.066), (0.060, 0.048)]
    s = setup_pairs.summarize(pairs)
    assert s["ratio_median"] == pytest.approx(0.8)
    assert (s["won"], s["rounds"]) == (3, 4)
    line = setup_pairs.summary_line("score_logs", s)
    assert line.startswith("score_logs ref 60.00 ms  work 48.00 ms  ratio 0.8000")
    assert line.endswith("work faster in 3/4 rounds")


def test_zero_rounds_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        setup_pairs.main(["--ref", "HEAD", "--workload", "score_logs", "--rounds", "0"])
    assert exit_info.value.code == 2


@pytest.mark.skipif(not _in_git_checkout(), reason="needs git and a committed HEAD")
def test_one_round_against_head(capsys):
    code = setup_pairs.main(["--ref", "HEAD", "--workload", "score_logs", "--rounds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "score_logs set-up, this checkout over HEAD:"
    assert out[1].startswith("score_logs ref ") and out[1].endswith("/1 rounds")
