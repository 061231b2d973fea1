"""tools/setup_pairs.py: its rounds and summary on synthetic probe timings,
its argument checks, and one round of HEAD against this checkout."""
from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

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

    def fake_probe(checkout, workload, env):
        calls.append(checkout)
        if checkout == "ref":
            return 0.060
        return 0.066 if len(calls) in (5, 6) else 0.048

    monkeypatch.setattr(setup_pairs, "probe", fake_probe)
    pairs = setup_pairs.time_rounds("ref", "score_logs", 4)
    root = setup_pairs.ROOT
    assert calls == ["ref", root, root, "ref", "ref", root, root, "ref"]
    assert pairs == [(0.060, 0.048), (0.060, 0.048), (0.060, 0.066), (0.060, 0.048)]
    s = setup_pairs.summarize(pairs, "setup_s")
    assert s["median_ratio"] == pytest.approx(0.8)
    assert (s["won"], s["pairs"]) == (3, 4)
    line = setup_pairs.summary_line("score_logs", s)
    assert line.startswith("score_logs         ref 0.0600 (qd 0.0000) -> 0.0480 (qd 0.0135)")
    assert line.endswith("median ratio 0.8000 [q1 0.8000, q3 1.0250], better in 3/4: no change")


def test_every_probe_runs_with_one_fresh_bytecode_prefix(monkeypatch, tmp_path):
    # Neither side may read bytecode left in its own tree: a stale
    # __pycache__ here read setup_s 0.75x of the exported ref's.
    runs = []

    def fake_run(cmd, cwd, env, **kwargs):
        assert Path(env["PYTHONPYCACHEPREFIX"]).is_dir()
        runs.append((cwd, env["PYTHONPYCACHEPREFIX"]))
        return subprocess.CompletedProcess(cmd, 0, stdout="0.0612 0.0500\n")

    monkeypatch.setattr(setup_pairs.subprocess, "run", fake_run)
    assert setup_pairs.time_rounds(tmp_path, "score_logs", 2) == [(50.0, 50.0)] * 2
    assert [cwd for cwd, _ in runs] == [tmp_path, setup_pairs.ROOT, setup_pairs.ROOT, tmp_path]
    (prefix,) = {p for _, p in runs}
    assert not Path(prefix).exists()  # removed after the rounds


def test_zero_rounds_is_a_usage_error():
    with pytest.raises(SystemExit) as exit_info:
        setup_pairs.main(["--ref", "HEAD", "--workload", "score_logs", "--rounds", "0"])
    assert exit_info.value.code == 2


def test_an_unknown_workload_is_a_usage_error_before_any_export(monkeypatch):
    def exported(ref):
        raise AssertionError(f"exported {ref} before the arguments were checked")

    monkeypatch.setattr(setup_pairs, "exported", exported)
    with pytest.raises(SystemExit) as exit_info:
        setup_pairs.main(["--ref", "HEAD", "--workload", "bogus"])
    assert exit_info.value.code == 2


@pytest.mark.skipif(not _in_git_checkout(), reason="needs git and a committed HEAD")
def test_one_round_against_head(capsys):
    code = setup_pairs.main(["--ref", "HEAD", "--workload", "score_logs", "--rounds", "1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "score_logs set-up, this checkout over HEAD:"
    assert out[1].startswith("score_logs         ref ") and "better in " in out[1]
