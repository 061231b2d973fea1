"""tools/bench_pairs.py's pairing and summary on synthetic result records,
with no benchmark run."""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from tests.conftest import SCENARIO_DIR

_PATH = SCENARIO_DIR.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
sys.modules["bench_pairs"] = bench_pairs
_spec.loader.exec_module(bench_pairs)

METRICS = (
    "latency_p50_xref", "latency_p95_xref", "op_mean_xref", "setup_s", "peak_rss_mb", "L_mean",
)


def record(seed, scale, sha="abc", failed=0):
    """A result line whose metric i reads (i + 1) * scale."""
    return {
        "seed": seed, "output_sha256": sha, "failed": failed,
        "metrics": {
            name: {"value": (i + 1) * scale, "unit": "x"} for i, name in enumerate(METRICS)
        },
    }


def test_metrics_are_the_benchmark_end_to_end_set():
    assert bench_pairs.METRICS == METRICS


@pytest.mark.parametrize(
    "text, seeds", [("3-6", [3, 4, 5, 6]), ("9", [9]), ("0-19", list(range(20))), ("7", [7])]
)
def test_seed_range(text, seeds):
    assert list(bench_pairs.seed_range(text)) == seeds


def test_seed_range_refuses_an_empty_range():
    # tools/quality_sweep.py swept no seed and exited 0 on it, and
    # tools/interleave_pairs.py divided by zero.
    with pytest.raises(argparse.ArgumentTypeError, match=r"^empty seed range '5-3'$"):
        bench_pairs.seed_range("5-3")


def test_summary_reports_each_side_and_the_pairs_won():
    scales = (0.9, 0.8, 1.1, 0.95)  # this checkout over the ref, per pair
    pairs = [
        bench_pairs.compare(record(s, 2.0), record(s, 2.0 * k, sha="abc" if s else "def"))
        for s, k in enumerate(scales)
    ]
    assert [p["sha_match"] for p in pairs] == [False, True, True, True]
    assert pairs[0]["metrics"]["setup_s"] == pytest.approx((8.0, 7.2, 0.9))
    summary = {
        name: bench_pairs.summarize([p["metrics"][name][:2] for p in pairs], name)
        for name in METRICS
    }
    for name, s in summary.items():
        assert s["median_ratio"] == pytest.approx(0.925)
        assert (s["ref_median"], s["ref_qd"]) == (2.0 * (METRICS.index(name) + 1), 0.0)
        # L_mean is better higher, so the one pair it read higher is its only win.
        assert (s["won"], s["pairs"]) == ((1, 4) if name == "L_mean" else (3, 4))
    assert bench_pairs.summary_line("latency_p50_xref", summary["latency_p50_xref"]) == (
        "latency_p50_xref   ref 2.0000 (qd 0.0000) -> 1.8500 (qd 0.4750), median ratio 0.9250"
        " [q1 0.8250, q3 1.0625], better in 3/4: unresolved"
    )
    head, *rows = bench_pairs.pair_lines(pairs[0], ref_first=True)
    assert head == "seed 0 (ref first): output_sha256 DIFFER, failed 0 -> 0"
    assert len(rows) == len(METRICS) and rows[0].endswith("ratio 0.9000")


def test_summary_of_synthetic_rounds():
    # ratios 0.8, 0.9, 0.95, 1.0, 1.2: the new side won 3 of 5 rounds.
    pairs = [(10.0, 9.0), (20.0, 16.0), (20.0, 19.0), (10.0, 12.0), (4.0, 4.0)]
    s = bench_pairs.summarize(pairs, "latency_p50_xref")
    assert s["median_ratio"] == pytest.approx(0.95)
    # statistics.quantiles' exclusive method, as for each side's spread.
    assert s["ratio_q1"] == pytest.approx(0.85) and s["ratio_q3"] == pytest.approx(1.1)
    assert (s["ref_median"], s["new_median"]) == (10.0, 12.0)
    assert (s["won"], s["pairs"]) == (3, 5)
    # The verdict judges the two medians, not the ratios.
    assert bench_pairs.summary_line("legible", s) == (
        "legible            ref 10.0000 (qd 13.0000) -> 12.0000 (qd 11.0000), median ratio"
        " 0.9500 [q1 0.8500, q3 1.1000], better in 3/5: worse beyond bound"
    )


def test_one_pair_summarizes_itself():
    s = bench_pairs.summarize([(2.0, 1.0)], "setup_s")
    assert (s["ratio_q1"], s["median_ratio"], s["ratio_q3"]) == (0.5, 0.5, 0.5)
    assert (s["ref_qd"], s["new_qd"], s["won"], s["verdict"]) == (0.0, 0.0, 1, "no change")


def test_rules_are_read_from_the_benchmark():
    assert bench_pairs.RULES["latency_p50_xref"] == (1, 0.1)
    assert bench_pairs.RULES["L_mean"] == (-1, 0.1)


# (ref runs, this checkout's runs, better, bound) -> (pairs won, verdict)
VERDICTS = {
    "ten of ten won": ([1.0] * 10, [0.9] * 10, "lower", 0.1, 10, "gain"),
    "nine of ten won": ([1.0] * 10, [0.9] * 9 + [1.2], "lower", 0.1, 9, "gain"),
    "eight of ten won": ([1.0] * 10, [0.9] * 8 + [1.2] * 2, "lower", 0.1, 8, "no change"),
    "ties win nothing": ([1.0] * 10, [0.9] * 8 + [1.0] * 2, "lower", 0.1, 8, "no change"),
    "nine pairs": ([1.0] * 9, [0.9] * 9, "lower", 0.1, 9, "no change"),
    "gap within the ref's spread": (
        [0.8, 0.9, 1.0, 1.1, 1.2] * 2, [0.75, 0.85, 0.95, 1.05, 1.15] * 2, "lower", 0.5,
        10, "no change",
    ),
    "higher is better": ([0.5] * 10, [0.6] * 10, "higher", 0.1, 10, "gain"),
    "score dropped within bound": ([0.5] * 10, [0.48] * 10, "higher", 0.1, 0, "no change"),
    "score dropped beyond bound": ([0.5] * 4, [0.4] * 4, "higher", 0.1, 0, "worse beyond bound"),
    "slower within bound": ([1.0] * 4, [1.05] * 4, "lower", 0.1, 0, "no change"),
    "slower beyond bound": ([1.0] * 4, [1.2] * 4, "lower", 0.1, 0, "worse beyond bound"),
    "spread wider than bound": ([0.5, 1.5, 0.5, 1.5], [1.0] * 4, "lower", 0.1, 2, "unresolved"),
    "wide but every run better": (
        [1.0, 2.0, 1.0, 2.0], [0.5, 0.9, 0.5, 0.9], "lower", 0.1, 4, "no change",
    ),
}


@pytest.mark.parametrize("ref, new, better, bound, won, said", VERDICTS.values(), ids=VERDICTS)
def test_verdict(ref, new, better, bound, won, said):
    sign = 1 if better == "lower" else -1
    assert bench_pairs.verdict(ref, new, sign, bound) == (won, said)


def test_sides_alternate_and_every_pair_is_reported(monkeypatch, capsys, tmp_path):
    calls = []

    @contextlib.contextmanager
    def exported(ref):
        calls.append(("export", ref))
        yield tmp_path

    def run_side(checkout, workload, seed, seconds, env):
        side = "ref" if checkout == tmp_path else "new"
        calls.append((side, workload, seed, seconds))
        return record(seed, 1.0 if side == "ref" else 0.5)

    monkeypatch.setattr(bench_pairs, "exported", exported)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["--ref", "HEAD~1", "--workload", "score_logs", "--seeds", "4-6"]) == 0
    assert {c[3] for c in calls[1:]} == {30}
    assert [c[:3] for c in calls] == [
        ("export", "HEAD~1"),
        ("ref", "score_logs", 4), ("new", "score_logs", 4),
        ("new", "score_logs", 5), ("ref", "score_logs", 5),
        ("ref", "score_logs", 6), ("new", "score_logs", 6),
    ]
    out = capsys.readouterr().out
    assert out.count("output_sha256 match") == 3
    # 3 pairs show no gain
    assert "median ratio 0.5000 [q1 0.5000, q3 0.5000], better in 3/3: no change" in out
    assert "L_mean" in out and "better in 0/3: worse beyond bound" in out


def test_both_sides_run_with_one_fresh_bytecode_prefix(monkeypatch, tmp_path):
    # A stale __pycache__ in this checkout once let it skip the compilation
    # the exported ref paid, and read a lower setup_s for no program reason.
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "stale"))
    runs = []

    def fake_run(cmd, cwd, env, **kwargs):
        prefix = Path(env["PYTHONPYCACHEPREFIX"])
        assert prefix.is_dir() and not any(prefix.iterdir())  # made for this run
        runs.append((Path(cwd), env))
        seed = int(cmd[cmd.index("--seed") + 1])
        results = Path(cwd) / "perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"score_logs-seed{seed}-trace0-result.json").write_text(
            json.dumps(record(seed, 1.0))
        )

    @contextlib.contextmanager
    def exported(ref):
        yield tmp_path / "ref"

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "exported", exported)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path / "new")
    assert bench_pairs.main(["--ref", "HEAD", "--workload", "score_logs", "--seeds", "1-2"]) == 0
    assert [cwd.name for cwd, _ in runs] == ["ref", "new", "new", "ref"]
    (prefix,) = {env["PYTHONPYCACHEPREFIX"] for _, env in runs}
    assert prefix != str(tmp_path / "stale") and not Path(prefix).exists()  # removed after
    assert all(env["PATH"] == os.environ["PATH"] for _, env in runs)


def test_an_unknown_workload_is_a_usage_error_before_any_export(monkeypatch):
    # perfbench/run.py refuses it too, but only after the ref was exported.
    monkeypatch.setattr(bench_pairs, "exported", _never_exported)
    assert bench_pairs.WORKLOADS == ("legible_multigoal", "baseline_single_goal", "score_logs")
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--ref", "HEAD", "--workload", "bogus", "--seeds", "1"])
    assert exit_info.value.code == 2


def _never_exported(ref):
    raise AssertionError(f"exported {ref} before the arguments were checked")
