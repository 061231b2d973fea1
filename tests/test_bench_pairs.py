"""tools/bench_pairs.py's pairing and summary on synthetic result records,
with no benchmark run."""
from __future__ import annotations

import contextlib
import importlib.util
import sys

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


@pytest.mark.parametrize("text, seeds", [("3-6", [3, 4, 5, 6]), ("9", [9])])
def test_seed_range(text, seeds):
    assert list(bench_pairs.seed_range(text)) == seeds


def test_summary_reports_median_ratio_and_lower_count():
    scales = (0.9, 0.8, 1.1, 0.95)  # this checkout over the ref, per pair
    pairs = [
        bench_pairs.compare(record(s, 2.0), record(s, 2.0 * k, sha="abc" if s else "def"))
        for s, k in enumerate(scales)
    ]
    assert [p["sha_match"] for p in pairs] == [False, True, True, True]
    assert pairs[0]["metrics"]["setup_s"] == pytest.approx((8.0, 7.2, 0.9))
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == list(METRICS)
    for s in summary.values():
        assert s["median_ratio"] == pytest.approx(0.925)
        assert (s["lower"], s["pairs"]) == (3, 4)
    lines = bench_pairs.summary_lines(summary)
    assert lines[0] == "latency_p50_xref   median ratio 0.9250, lower in 3/4"
    head, *rows = bench_pairs.pair_lines(pairs[0], ref_first=True)
    assert head == "seed 0 (ref first): output_sha256 DIFFER, failed 0 -> 0"
    assert len(rows) == len(METRICS) and rows[0].endswith("ratio 0.9000")


def test_sides_alternate_and_every_pair_is_reported(monkeypatch, capsys, tmp_path):
    calls = []

    @contextlib.contextmanager
    def exported(ref):
        calls.append(("export", ref))
        yield tmp_path

    def run_side(checkout, workload, seed, seconds):
        side = "ref" if checkout == tmp_path else "new"
        calls.append((side, workload, seed, seconds))
        return record(seed, 1.0 if side == "ref" else 0.5)

    monkeypatch.setattr(bench_pairs, "exported", exported)
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    assert bench_pairs.main(["--ref", "HEAD~1", "--workload", "w", "--seeds", "4-6"]) == 0
    assert {c[3] for c in calls[1:]} == {30}
    assert [c[:3] for c in calls] == [
        ("export", "HEAD~1"),
        ("ref", "w", 4), ("new", "w", 4),
        ("new", "w", 5), ("ref", "w", 5),
        ("ref", "w", 6), ("new", "w", 6),
    ]
    out = capsys.readouterr().out
    assert out.count("output_sha256 match") == 3
    assert "latency_p50_xref   median ratio 0.5000, lower in 3/3" in out
