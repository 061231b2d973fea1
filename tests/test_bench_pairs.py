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


def test_summary_reports_each_side_and_the_pairs_won():
    scales = (0.9, 0.8, 1.1, 0.95)  # this checkout over the ref, per pair
    pairs = [
        bench_pairs.compare(record(s, 2.0), record(s, 2.0 * k, sha="abc" if s else "def"))
        for s, k in enumerate(scales)
    ]
    assert [p["sha_match"] for p in pairs] == [False, True, True, True]
    assert pairs[0]["metrics"]["setup_s"] == pytest.approx((8.0, 7.2, 0.9))
    summary = bench_pairs.summarize(pairs)
    assert list(summary) == list(METRICS)
    for name, s in summary.items():
        assert s["median_ratio"] == pytest.approx(0.925)
        assert (s["ref_median"], s["ref_qd"]) == (2.0 * (METRICS.index(name) + 1), 0.0)
        # L_mean is better higher, so the one pair it read higher is its only win.
        assert (s["won"], s["pairs"]) == ((1, 4) if name == "L_mean" else (3, 4))
    lines = bench_pairs.summary_lines(summary)
    assert lines[0] == (
        "latency_p50_xref   ref 2.0000 (qd 0.0000) -> 1.8500 (qd 0.4750), median ratio 0.9250,"
        " better in 3/4: unresolved"
    )
    head, *rows = bench_pairs.pair_lines(pairs[0], ref_first=True)
    assert head == "seed 0 (ref first): output_sha256 DIFFER, failed 0 -> 0"
    assert len(rows) == len(METRICS) and rows[0].endswith("ratio 0.9000")


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
    assert "median ratio 0.5000, better in 3/3: no change" in out  # 3 pairs show no gain
    assert "L_mean" in out and "better in 0/3: worse beyond bound" in out
