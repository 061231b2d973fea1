"""Time this checkout against a git ref in alternating benchmark pairs.

    python3 tools/bench_pairs.py --ref HEAD~1 --workload baseline_single_goal --seeds 1-4

REF is exported with ``git archive`` into a temporary directory, which is
removed afterwards. For each seed the exported ref and this checkout each
run ``perfbench/run.py --workload W --seed N --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` (30), one after the other; which side
goes first alternates from pair to pair (``in_turn``), so a drift in host
speed does not favour one side. Each pair prints the six end-to-end metrics
of ``BENCHMARK.json`` for both sides, their ratio (this checkout over REF)
and whether the two ``output_sha256`` matched. The run ends with one
``summary_line`` per metric.

``summarize`` is the one summary of (REF, new) pairs, which
``tools/interleave_pairs.py`` and ``tools/setup_pairs.py`` print too: each
side's median and quartile distance (every quartile by
``statistics.quantiles``' default, exclusive, method), the median paired
ratio (new over REF) with its quartiles, the pairs the new side won by the
metric's ``better`` direction in ``BENCHMARK.json`` (ties count for
neither), and a verdict by its ``bound``:

* ``gain``: at least 10 pairs, at least 9/10 of them won, and the medians
  differ in the better direction by more than REF's quartile distance;
* ``worse beyond bound``: the new side's median is worse than REF's by more
  than the metric's ``bound``, a fraction of REF's median;
* ``unresolved``: either side's quartile distance exceeds the bound, unless
  every run of the new side is better than every run of REF;
* ``no change``: otherwise.

Each side imports the program from its own ``src/``; the benchmark files
are REF's on one side and this checkout's on the other.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
# name -> (+1 when lower is better, -1 when higher is, bound)
RULES = {
    m["name"]: (1 if m["better"] == "lower" else -1, m["bound"]) for m in BENCHMARK["end_to_end"]
}
GAIN_PAIRS = 10  # fewest pairs that can show a gain


def seed_range(text: str) -> range:
    """``A-B`` (inclusive) or a single seed ``A``; a range with no seed is an
    argparse error, not a run over nothing."""
    first, _, last = text.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


@contextlib.contextmanager
def exported(ref: str):
    """A temporary directory holding ``git archive REF``, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = Path(tmp) / "ref.tar"
        subprocess.run(
            ["git", "archive", "--format=tar", "-o", str(archive), ref], cwd=ROOT, check=True
        )
        checkout = Path(tmp) / "ref"
        with tarfile.open(archive) as tar:
            tar.extractall(checkout, filter="data")
        archive.unlink()
        yield checkout


def in_turn(i: int, ref, new) -> tuple:
    """``(ref(), new())``, calling ``ref`` first when ``i`` is even and
    ``new`` first when it is odd."""
    if i % 2:
        second = new()
        return ref(), second
    first = ref()
    return first, new()


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The results file of one untraced benchmark run in ``checkout``."""
    subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, stdout=subprocess.DEVNULL,
    )
    results = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0-result.json"
    return json.loads(results.read_text())


def compare(ref: dict, new: dict) -> dict:
    """One pair: each metric's (ref, new, new / ref), and whether the output
    bytes and failure counts agree."""
    metrics = {}
    for name in METRICS:
        a, b = ref["metrics"][name]["value"], new["metrics"][name]["value"]
        metrics[name] = (a, b, b / a if a else float("nan"))
    return {
        "seed": new["seed"], "metrics": metrics,
        "sha_match": ref["output_sha256"] == new["output_sha256"],
        "failed": (ref["failed"], new["failed"]),
    }


def quartiles(values) -> tuple[float, float]:
    """The first and third quartiles; one value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def quartile_distance(values) -> float:
    q1, q3 = quartiles(values)
    return q3 - q1


def verdict(ref: list[float], new: list[float], sign: int, bound: float) -> tuple[int, str]:
    """The pairs the new side won and the verdict (module docstring);
    ``sign`` is +1 when lower is better, -1 when higher is."""
    ref, new = [sign * x for x in ref], [sign * x for x in new]  # now lower is better
    won = sum(b < a for a, b in zip(ref, new))
    gain = statistics.median(ref) - statistics.median(new)
    allowed = bound * abs(statistics.median(ref))
    if len(ref) >= GAIN_PAIRS and 10 * won >= 9 * len(ref) and gain > quartile_distance(ref):
        return won, "gain"
    if -gain > allowed:
        return won, "worse beyond bound"
    if max(quartile_distance(ref), quartile_distance(new)) > allowed and max(new) >= min(ref):
        return won, "unresolved"
    return won, "no change"


def summarize(pairs: list[tuple[float, float]], metric: str) -> dict:
    """The summary of (REF, new) pairs, judged by ``metric``'s rule in
    ``BENCHMARK.json`` (module docstring)."""
    ref, new = [a for a, _ in pairs], [b for _, b in pairs]
    ratios = [b / a if a else float("nan") for a, b in pairs]
    won, said = verdict(ref, new, *RULES[metric])
    ratio_q1, ratio_q3 = quartiles(ratios)
    return {
        "ref_median": statistics.median(ref), "ref_qd": quartile_distance(ref),
        "new_median": statistics.median(new), "new_qd": quartile_distance(new),
        "median_ratio": statistics.median(ratios), "ratio_q1": ratio_q1, "ratio_q3": ratio_q3,
        "won": won, "pairs": len(pairs), "verdict": said,
    }


def summary_line(label: str, s: dict) -> str:
    return (
        f"{label:<18} ref {s['ref_median']:.4f} (qd {s['ref_qd']:.4f}) -> "
        f"{s['new_median']:.4f} (qd {s['new_qd']:.4f}), median ratio {s['median_ratio']:.4f} "
        f"[q1 {s['ratio_q1']:.4f}, q3 {s['ratio_q3']:.4f}], better in {s['won']}/{s['pairs']}: "
        f"{s['verdict']}"
    )


def pair_lines(pair: dict, ref_first: bool) -> list[str]:
    order = "ref first" if ref_first else "change first"
    head = (f"seed {pair['seed']} ({order}): output_sha256 "
            f"{'match' if pair['sha_match'] else 'DIFFER'}, failed {pair['failed'][0]} -> "
            f"{pair['failed'][1]}")
    return [head] + [
        f"  {name:<18} {a:>12.4f} -> {b:>12.4f}  ratio {r:.4f}"
        for name, (a, b, r) in pair["metrics"].items()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    args = parser.parse_args(argv)

    pairs = []
    with exported(args.ref) as ref_checkout:
        for i, seed in enumerate(args.seeds):
            pairs.append(compare(*in_turn(
                i,
                lambda: run_side(ref_checkout, args.workload, seed, BENCHMARK["run_seconds"]),
                lambda: run_side(ROOT, args.workload, seed, BENCHMARK["run_seconds"]),
            )))
            print("\n".join(pair_lines(pairs[-1], ref_first=i % 2 == 0)), flush=True)
    print(f"{args.workload}, this checkout over {args.ref}, {len(pairs)} pairs:")
    for name in METRICS:
        print(summary_line(name, summarize([p["metrics"][name][:2] for p in pairs], name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
