"""Time this checkout against a git ref in alternating benchmark pairs.

    python3 tools/bench_pairs.py --ref HEAD~1 --workload baseline_single_goal --seeds 1-4

REF is exported with ``git archive`` into a temporary directory, which is
removed afterwards. For each seed the exported ref and this checkout each
run ``perfbench/run.py --workload W --seed N --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` (30), one after the other; which side
goes first alternates from pair to pair, so a drift in host speed does not
favour one side. Each pair prints the six
end-to-end metrics of ``BENCHMARK.json`` for both sides, their ratio (this
checkout over REF) and whether the two ``output_sha256`` matched. The run
ends with each metric's median ratio and the number of pairs in which this
checkout read lower.

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
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])


def seed_range(text: str) -> range:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


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


def summarize(pairs: list[dict]) -> dict:
    """Each metric's median ratio over the pairs, and in how many pairs this
    checkout read lower than REF."""
    return {
        name: {
            "median_ratio": statistics.median(p["metrics"][name][2] for p in pairs),
            "lower": sum(p["metrics"][name][2] < 1.0 for p in pairs),
            "pairs": len(pairs),
        }
        for name in METRICS
    }


def pair_lines(pair: dict, ref_first: bool) -> list[str]:
    order = "ref first" if ref_first else "change first"
    head = (f"seed {pair['seed']} ({order}): output_sha256 "
            f"{'match' if pair['sha_match'] else 'DIFFER'}, failed {pair['failed'][0]} -> "
            f"{pair['failed'][1]}")
    return [head] + [
        f"  {name:<18} {a:>12.4f} -> {b:>12.4f}  ratio {r:.4f}"
        for name, (a, b, r) in pair["metrics"].items()
    ]


def summary_lines(summary: dict) -> list[str]:
    return [
        f"{name:<18} median ratio {s['median_ratio']:.4f}, lower in {s['lower']}/{s['pairs']}"
        for name, s in summary.items()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    args = parser.parse_args(argv)

    pairs = []
    with exported(args.ref) as ref_checkout:
        for i, seed in enumerate(args.seeds):
            ref_first = i % 2 == 0
            sides = [ref_checkout, ROOT] if ref_first else [ROOT, ref_checkout]
            results = {
                side: run_side(side, args.workload, seed, BENCHMARK["run_seconds"])
                for side in sides
            }
            pairs.append(compare(results[ref_checkout], results[ROOT]))
            print("\n".join(pair_lines(pairs[-1], ref_first)), flush=True)
    print(f"{args.workload}, this checkout over {args.ref}, {len(pairs)} pairs:")
    print("\n".join(summary_lines(summarize(pairs))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
