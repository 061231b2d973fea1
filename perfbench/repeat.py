"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/repeat.py --seeds 1-10 [--trace 0] [--out summary.json]

Runs ``perfbench/run.py`` once per seed on every workload in BENCHMARK.json,
at its ``run_seconds``, one run after another.  Prints for each end-to-end
metric the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the quartile distance as a share of the median, next to the
bound in BENCHMARK.json.  ``--out`` keeps
every run's values, output hash and environment for later comparison.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (BENCH_DIR / "results" / f"{workload}-seed{seed}-trace{trace}-result.json").read_text()
    )
    return {"seed": seed, **line, "output_sha256": record["output_sha256"],
            "min_clearance_m": record["min_clearance_m"], "environment": record["environment"]}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the spreads to this JSON file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, config["run_seconds"], args.trace))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"failed={runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        names = runs[0]["metrics"]
        stats = {name: spread([r["metrics"][name]["value"] for r in runs]) for name in names}
        summary[workload] = {"runs": runs, "stats": stats}
        for name, s in stats.items():
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}{mark}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
