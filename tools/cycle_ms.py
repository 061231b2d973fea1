"""Print the planning-cycle time of every shipped scenario in both modes.

For each scenario in ``scenarios/`` and each mode it times ``plan_once`` from
the scenario's start state over cycle seeds 0-19, 5 rounds, and prints one
``scenario  mode  ms  xref`` line each: ms is the best round's mean cycle
time in milliseconds, xref the median over every timed cycle of its wall
time over that of the benchmark's ``reference_work()`` run just before it.
The host's speed drifts between and within runs: on a 2-vCPU host two
back-to-back runs differed by up to 51% per line in ms and 16% in xref. Run
it in two checkouts, alternating, to time a change to the planner's hot
path, and compare the xref columns:

    python3 tools/cycle_ms.py > after.txt

The package is imported from this checkout's ``src/``, the reference from
its ``perfbench/meter.py``.
"""
from __future__ import annotations

import dataclasses
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from legiplan.planner import plan_once  # noqa: E402
from legiplan.scenario_io import load_scenario  # noqa: E402
from meter import reference_work  # noqa: E402

SEEDS = range(20)
ROUNDS = 5


def cycle_ms(spec) -> tuple[float, float]:
    """Best-of-ROUNDS mean wall time of one plan_once in milliseconds, and
    the median ratio of a cycle's wall time to its reference's (xref)."""
    plan_once(spec, rng_seed=0)  # warm-up
    best, ratios = float("inf"), []
    for _ in range(ROUNDS):
        total = 0.0
        for seed in SEEDS:
            start = time.perf_counter()
            reference_work()
            mid = time.perf_counter()
            plan_once(spec, rng_seed=seed)
            end = time.perf_counter()
            total += end - mid
            ratios.append((end - mid) / (mid - start))
        best = min(best, total / len(SEEDS))
    return best * 1e3, statistics.median(ratios)


def main() -> None:
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        spec = load_scenario(str(path))
        for mode in ("baseline", "legible"):
            moded = dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, mode=mode))
            ms, xref = cycle_ms(moded)
            print(f"{path.stem:26s}  {mode:8s}  {ms:7.3f}  {xref:6.3f}", flush=True)


if __name__ == "__main__":
    main()
