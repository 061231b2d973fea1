"""Print the planning-cycle time of every shipped scenario in both modes.

For each scenario in ``scenarios/`` and each mode it times ``plan_once`` from
the scenario's start state over cycle seeds 0-19 and prints the best of 5
rounds as milliseconds per cycle, one ``scenario  mode  ms`` line each. Run
it in two checkouts, alternating, to time a change to the planner's hot path:

    python3 tools/cycle_ms.py > after.txt

The package is imported from this checkout's ``src/``.
"""
from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from legiplan.planner import plan_once  # noqa: E402
from legiplan.scenario_io import load_scenario  # noqa: E402

SEEDS = range(20)
ROUNDS = 5


def cycle_ms(spec) -> float:
    """Best-of-ROUNDS mean wall time of one plan_once, in milliseconds."""
    plan_once(spec, rng_seed=0)  # warm-up
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for seed in SEEDS:
            plan_once(spec, rng_seed=seed)
        best = min(best, (time.perf_counter() - start) / len(SEEDS))
    return best * 1e3


def main() -> None:
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        spec = load_scenario(str(path))
        for mode in ("baseline", "legible"):
            moded = dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, mode=mode))
            print(f"{path.stem:26s}  {mode:8s}  {cycle_ms(moded):7.3f}", flush=True)


if __name__ == "__main__":
    main()
