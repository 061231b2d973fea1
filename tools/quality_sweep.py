"""Closed-loop quality of every shipped scenario, in both modes, over a seed range.

For each scenario in ``scenarios/`` and each seed it runs ``run_closed_loop``
in baseline and legible mode at that seed, scores the executed path with the
synthetic observer (default fractions, no FOV mask) and prints one row per
scenario and mode:

* ``L``: legibility score mean, sample sd and minimum over the seeds;
* ``margin``: the paired legible - baseline L per seed, as minimum, median
  and the number of seeds below 0.05, and ``early``: the number of pairs
  whose legible run scores strictly higher on the first two partials, the
  other clause of acceptance criterion 3 (legible rows only);
* ``reach``: fraction of runs that reached the goal, and mean cycles used;
* ``len/base``: mean and sample sd over seeds of the path length over the
  baseline's;
* ``away``: the farthest any run moves away from the goal, beyond its start
  distance, in metres;
* ``clear``: the worst executed clearance margin (distance to the nearest
  obstacle minus the robot radius), ``-`` on a scene without obstacles;
* ``vis``: mean fraction of executed waypoints inside the designated
  observer's FOV.

A run that raises ``PlannerFailure`` is counted in ``fail`` and left out of
the other columns, with its pair. Seeds run in at most two worker processes;
the planner itself runs single-threaded in each. Run it in two checkouts to
compare a change that alters output bytes:

    python3 tools/quality_sweep.py --seeds 0-79 --json after.json

The package is imported from this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from legiplan import PlannerFailure, designated_observer, run_closed_loop  # noqa: E402
from legiplan.evaluation import evaluate_trajectory  # noqa: E402
from legiplan.legibility import visibility_points  # noqa: E402
from legiplan.model import clearance_points  # noqa: E402
from legiplan.scenario_io import load_scenario  # noqa: E402

MODES = ("baseline", "legible")
MARGIN_FLOOR = 0.05  # acceptance criterion 3's legibility gain
SCENES = tuple(sorted(path.stem for path in (ROOT / "scenarios").glob("*.json")))


def run_one(scene: str, mode: str, seed: int) -> dict | None:
    """Quality figures of one closed-loop run; None when the planner fails."""
    spec = load_scenario(str(ROOT / "scenarios" / f"{scene}.json"))
    spec = dataclasses.replace(
        spec, seed=seed, planner=dataclasses.replace(spec.planner, mode=mode)
    )
    try:
        sim = run_closed_loop(spec)
    except PlannerFailure:
        return None
    pts = sim.executed.waypoints
    goal = spec.target_goal().position.as_array()
    to_goal = np.linalg.norm(pts - goal, axis=1)
    clearance = None
    if spec.obstacles:
        clearance = float(np.min(clearance_points(pts, spec.obstacles)) - spec.robot.radius)
    report = evaluate_trajectory(sim.executed, spec)
    return {
        "L": report.score,
        "early": report.correctness[:2],
        "reached": sim.reached,
        "cycles": sim.cycles_used,
        "length": sim.executed.arc_length(),
        "away": float(np.max(to_goal) - to_goal[0]),
        "clearance": clearance,
        "visible": float(np.mean(visibility_points(pts, designated_observer(spec)))),
    }


def _run_pair(job: tuple[str, int]) -> tuple[str, dict]:
    scene, seed = job
    return scene, {mode: run_one(scene, mode, seed) for mode in MODES}


def sweep(scenes: tuple[str, ...], seeds: range, jobs: int = 1) -> dict:
    """Per scene and mode summary over ``seeds``, keyed scene -> mode."""
    work = [(scene, seed) for scene in scenes for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_pair, work, chunksize=4))
    else:
        results = [_run_pair(job) for job in work]
    runs: dict = {scene: [] for scene in scenes}
    for scene, pair in results:
        runs[scene].append(pair)
    return {scene: _summarize(pairs) for scene, pairs in runs.items()}


def _summarize(pairs: list[dict]) -> dict:
    summary = {}
    both = [pair for pair in pairs if all(pair[m] is not None for m in MODES)]
    for mode in MODES:
        ok = [pair[mode] for pair in pairs if pair[mode] is not None]
        row: dict = {"runs": len(pairs), "failed": len(pairs) - len(ok)}
        if ok:
            scores = [run["L"] for run in ok]
            clearances = [run["clearance"] for run in ok if run["clearance"] is not None]
            row.update({
                "L_mean": statistics.fmean(scores),
                "L_sd": statistics.stdev(scores) if len(scores) > 1 else 0.0,
                "L_min": min(scores),
                "reached_frac": sum(run["reached"] for run in ok) / len(ok),
                "cycles_mean": statistics.fmean(run["cycles"] for run in ok),
                "away_max": max(run["away"] for run in ok),
                "clearance_min": min(clearances) if clearances else None,
                "visible_mean": statistics.fmean(run["visible"] for run in ok),
            })
        if both:
            ratios = [
                pair[mode]["length"] / pair["baseline"]["length"]
                if pair["baseline"]["length"] > 0 else math.nan
                for pair in both
            ]
            row["length_ratio_mean"] = statistics.fmean(ratios)
            row["length_ratio_sd"] = statistics.stdev(ratios) if len(ratios) > 1 else 0.0
        if mode == "legible" and both:
            margins = [pair["legible"]["L"] - pair["baseline"]["L"] for pair in both]
            row.update({
                "margin_min": min(margins),
                "margin_median": statistics.median(margins),
                "margin_below_floor": sum(m < MARGIN_FLOOR for m in margins),
                "early_partials_held": sum(
                    all(x > y for x, y in zip(pair["legible"]["early"], pair["baseline"]["early"]))
                    for pair in both
                ),
            })
        summary[mode] = row
    return summary


def _fmt(value, spec: str) -> str:
    """``value`` in format ``spec`` ("[+]width.precision f" or "width d");
    a missing value is a right-aligned dash."""
    if value is None:
        return "-".rjust(int(spec.lstrip("+").split(".")[0].rstrip("d")))
    return format(value, spec)


def format_table(summary: dict) -> str:
    head = (
        f"{'scene':24s} {'mode':8s} {'L mean':>6s} {'sd':>5s} {'min':>5s}  "
        f"{'margin min':>10s} {'med':>6s} {'<.05':>4s} {'early':>5s}  {'reach':>5s} {'cycles':>6s}  "
        f"{'len/base':>8s} {'sd':>5s} {'away':>5s} {'clear':>6s} {'vis':>5s} {'fail':>4s}"
    )
    lines = [head]
    for scene, modes in summary.items():
        for mode, row in modes.items():
            lines.append(
                f"{scene:24s} {mode:8s} {_fmt(row.get('L_mean'), '6.3f')} "
                f"{_fmt(row.get('L_sd'), '5.3f')} {_fmt(row.get('L_min'), '5.3f')}  "
                f"{_fmt(row.get('margin_min'), '+10.3f')} {_fmt(row.get('margin_median'), '+6.3f')} "
                f"{_fmt(row.get('margin_below_floor'), '4d')} "
                f"{_fmt(row.get('early_partials_held'), '5d')}  "
                f"{_fmt(row.get('reached_frac'), '5.2f')} {_fmt(row.get('cycles_mean'), '6.1f')}  "
                f"{_fmt(row.get('length_ratio_mean'), '8.3f')} "
                f"{_fmt(row.get('length_ratio_sd'), '5.3f')} {_fmt(row.get('away_max'), '5.2f')} "
                f"{_fmt(row.get('clearance_min'), '6.3f')} {_fmt(row.get('visible_mean'), '5.3f')} "
                f"{row['failed']:4d}"
            )
    return "\n".join(lines)


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=range(20),
                        help="inclusive seed range A-B, or one seed (default 0-19)")
    parser.add_argument("--json", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    summary = sweep(SCENES, args.seeds, jobs=2)
    print(f"seeds {args.seeds.start}-{args.seeds.stop - 1}")
    print(format_table(summary))
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"seeds": [args.seeds.start, args.seeds.stop - 1], "scenes": summary},
            indent=2, sort_keys=True,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
