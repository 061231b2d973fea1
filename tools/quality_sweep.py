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
  observer's FOV;
* ``Lt``: time-indexed legibility (Dragan, Lee and Srinivasa, HRI 2013):
  the same observer and 1/k weights as L, but on the executed prefixes that
  end at 0.25, 0.5 and 0.75 x ``T_ref``, the paired baseline run's duration
  (see ``time_legibility``). Its mean per mode, and on legible rows the
  paired legible - baseline Lt as minimum and median, over the pairs where
  both runs succeeded. A detour that keeps the observer unsure for longer
  lowers Lt, where L, indexed by arc length, cannot see it;
* ``s/run``: mean wall seconds of one run and its scoring.

A run that raises ``PlannerFailure`` is counted in ``fail`` and left out of
the other columns, with its pair. Seeds run in at most two worker processes;
the planner itself runs single-threaded in each. Run it in two checkouts to
compare a change that alters output bytes:

    python3 tools/quality_sweep.py --seeds 0-79 --json after.json

``--set planner.KEY=VALUE`` (repeatable) runs every scene with that planner
key of the scene file set to VALUE, a JSON value; KEY is dotted for a nested
key, for example ``--set planner.cem_iterations=3`` or
``--set planner.cem_init_std.omega_deg=30``. The change is written into each
scene's document and read by ``parse_scenario``, so the file's types, units,
ranges and JSON paths apply, on every scene before any run starts. The
overrides are echoed in the table's first line and in the JSON.

The package is imported from this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))

import numpy as np  # noqa: E402

from legiplan import PlannerFailure, designated_observer, run_closed_loop  # noqa: E402
from legiplan.evaluation import (  # noqa: E402
    PosteriorModel, evaluate_trajectory, legibility_score, posterior_batch,
)
from legiplan.legibility import visibility_points  # noqa: E402
from legiplan.model import Trajectory, clearance_points, prefix_points  # noqa: E402
from legiplan.scenario_io import parse_scenario  # noqa: E402

from bench_pairs import seed_range  # noqa: E402

MODES = ("baseline", "legible")
MARGIN_FLOOR = 0.05  # acceptance criterion 3's legibility gain
LT_TIMES = (0.25, 0.50, 0.75)  # Lt's prefix end times, as fractions of T_ref
SCENES = tuple(sorted(path.stem for path in (ROOT / "scenarios").glob("*.json")))


def scenario(scene: str, mode: str, seed: int, overrides: tuple = ()):
    """A shipped scene at `seed` in `mode`, with the planner keys `overrides`
    ((KEY, VALUE) pairs, KEY dotted for a nested key) set in its document;
    the parser raises ScenarioError on a key or value it rejects."""
    doc = json.loads((ROOT / "scenarios" / f"{scene}.json").read_bytes())
    for key, value in overrides:
        *parents, name = key.split(".")
        section = doc["planner"]
        for parent in parents:  # copied, so no override's own value is changed
            section[parent] = dict(section[parent]) if isinstance(section.get(parent), dict) else {}
            section = section[parent]
        section[name] = value
    doc["planner"]["mode"], doc["seed"] = mode, seed
    return parse_scenario(doc)


def time_legibility(executed: Trajectory, spec, t_ref: float) -> float:
    """Lt of an executed path: ``legibility_score`` of the target's
    correctness after the prefixes that end at LT_TIMES x ``t_ref`` seconds.

    The prefix at time t holds the waypoints up to round(t / dt), or the
    whole path if the run is shorter; a prefix of the start alone has
    length 0 and scores the prior."""
    pts, dt = executed.waypoints, spec.planner.dt
    ends = [min(round(fraction * t_ref / dt), len(pts) - 1) for fraction in LT_TIMES]
    lengths = prefix_points(pts, (1.0,))[0].take(ends)  # running arc length
    posterior = posterior_batch(lengths, pts.take(ends, axis=0), pts[0], spec.goals,
                                PosteriorModel())
    return legibility_score(posterior[:, spec.goals.index(spec.target_goal())].tolist())


def run_one(
    scene: str, mode: str, seed: int, overrides: tuple = (), t_ref: float | None = None
) -> dict | None:
    """Quality figures of one closed-loop run; None when the planner fails.
    Its Lt is scored against ``t_ref`` seconds, the run's own duration when
    None (the baseline run of a pair)."""
    spec = scenario(scene, mode, seed, overrides)
    started = time.perf_counter()
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
    duration = (len(pts) - 1) * spec.planner.dt
    return {
        "L": report.score,
        "Lt": time_legibility(sim.executed, spec, duration if t_ref is None else t_ref),
        "duration": duration,
        "early": report.correctness[:2],
        "reached": sim.reached,
        "cycles": sim.cycles_used,
        "length": sim.executed.arc_length(),
        "away": float(np.max(to_goal) - to_goal[0]),
        "clearance": clearance,
        "visible": float(np.mean(visibility_points(pts, designated_observer(spec)))),
        "wall_s": time.perf_counter() - started,
    }


def _run_pair(job: tuple[str, int, tuple]) -> tuple[str, dict]:
    scene, seed, overrides = job
    base = run_one(scene, "baseline", seed, overrides)
    t_ref = None if base is None else base["duration"]
    return scene, {"baseline": base, "legible": run_one(scene, "legible", seed, overrides, t_ref)}


def sweep(scenes: tuple[str, ...], seeds: range, jobs: int = 1, overrides: tuple = ()) -> dict:
    """Per scene and mode summary over ``seeds``, keyed scene -> mode."""
    work = [(scene, seed, overrides) for scene in scenes for seed in seeds]
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
                "wall_s_mean": statistics.fmean(run["wall_s"] for run in ok),
            })
        if both:
            ratios = [
                pair[mode]["length"] / pair["baseline"]["length"]
                if pair["baseline"]["length"] > 0 else math.nan
                for pair in both
            ]
            row["Lt_mean"] = statistics.fmean(pair[mode]["Lt"] for pair in both)
            row["length_ratio_mean"] = statistics.fmean(ratios)
            row["length_ratio_sd"] = statistics.stdev(ratios) if len(ratios) > 1 else 0.0
        if mode == "legible" and both:
            margins = [pair["legible"]["L"] - pair["baseline"]["L"] for pair in both]
            lt_margins = [pair["legible"]["Lt"] - pair["baseline"]["Lt"] for pair in both]
            row.update({
                "margin_min": min(margins),
                "margin_median": statistics.median(margins),
                "margin_below_floor": sum(m < MARGIN_FLOOR for m in margins),
                "Lt_margin_min": min(lt_margins),
                "Lt_margin_median": statistics.median(lt_margins),
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
        f"{'len/base':>8s} {'sd':>5s} {'away':>5s} {'clear':>6s} {'vis':>5s}  "
        f"{'Lt':>5s} {'margin min':>10s} {'med':>6s}  {'s/run':>5s} "
        f"{'fail':>4s}"
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
                f"{_fmt(row.get('clearance_min'), '6.3f')} "
                f"{_fmt(row.get('visible_mean'), '5.3f')}  {_fmt(row.get('Lt_mean'), '5.3f')} "
                f"{_fmt(row.get('Lt_margin_min'), '+10.3f')} "
                f"{_fmt(row.get('Lt_margin_median'), '+6.3f')}  "
                f"{_fmt(row.get('wall_s_mean'), '5.2f')} {row['failed']:4d}"
            )
    return "\n".join(lines)


def _planner_override(text: str) -> tuple[str, object]:
    """One ``planner.KEY=VALUE`` as (KEY, VALUE), VALUE read as JSON. The
    scene parser checks KEY and VALUE; the sweep sets ``mode`` itself."""
    name, _, value = text.partition("=")
    section, _, key = name.partition(".")
    if section != "planner" or key.partition(".")[0] in ("", "mode"):
        raise argparse.ArgumentTypeError(
            f"expected planner.KEY=VALUE, KEY a planner key other than mode; got {text!r}"
        )
    try:
        return key, json.loads(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"planner.{key}: not a JSON value: {value!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=range(20),
                        help="inclusive seed range A-B, or one seed (default 0-19)")
    parser.add_argument("--set", type=_planner_override, action="append", default=[],
                        metavar="planner.KEY=VALUE", dest="overrides",
                        help="change one planner field on every scene (repeatable)")
    parser.add_argument("--json", type=Path, help="also write the summary as JSON here")
    args = parser.parse_args(argv)
    overrides = tuple(dict(args.overrides).items())  # a repeated KEY keeps its last VALUE
    for scene in SCENES:  # the checks do not depend on the mode
        try:
            scenario(scene, MODES[0], args.seeds.start, overrides)
        except ValueError as exc:
            parser.error(f"--set on {scene}: {exc}")
    summary = sweep(SCENES, args.seeds, jobs=2, overrides=overrides)
    echo = "".join(f" planner.{key}={json.dumps(value)}" for key, value in overrides)
    print(f"seeds {args.seeds.start}-{args.seeds.stop - 1}" + (f"  set{echo}" if echo else ""))
    print(format_table(summary))
    if args.json is not None:
        args.json.write_text(json.dumps(
            {
                "seeds": [args.seeds.start, args.seeds.stop - 1],
                "set": {f"planner.{key}": value for key, value in overrides},
                "scenes": summary,
            },
            indent=2, sort_keys=True,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
