"""Time this checkout's planner against a git ref's in one interpreter.

    python3 tools/interleave_pairs.py --ref HEAD~1 --rounds 30 --seeds 1-2

REF is exported with ``git archive`` into a temporary directory, which is
removed afterwards. Its ``src/legiplan`` is imported as the package
``legiplan_ref`` and this checkout's as ``legiplan_work``, side by side in
one interpreter; ``--against REF2`` takes the second side from REF2 instead
of the working tree, so ``--ref HEAD --against HEAD`` is an A/A run.

Every scene in ``perfbench/scenes`` is planned at each seed in baseline and
legible mode. First each (scene, seed, mode) case runs once on both sides,
which warms them up: its ``PlanResult`` and a ``run_closed_loop`` at that
seed, capped at ``RUN_CYCLES`` cycles, must both be byte-equal on the two
sides. If any case differs, the cases are listed and the run stops with
status 1 before any timing. Then each round runs ``plan_once`` on every
case, the two sides alternating call by call; which side goes first flips
from case to case and from round to round, so a drift in host speed or a
warm cache favours neither. A round's pair is each side's summed time per
mode, and its ratio is the working side's over REF's.

The run prints one line per mode: each side's median round time, the
median of the paired ratios with its quartiles (inclusive method), and the
rounds the working side won. Calls alternate within one process, so this
resolves a change of a few percent that separate benchmark processes,
each with its own memory layout, cannot.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "perfbench" / "scenes"
MODES = ("baseline", "legible")
RUN_CYCLES = 10  # the closed loop's cycle cap in the byte check
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import exported, seed_range  # noqa: E402


def load_package(name: str, src: Path):
    """``src/legiplan`` imported as the package ``name``; its relative
    imports resolve inside it, so two copies live side by side."""
    spec = importlib.util.spec_from_file_location(
        name, src / "legiplan" / "__init__.py", submodule_search_locations=[str(src / "legiplan")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def plan_bytes(result) -> bytes:
    """Every number of a PlanResult as bytes: the plan, its controls, each
    prediction in goal-id order and the breakdown."""
    arrays = [result.trajectory.waypoints, result.controls.controls]
    arrays += [result.predictions[goal_id].waypoints for goal_id in sorted(result.predictions)]
    tail = json.dumps(result.breakdown.to_dict()).encode()  # repr floats: exact, sign kept
    return b"".join(a.tobytes() for a in arrays) + tail


def run_bytes(sim, failure: str = "") -> bytes:
    """Every number of a SimulationResult as bytes: the executed waypoints,
    headings and controls, then ``reached``, ``cycles_used`` and the message
    of the failure that ended the run, if any."""
    arrays = (sim.executed.waypoints, sim.headings, sim.controls)
    tail = json.dumps([sim.reached, sim.cycles_used, failure]).encode()
    return b"".join(a.tobytes() for a in arrays) + tail


def capped_run_bytes(package, spec, seed: int) -> bytes:
    """``run_bytes`` of ``package``'s closed loop on ``spec`` at ``seed``,
    capped at RUN_CYCLES cycles; a run the planner fails gives its partial log."""
    capped = dataclasses.replace(spec.planner, max_cycles=min(spec.planner.max_cycles, RUN_CYCLES))
    try:
        sim = package.run_closed_loop(dataclasses.replace(spec, seed=seed, planner=capped))
    except package.PlannerFailure as exc:
        return run_bytes(exc.partial, str(exc))
    return run_bytes(sim)


def cases(package, seeds) -> list[tuple[str, str, int, object]]:
    """(mode, scene, seed, spec) of every case, the specs parsed by ``package``."""
    out = []
    for path in sorted(SCENES.glob("*.json")):
        spec = package.parse_scenario(path.read_bytes())
        for mode in MODES:
            moded = dataclasses.replace(spec, planner=dataclasses.replace(spec.planner, mode=mode))
            out.extend((mode, path.stem, seed, moded) for seed in seeds)
    return out


def mismatches(ref, work, ref_cases, work_cases) -> list[str]:
    """The cases whose two PlanResults or two capped runs differ, as
    ``mode scene seed``."""
    return [
        f"{mode} {scene} seed {seed}"
        for (mode, scene, seed, a), (*_, b) in zip(ref_cases, work_cases)
        if plan_bytes(ref.plan_once(a, seed)) != plan_bytes(work.plan_once(b, seed))
        or capped_run_bytes(ref, a, seed) != capped_run_bytes(work, b, seed)
    ]


def time_rounds(ref, work, ref_cases, work_cases, rounds: int) -> dict[str, list[tuple]]:
    """Per mode, each round's (ref, work) summed seconds over its cases."""
    timings = {mode: [] for mode in MODES}
    for r in range(rounds):
        totals = {mode: [0.0, 0.0] for mode in MODES}
        for i, ((mode, _, seed, a), (*_, b)) in enumerate(zip(ref_cases, work_cases)):
            calls = [(0, ref.plan_once, a), (1, work.plan_once, b)]
            for side, plan_once, spec in calls if (r + i) % 2 == 0 else calls[::-1]:
                start = time.perf_counter()
                plan_once(spec, rng_seed=seed)
                totals[mode][side] += time.perf_counter() - start
        for mode, pair in totals.items():
            timings[mode].append(tuple(pair))
    return timings


def summarize(pairs: list[tuple[float, float]]) -> dict:
    """Each side's median, the paired ratios' (work / ref) median and
    quartiles, and the rounds the working side won, of (ref, work) pairs."""
    ratios = [work / ref for ref, work in pairs]
    q1, median, q3 = (
        statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    )
    return {
        "ref_median": statistics.median(ref for ref, _ in pairs),
        "work_median": statistics.median(work for _, work in pairs),
        "ratio_median": median, "ratio_q1": q1, "ratio_q3": q3,
        "won": sum(work < ref for ref, work in pairs), "rounds": len(pairs),
    }


def summary_line(mode: str, s: dict) -> str:
    return (
        f"{mode:<8} ref {1e3 * s['ref_median']:.2f} ms  work {1e3 * s['work_median']:.2f} ms  "
        f"ratio {s['ratio_median']:.4f} [q1 {s['ratio_q1']:.4f}, q3 {s['ratio_q3']:.4f}]  "
        f"work faster in {s['won']}/{s['rounds']} rounds"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--against", help="git ref for the working side (default: this checkout)")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument(
        "--seeds", type=seed_range, default=seed_range("1-2"), help="A-B, inclusive"
    )
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        ref = load_package("legiplan_ref", stack.enter_context(exported(args.ref)) / "src")
        work_root = stack.enter_context(exported(args.against)) if args.against else ROOT
        work = load_package("legiplan_work", work_root / "src")
        ref_cases, work_cases = cases(ref, args.seeds), cases(work, args.seeds)
        differ = mismatches(ref, work, ref_cases, work_cases)
        against = args.against or "this checkout"
        print(f"{against} against {args.ref}: {len(ref_cases) - len(differ)} of "
              f"{len(ref_cases)} plans byte-equal", flush=True)
        if differ:
            print("\n".join(f"  differs: {case}" for case in differ))
            return 1
        timings = time_rounds(ref, work, ref_cases, work_cases, args.rounds)
    for mode in MODES:
        print(summary_line(mode, summarize(timings[mode])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
