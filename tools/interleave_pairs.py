"""Time this checkout's closed loop against a git ref's in one interpreter.

    python3 tools/interleave_pairs.py --ref HEAD~1 --rounds 30 --seeds 1-2

REF is exported with ``git archive`` into a temporary directory, which is
removed afterwards. Its ``src/legiplan`` is imported as the package
``legiplan_ref`` and this checkout's as ``legiplan_work``, side by side in
one interpreter; ``--against REF2`` takes the second side from REF2 instead
of the working tree, so ``--ref HEAD --against HEAD`` is an A/A run.

Every scene in ``perfbench/scenes`` is run at each seed in baseline and
legible mode: one ``run_closed_loop``, capped at ``RUN_CYCLES`` cycles, per
(mode, scene, seed) case. First each case runs once on both sides, which
warms them up, and its runs must be byte-equal (``run_bytes``: every
cycle's ``PlanResult``, the executed path and the failure's message, if
any). If any case differs, the cases are listed and the run stops with
status 1 before any timing. Then each round runs every case again, the two
sides alternating call by call; which side goes first flips from case to
case and from round to round, so a drift in host speed or a warm cache
favours neither. A round's pair is each side's summed milliseconds per mode.

The run prints one ``bench_pairs.summary_line`` per mode, judged by
``latency_p50_xref``'s rule, the tightest op-latency bound in
``BENCHMARK.json``. Calls alternate within one process, so this resolves a
change of a few percent that separate benchmark processes, each with its
own memory layout, cannot. 30 rounds take about 40 s on a 2-vCPU host.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "perfbench" / "scenes"
MODES = ("baseline", "legible")
RUN_CYCLES = 10  # each case's closed-loop cycle cap
sys.path.insert(0, str(ROOT / "tools"))

from bench_pairs import exported, in_turn, seed_range, summarize, summary_line  # noqa: E402


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
    """Every number of a SimulationResult as bytes: each cycle's
    ``plan_bytes``, the executed waypoints, headings and controls, then
    ``reached``, ``cycles_used`` and the message of the failure that ended
    the run, if any."""
    plans = b"".join(plan_bytes(result) for result in sim.plan_results)
    arrays = (sim.executed.waypoints, sim.headings, sim.controls)
    tail = json.dumps([sim.reached, sim.cycles_used, failure]).encode()
    return plans + b"".join(a.tobytes() for a in arrays) + tail


def closed_loop(package, spec) -> tuple:
    """``package``'s closed loop on ``spec`` and ``""``, or, for a run the
    planner fails, its partial log and the failure's message."""
    try:
        return package.run_closed_loop(spec), ""
    except package.PlannerFailure as exc:
        return exc.partial, str(exc)


def cases(package, seeds) -> list[tuple[str, str, int, object]]:
    """(mode, scene, seed, spec) of every case, the specs parsed by
    ``package``, seeded and capped at RUN_CYCLES cycles."""
    out = []
    for path in sorted(SCENES.glob("*.json")):
        spec = package.parse_scenario(path.read_bytes())
        cycles = min(spec.planner.max_cycles, RUN_CYCLES)
        for mode in MODES:
            planner = dataclasses.replace(spec.planner, mode=mode, max_cycles=cycles)
            out.extend(
                (mode, path.stem, seed, dataclasses.replace(spec, seed=seed, planner=planner))
                for seed in seeds
            )
    return out


def mismatches(ref, work, ref_cases, work_cases) -> list[str]:
    """The cases whose two runs differ, as ``mode scene seed``."""
    return [
        f"{mode} {scene} seed {seed}"
        for (mode, scene, seed, a), (*_, b) in zip(ref_cases, work_cases)
        if run_bytes(*closed_loop(ref, a)) != run_bytes(*closed_loop(work, b))
    ]


def time_rounds(ref, work, ref_cases, work_cases, rounds: int) -> dict[str, list[tuple]]:
    """Per mode, each round's (ref, work) summed milliseconds over its cases."""

    def timed(package, spec) -> float:
        start = time.perf_counter()
        closed_loop(package, spec)
        return 1e3 * (time.perf_counter() - start)

    timings = {mode: [] for mode in MODES}
    for r in range(rounds):
        totals = {mode: [0.0, 0.0] for mode in MODES}
        for i, ((mode, _, _, a), (*_, b)) in enumerate(zip(ref_cases, work_cases)):
            pair = in_turn(r + i, lambda: timed(ref, a), lambda: timed(work, b))
            for side, ms in enumerate(pair):
                totals[mode][side] += ms
        for mode, pair in totals.items():
            timings[mode].append(tuple(pair))
    return timings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against")
    parser.add_argument("--against", help="git ref for the working side (default: this checkout)")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument(
        "--seeds", type=seed_range, default=seed_range("1-2"), help="A-B, inclusive"
    )
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

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
        print(summary_line(mode, summarize(timings[mode], "latency_p50_xref")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
