"""Command-line interface: plan, simulate, evaluate and compare scenarios.

Exit codes: 0 success, 1 validation/usage error, 2 planner failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys

from . import scenario_io
from .evaluation import PosteriorModel, evaluate_trajectory
from .model import _MODES, PlannerFailure, ScenarioError, ScenarioSpec

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PLANNER_FAILURE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the CLI contract wants 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _error_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _override(spec: ScenarioSpec, mode: str | None, seed: int | None) -> ScenarioSpec:
    if mode is not None:
        spec = dataclasses.replace(
            spec, planner=dataclasses.replace(spec.planner, mode=mode)
        )
    if seed is not None:
        if not 0 <= seed < 2**64:
            raise ScenarioError("--seed", "must be a 64-bit unsigned integer")
        spec = dataclasses.replace(spec, seed=seed)
    return spec


def _check_writable(*paths: str | None) -> None:
    """Raise the OSError that writing an output path would raise, before any
    planning runs; creates no file."""
    for path in filter(None, paths):
        parent = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOENT
        elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), path)


def _write_svg(path: str, spec: ScenarioSpec, trajectories, predictions=None) -> None:
    from .svg_render import render_svg  # only an --svg run loads the SVG writer
    data = render_svg(spec, trajectories, predictions)
    with open(path, "wb") as fh:
        fh.write(data)


def _cmd_plan(args: argparse.Namespace) -> int:
    from .planner import plan_once, rollout_headings
    spec = _override(scenario_io.load_scenario(args.scenario), args.mode, args.seed)
    _check_writable(args.out, args.svg)
    result = plan_once(spec, rng_seed=spec.seed)
    if args.out:
        controls = result.controls.controls
        headings = rollout_headings(spec.robot, controls, spec.planner.dt)
        rows = scenario_io.plan_rows(result.trajectory, headings, controls, spec.robot.speed, spec)
        scenario_io.write_trajectory_csv(args.out, rows)
    if args.svg:
        _write_svg(args.svg, spec, [(spec.planner.mode, result.trajectory)], result.predictions)
    _print_json(result.breakdown.to_dict())
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .planner import run_closed_loop
    spec = _override(scenario_io.load_scenario(args.scenario), args.mode, args.seed)
    _check_writable(args.out, args.svg)
    sim = run_closed_loop(spec)
    scenario_io.write_trajectory_csv(args.out, scenario_io.simulation_rows(sim, spec))
    if args.svg:
        _write_svg(args.svg, spec, [(spec.planner.mode, sim.executed)])
    summary = {
        "mode": spec.planner.mode,
        "seed": spec.seed,
        "reached": sim.reached,
        "cycles_used": sim.cycles_used,
        "executed_steps": int(sim.controls.shape[0]),
        "final_position": [float(v) for v in sim.executed.waypoints[-1]],
    }
    _print_json(summary)
    return EXIT_OK


def _parse_fractions(raw: str) -> tuple[float, ...]:
    try:
        fractions = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ScenarioError("--fractions", "must be comma-separated numbers") from None
    if not fractions or any(not 0 <= f <= 1 for f in fractions):
        raise ScenarioError("--fractions", "fractions must lie in [0, 1]")
    return fractions


def _cmd_evaluate(args: argparse.Namespace) -> int:
    # The flags first, so a bad one is reported before any file is read.
    try:
        model = PosteriorModel(beta=args.beta)
    except ValueError as exc:
        raise ScenarioError("--beta", str(exc)) from None
    fractions = _parse_fractions(args.fractions)
    spec = scenario_io.load_scenario(args.scenario)
    trajectory, _ = scenario_io.load_trajectory_csv(args.trajectory)
    report = evaluate_trajectory(
        trajectory, spec, model=model, fractions=fractions, mask_fov=args.mask_fov
    )
    _print_json(report.to_dict())
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    from .planner import run_closed_loop
    spec = _override(scenario_io.load_scenario(args.scenario), None, args.seed)
    _check_writable(args.svg)
    runs = {}
    for mode in _MODES:
        mode_spec = _override(spec, mode, None)
        sim = run_closed_loop(mode_spec)
        report = evaluate_trajectory(sim.executed, mode_spec, mode=mode)
        runs[mode] = (mode_spec, sim, report)

    if args.svg:
        legible_spec, legible_sim, _ = runs["legible"]
        predictions = (
            legible_sim.plan_results[0].predictions if legible_sim.plan_results else None
        )
        trajectories = [
            ("baseline", runs["baseline"][1].executed),
            ("legible", legible_sim.executed),
        ]
        _write_svg(args.svg, legible_spec, trajectories, predictions)

    base_report = runs["baseline"][2]
    leg_report = runs["legible"][2]
    payload = {
        "seed": spec.seed,
        "partial_fractions": list(base_report.partial_fractions),
        "L_baseline": base_report.score,
        "L_legible": leg_report.score,
        "delta_L": leg_report.score - base_report.score,
        "correctness_baseline": list(base_report.correctness),
        "correctness_legible": list(leg_report.correctness),
        "delta_correctness": [
            lc - bc for lc, bc in zip(leg_report.correctness, base_report.correctness)
        ],
        "reached_baseline": runs["baseline"][1].reached,
        "reached_legible": runs["legible"][1].reached,
    }
    _print_json(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="legiplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="run one planning cycle")
    plan.add_argument("--scenario", required=True)
    plan.add_argument("--mode", choices=_MODES)
    plan.add_argument("--seed", type=int)
    plan.add_argument("--out", help="write the planned horizon as CSV")
    plan.add_argument("--svg", help="render the scene and plan to SVG")
    plan.set_defaults(func=_cmd_plan)

    simulate = sub.add_parser("simulate", help="run the closed loop to the goal")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--mode", choices=_MODES)
    simulate.add_argument("--seed", type=int)
    simulate.add_argument("--out", required=True, help="trajectory CSV output path")
    simulate.add_argument("--svg", help="render the executed path to SVG")
    simulate.set_defaults(func=_cmd_simulate)

    evaluate = sub.add_parser("evaluate", help="score a logged trajectory")
    evaluate.add_argument("--scenario", required=True)
    evaluate.add_argument("--trajectory", required=True)
    evaluate.add_argument("--beta", type=float, default=1.0)
    evaluate.add_argument("--fractions", default="0.25,0.5,0.75")
    evaluate.add_argument("--mask-fov", action="store_true")
    evaluate.set_defaults(func=_cmd_evaluate)

    compare = sub.add_parser("compare", help="run and score both planner modes")
    compare.add_argument("--scenario", required=True)
    compare.add_argument("--seed", type=int)
    compare.add_argument("--svg", help="render both executed paths to SVG")
    compare.set_defaults(func=_cmd_compare)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except ScenarioError as exc:
        _error_json({"error": "validation", "path": exc.path, "rule": exc.rule})
        return EXIT_VALIDATION
    except OSError as exc:
        if exc.filename is None:  # not a file the user named, e.g. a closed stdout
            raise
        rule = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        _error_json({"error": "validation", "path": str(exc.filename), "rule": rule})
        return EXIT_VALIDATION
    except ValueError as exc:
        _error_json({"error": "validation", "path": "", "rule": str(exc)})
        return EXIT_VALIDATION
    except PlannerFailure as exc:
        detail = {"error": "planner_failure", "detail": str(exc)}
        if exc.breakdown is not None:
            detail["breakdown"] = exc.breakdown.to_dict()
        _error_json(detail)
        return EXIT_PLANNER_FAILURE


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
