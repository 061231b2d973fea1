"""legiplan benchmark: planning-cycle latency, episode and scoring throughput.

Run from the repository root:

    python3 perfbench/run.py --workload legible_multigoal --seed 1 --seconds 30 --trace 0

One process, one caller, operations back to back (a closed loop with a
single client, no threads).  Workloads:

* ``legible_multigoal``: legible closed-loop episodes on the four two-goal
  scenes with obstacles; every cycle runs three CEM searches that draw the
  same noise keys, plus similarity, field-of-view and clearance terms.
* ``baseline_single_goal``: baseline closed-loop episodes on the three
  one-goal, obstacle-free FOV-sweep scenes; one CEM search per cycle and no
  legibility or clearance work, so it bypasses what the legible workload
  stresses.
* ``score_logs``: parse a scene, read a logged trajectory and score it with
  the synthetic observer; no planner work at all.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every layer boundary is wrapped and the line carries per-layer
self times and counts, per planning cycle on the closed-loop workloads and
per log on ``score_logs``.  A JSON results file with the run environment goes
to ``perfbench/results/``; a traced run also writes its spans there.
"""
from __future__ import annotations

import os

# Pin the numeric environment before numpy is imported: one BLAS/OpenMP
# thread, and the planner's own worker count at its default of 1.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LEGIPLAN_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

SETUP_PROBES = 8  # extra set-ups in fresh interpreters; setup_s is the median
MIN_SAMPLES = 200  # latency samples, so p95 has at least ten beyond it


def import_program():
    """Import legiplan from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import legiplan

    if Path(legiplan.__file__).resolve().parent != src / "legiplan":
        raise SystemExit(f"legiplan imported from {legiplan.__file__}, not from {src}")
    return legiplan


def prepare(workload: str, seed: int):
    """Set-up: the program's import, scene parsing and warm-up.

    Returns the prepared workload, the set-up's wall time and that time
    rescaled to nominal host speed.  numpy's import and the benchmark's own
    input generation happen before the clock starts: they are not the
    program's work.
    """
    import inputs

    generated = inputs.generate(workload, seed)
    started = time.perf_counter()
    import_program()
    import workloads

    bench = workloads.make(generated)
    bench.warm_up()
    wall = time.perf_counter() - started
    from meter import at_nominal_speed

    return bench, wall, at_nominal_speed(wall)


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter, so imports are paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    wall, nominal = done.stdout.split()[-2:]
    return float(wall), float(nominal)


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git clone."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "LEGIPLAN_THREADS": os.environ.get("LEGIPLAN_THREADS", "unset"),
        **{var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")},
    }


def layer_metrics(t, per_op: int) -> dict[str, tuple[float, str]]:
    """Per-layer self times and counts from a traced run, per operation."""

    def ms(name):
        return t.self_ns[name] / 1e6 / per_op, "ms"

    def per(value, unit="count"):
        return value / per_op, unit

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    cycles = t.calls["planner.plan_once"]
    draws = t.calls["planner.noise"]
    rows = t.counts["task_cost.rows"]
    return {
        "planner.run_closed_loop.self_ms": ms("planner.run_closed_loop"),
        "planner.plan_once.self_ms": ms("planner.plan_once"),
        "planner.cem.self_ms": ms("planner.cem"),
        "planner.cem.calls_per_cycle": (t.calls["planner.cem"] / cycles if cycles else 0.0, "count"),
        "planner.noise.ms": ms("planner.noise"),
        "planner.noise.calls": per(draws),
        "planner.noise.redundant_frac": ratio(t.counts["planner.noise.redundant"], draws),
        "planner.rng.constructs": per(t.calls["legiplan.planner._candidate_rng"]),
        "planner.clip.ms": ms("planner.clip"),
        "planner.rollout.ms": ms("planner.rollout"),
        "planner.objective.self_ms": ms("planner.objective"),
        "planner.candidates_scored": per(t.counts["planner.candidates"]),
        "planner.collided_frac": ratio(t.counts["task_cost.collided"], rows),
        "task_cost.batch.ms": ms("task_cost.batch"),
        "task_cost.batch.rows": per(rows),
        "task_cost.report.ms": ms("task_cost.report"),
        "model.clearance.ms": ms("model.clearance"),
        "legibility.similarity.ms": ms("legibility.similarity"),
        "legibility.similarity.calls": per(t.calls["legibility.similarity"]),
        "legibility.fov.ms": ms("legibility.fov"),
        "legibility.report.ms": ms("legibility.report"),
        "evaluation.evaluate.ms": ms("evaluation.evaluate"),
        "evaluation.posterior.calls": per(t.calls["legiplan.evaluation.goal_posterior"]),
        "scenario_io.parse.ms": ms("scenario_io.parse"),
        "scenario_io.csv_read.ms": ms("scenario_io.csv_read"),
        "scenario_io.bytes_read": per(t.counts["scenario_io.bytes_read"], "bytes"),
        "scenario_io.rows.ms": ms("scenario_io.rows"),
        "scenario_io.csv_format.ms": ms("scenario_io.csv_format"),
        "scenario_io.bytes_written": per(t.counts["scenario_io.bytes_written"], "bytes"),
        "svg_render.render.ms": ms("svg_render.render"),
        "svg_render.bytes": per(t.counts["svg_render.bytes"], "bytes"),
        "bench.self_ms": ms("bench.op"),
    }


def xref_stats(pairs: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
    """Wall times in ms and as multiples of their paired reference time."""
    return [wall * 1e3 for wall, _ in pairs], [wall / ref for wall, ref in pairs]


def p95(values: list[float]) -> float:
    """95th percentile, interpolated between the two nearest samples."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run(workload: str, seed: int, seconds: float, trace: bool):
    """Set up, then run whole rounds of operations for at least `seconds`.

    Returns the result record and, for a traced run, the tracer holding its
    spans.
    """
    bench, wall, nominal = prepare(workload, seed)
    setup_samples = [(wall, nominal)]
    if not trace:
        setup_samples += [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]

    from meter import Meter
    from tracing import LAYER_HOOKS, Tracer

    closed_loop = bench.workload.kind == "closed_loop"
    # A traced run times whole operations only: per-cycle reference runs
    # would land inside the traced spans.
    meter = Meter(cycles=closed_loop and not trace)
    tracer = Tracer(LAYER_HOOKS) if trace else None
    untraced = Tracer(())
    # Traced run only: (op wall seconds per planning cycle or log, reference s).
    per_cycle = {tracer: [], untraced: []}
    latency_pairs = meter.cycle_times if closed_loop else meter.op_times
    round_len = len(bench.workload.scenes)

    failures: dict[str, int] = {}
    digest = hashlib.sha256()
    scores, margins = [], []
    ops = 0
    deadline = time.perf_counter() + seconds
    # Whole rounds over the scenes only, so every run sees the same scene mix.
    while (ops < bench.fixed_ops or ops % round_len or time.perf_counter() < deadline
           or (not trace and len(latency_pairs) < MIN_SAMPLES)):
        # A traced run traces the fixed set, then alternates whole rounds
        # untraced and traced, so both halves see the same scenes and the
        # same drift in host speed.
        if trace:
            use = tracer if ops < bench.fixed_ops or (ops // round_len) % 2 == 0 else untraced
            ref = meter.reference()
            use.op = ops
            with use.installed():
                outcome = bench.run_op(lambda: use.span("bench.op"))
            begin, end = use.spans[-1][3:5]
            per_cycle[use].append(((end - begin) / 1e9 / outcome.cycles, ref))
        else:
            with meter.installed():
                outcome = bench.run_op(meter.op)
        if outcome.failure is not None:
            failures[outcome.failure] = failures.get(outcome.failure, 0) + 1
        if ops < bench.fixed_ops:
            digest.update(outcome.record)
            scores.append(outcome.score)
            margins.append(outcome.margin)
        ops += 1

    failed = sum(failures.values())
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "attempted": ops, "failed": failed, "failed_frac": failed / ops,
        "failures": failures,
        "output_sha256": digest.hexdigest(),
        "fixed_ops": bench.fixed_ops,
        "min_clearance_m": min(margins) if math.isfinite(min(margins)) else None,
        "setup_wall_s": [wall for wall, _ in setup_samples],
        "setup_nominal_s": [nominal for _, nominal in setup_samples],
        "reference_ms_median": statistics.median(
            ref for _, ref in meter.cycle_times + meter.op_times + sum(per_cycle.values(), [])
        ) * 1e3,
    }
    if trace:
        per_op = tracer.calls["planner.plan_once"] if closed_loop else tracer.calls["bench.op"]
        metrics = layer_metrics(tracer, per_op)
        _, traced_xref = xref_stats(per_cycle[tracer])
        _, untraced_xref = xref_stats(per_cycle[untraced])
        metrics["trace.op_ms_mean"] = (
            statistics.fmean(tracer.durations_ms("planner.plan_once" if closed_loop
                                                 else "bench.op")), "ms")
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_xref) / statistics.median(untraced_xref) - 1.0
            if untraced_xref else 0.0, "ratio",
        )
    else:
        latency_ms, latency_xref = xref_stats(latency_pairs)
        op_ms, op_xref = xref_stats(meter.op_times)
        metrics = {
            "latency_p50_xref": (statistics.median(latency_xref), "xref"),
            "latency_p95_xref": (p95(latency_xref), "xref"),
            "op_mean_xref": (statistics.fmean(op_xref), "xref"),
            "setup_s": (statistics.median(result["setup_nominal_s"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "L_mean": (statistics.fmean([s for s in scores if not math.isnan(s)] or [0.0]),
                       "score"),
        }
        # The same figures in wall-clock units; informational, since the
        # host's speed drift dominates them.
        op, lat = ("episodes", "cycle") if closed_loop else ("scores", "score")
        result["wall_clock"] = {
            f"{lat}_ms_p50": statistics.median(latency_ms),
            f"{lat}_ms_p95": p95(latency_ms),
            f"{op}_per_s": len(op_ms) / (sum(op_ms) / 1e3),
            "setup_wall_s": statistics.median(result["setup_wall_s"]),
        }
        result["latency_samples"] = len(latency_xref)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, tracer


def _results_path(workload: str, seed: int, trace: bool, suffix: str) -> Path:
    return RESULTS_DIR / f"{workload}-seed{seed}-trace{int(trace)}-{suffix}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("legible_multigoal", "baseline_single_goal", "score_logs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one set-up and print it (used by the benchmark itself)")
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, wall, nominal = prepare(args.workload, args.seed)
        print(f"{wall:.9f} {nominal:.9f}")
        return 0

    result, traced = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS_DIR.mkdir(exist_ok=True)
    if traced is not None:
        traced.write_spans(_results_path(args.workload, args.seed, True, "spans.jsonl"))
    _results_path(args.workload, args.seed, bool(args.trace), "result.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n"
    )
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in result.get("wall_clock", {}).items():
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "ms"
        print(f"{name} {value:.6g} {unit} (wall clock)")
    for key in ("failed_frac", "min_clearance_m", "reference_ms_median", "output_sha256"):
        print(f"{key} {result[key]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
