"""Tests of the benchmark itself: tracing must not perturb results, must
leave the program as it found it, and inputs must follow from the seed.

Run from the repository root: python3 -m pytest -q perfbench
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_program()

import inputs  # noqa: E402
import tracing  # noqa: E402


def _hooked_functions():
    return {
        (hook.module, hook.attr): getattr(sys.modules[hook.module], hook.attr)
        for hook in tracing.LAYER_HOOKS
    }


# Per-layer self times inside one timed operation: a planning cycle on the
# closed-loop workloads, one log on score_logs.
CYCLE_LAYERS = ("planner.", "task_cost.", "model.", "legibility.")
LOG_LAYERS = ("scenario_io.", "evaluation.", "bench.")


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_tracing_keeps_outputs_and_restores_wrappers(workload):
    before = _hooked_functions()
    plain, _ = run.run(workload, 5, 0.0, False)
    traced, tracer = run.run(workload, 5, 0.0, True)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["output_sha256"] == traced["output_sha256"]
    assert tracer.spans, "the traced run recorded no spans"
    after = _hooked_functions()
    assert all(after[key] is fn for key, fn in before.items())

    metrics = {name: m["value"] for name, m in traced["metrics"].items()}
    closed_loop = inputs.WORKLOADS[workload].kind == "closed_loop"
    inside = CYCLE_LAYERS if closed_loop else LOG_LAYERS
    layer_ms = [
        value for name, value in metrics.items()
        if name.startswith(inside) and name.endswith("ms")
        and name != "planner.run_closed_loop.self_ms"
    ]
    assert sum(layer_ms) == pytest.approx(metrics["trace.op_ms_mean"], rel=1e-9)


def test_uninstall_restores_after_an_exception():
    before = _hooked_functions()
    with pytest.raises(RuntimeError):
        with tracing.Tracer(tracing.LAYER_HOOKS).installed():
            assert _hooked_functions() != before
            raise RuntimeError("boom")
    after = _hooked_functions()
    assert all(after[key] is fn for key, fn in before.items())


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer(())
    with tracer.span("root"):
        with tracer.span("child"):
            time.sleep(0.002)
        with tracer.span("child"):
            pass
    root = tracer.durations_ms("root")[0]
    assert sum(tracer.self_ns.values()) / 1e6 == pytest.approx(root, abs=1e-6)
    parents = {span[0]: span[1] for span in tracer.spans}
    root_id = next(span[0] for span in tracer.spans if span[2] == "root")
    assert [parents[s[0]] for s in tracer.spans if s[2] == "child"] == [root_id, root_id]


def _first_episodes(workload, seed, n=40):
    stream = inputs.episode_inputs(workload, seed)
    return [next(stream) for _ in range(n)]


@pytest.mark.parametrize("workload", ["legible_multigoal", "baseline_single_goal"])
def test_episode_inputs_are_a_function_of_the_seed(workload):
    assert _first_episodes(workload, 3) == _first_episodes(workload, 3)
    assert _first_episodes(workload, 3) != _first_episodes(workload, 4)


def test_logs_are_a_function_of_the_seed():
    scenes = {name: inputs.load_scene(name) for name in inputs.WORKLOADS["score_logs"].scenes}
    first, again, other = (inputs.make_logs(seed, scenes, 21) for seed in (3, 3, 4))
    assert [log.csv for log in first] == [log.csv for log in again]
    assert [log.csv for log in first] != [log.csv for log in other]
    low, high = inputs.LOG_WAYPOINTS
    assert all(low <= log.waypoints.shape[0] <= high for log in first)
