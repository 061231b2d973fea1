"""Outside-in layer tracing for the legiplan benchmark.

Each hook replaces one module-level function at the name its caller looks it
up (for example ``legiplan.planner.task_cost_batch``, not the defining
module), so the program's own source is never edited.  A hooked call records
a span (name, start, end, parent, operation id) and, where the layer can
waste or move work, a count.  Spans stay in memory; ``write_spans`` puts them
on disk once the run is over.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans under one root add up to the root's
duration exactly (integer nanoseconds).
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterator

CountFn = Callable[["Tracer", tuple, dict, Any], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped function: ``sys.modules[module].<attr>``.

    ``span`` names the timed span; ``None`` counts calls without timing them
    (for functions called so often that a span would distort the trace).
    """

    module: str
    attr: str
    span: str | None
    count: CountFn | None = None


def _noise_key(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    # A draw is redundant when the same (seed, iteration, population,
    # horizon) key was already drawn in the current planning cycle.
    key = (t.calls["planner.plan_once"], args, tuple(sorted(kwargs.items())))
    if key in t.noise_keys:
        t.counts["planner.noise.redundant"] += 1
    t.noise_keys.add(key)


def _candidates(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counts["planner.candidates"] += result.shape[0]


def _cost_rows(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counts["task_cost.rows"] += int(result["collided"].shape[0])
    t.counts["task_cost.collided"] += int(result["collided"].sum())


def _bytes_read(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counts["scenario_io.bytes_read"] += len(args[0])


def _bytes_written(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counts["scenario_io.bytes_written"] += len(result)


def _svg_bytes(t: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    t.counts["svg_render.bytes"] += len(result)


# Every layer boundary, outermost first.  ``legiplan.task_cost`` is reached
# through sys.modules because the package attribute of that name is the
# re-exported function, not the module.
LAYER_HOOKS = (
    Hook("legiplan", "run_closed_loop", "planner.run_closed_loop"),
    Hook("legiplan.planner", "plan_once", "planner.plan_once"),
    Hook("legiplan.planner", "_cem_optimize", "planner.cem"),
    Hook("legiplan.planner", "_draw_noise", "planner.noise", _noise_key),
    Hook("legiplan.planner", "_candidate_rng", None),
    Hook("legiplan.planner", "_clip_controls", "planner.clip"),
    Hook("legiplan.planner", "_rollout_batch", "planner.rollout", _candidates),
    Hook("legiplan.planner", "_score_chunked", "planner.objective"),
    Hook("legiplan.planner", "task_cost_batch", "task_cost.batch", _cost_rows),
    Hook("legiplan.task_cost", "clearance_points", "model.clearance"),
    Hook("legiplan.planner", "task_cost", "task_cost.report"),
    Hook("legiplan.planner", "weighted_similarity_batch", "legibility.similarity"),
    Hook("legiplan.planner", "fov_cost_batch", "legibility.fov"),
    Hook("legiplan.planner", "legibility_aware_cost", "legibility.report"),
    Hook("legiplan", "evaluate_trajectory", "evaluation.evaluate"),
    Hook("legiplan.evaluation", "goal_posterior", None),
    Hook("legiplan", "parse_scenario", "scenario_io.parse"),
    Hook("legiplan.scenario_io", "read_trajectory_csv", "scenario_io.csv_read", _bytes_read),
    Hook("legiplan.scenario_io", "simulation_rows", "scenario_io.rows"),
    Hook(
        "legiplan.scenario_io", "format_trajectory_csv", "scenario_io.csv_format",
        _bytes_written,
    ),
    Hook("legiplan", "render_svg", "svg_render.render", _svg_bytes),
)


@contextlib.contextmanager
def patched(replacements: list[tuple[str, str, Callable]]) -> Iterator[None]:
    """Replace ``sys.modules[module].<attr>`` by ``factory(original)`` for
    each (module, attr, factory) while active; always put the originals back.
    """
    saved = []
    try:
        for module_name, attr, factory in replacements:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class Tracer:
    """Span recorder plus the hooks it installs.

    ``calls`` counts every hooked call by span name (or by ``module.attr``
    for count-only hooks); ``self_ns`` sums self time by span name;
    ``counts`` holds the per-layer work counters.
    """

    def __init__(self, hooks: tuple[Hook, ...]):
        self.hooks = hooks
        self.spans: list[tuple[int, int, str, int, int, Any]] = []
        self.self_ns: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.noise_keys: set = set()
        self.op: Any = None
        self._stack: list[list] = []  # [span id, name, start ns, child ns]

    def _open(self, name: str) -> None:
        self.calls[name] += 1
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter_ns(), 0])

    def _close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, name, start, end, self.op))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around the benchmark's own code (one operation)."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def durations_ms(self, name: str) -> list[float]:
        return [(end - start) / 1e6 for _, _, n, start, end, _ in self.spans if n == name]

    def _wrap(self, hook: Hook, fn: Callable) -> Callable:
        label = hook.span or f"{hook.module}.{hook.attr}"
        count = hook.count

        if hook.span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.calls[label] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return spanned

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every hooked function while active."""
        with patched([
            (hook.module, hook.attr, functools.partial(self._wrap, hook)) for hook in self.hooks
        ]):
            yield self

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, op in self.spans:
                fh.write(json.dumps(
                    {"id": span_id, "parent": parent, "name": name,
                     "start_ns": start, "end_ns": end, "op": op}
                ) + "\n")
