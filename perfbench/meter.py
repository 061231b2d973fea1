"""Wall-clock timing paired with a fixed reference computation.

The shared host this benchmark was built on changes speed by about a quarter
over tens of seconds (the same planning cycles run at ~31 ms for a while,
then at ~48 ms), and CPU time follows wall time, so neither longer runs nor
CPU-time clocks make a median repeat.  What does repeat is the ratio of an
operation's wall time to that of a fixed reference computation timed just
before it: across 20-second windows of legible planning cycles, the median
ratio varied by under 2% (quartile distance over median) where the raw
median varied by 24%.  The gated timings are therefore given in "xref",
multiples of the reference's wall time, next to the raw milliseconds.
"""
from __future__ import annotations

import contextlib
import statistics
import time
from typing import Iterator

import numpy as np

from tracing import patched


def reference_work() -> float:
    """A fixed computation whose wall time tracks the host's current speed.

    Half of it is Philox generator construction with normal draws, half is
    small-array numpy arithmetic: the two kinds of work the program spends
    its time on.  Of the candidate kernels tried, these two tracked the
    host's drift best on every workload; a pure-Python loop tracked it
    worst, so there is none.  About 1 ms on the host the benchmark was
    built on.
    """
    total = 0.0
    for i in range(20):
        key = np.array([7, i], dtype=np.uint64)
        total += float(np.random.Generator(np.random.Philox(key=key)).standard_normal((12, 2))[0, 0])
    x = np.linspace(0.0, 1.0, 24).reshape(12, 2)
    for _ in range(25):
        y = np.cumsum(x * 1.0001, axis=0)
        total += float(np.sum(np.minimum(np.linalg.norm(y - x[0], axis=1), 3.0)))
    return total


NOMINAL_REFERENCE_S = 1e-3  # the host speed set-up times are rescaled to


def at_nominal_speed(wall: float) -> float:
    """Rescale a wall time to a host on which the reference takes
    NOMINAL_REFERENCE_S, by the median of three reference runs made right
    after it.  A set-up runs once per process, so it cannot be paired per
    operation; rescaled this way, medians of nine set-ups from runs minutes
    apart varied by 8% (largest over smallest) where raw ones varied by 21%.
    """
    refs = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        refs.append(time.perf_counter() - start)
    return wall * NOMINAL_REFERENCE_S / statistics.median(refs)


class Meter:
    """Untraced timing: each operation, and each planning cycle when
    ``cycles`` is set, is timed right after one run of the reference.

    ``cycle_times`` and ``op_times`` hold (wall seconds, reference seconds)
    pairs.  An operation's time excludes the reference runs made inside it,
    and its reference is the median of those runs and the one before it.
    """

    def __init__(self, cycles: bool):
        self.cycles = cycles
        self.cycle_times: list[tuple[float, float]] = []
        self.op_times: list[tuple[float, float]] = []
        self._refs: list[float] = []

    def reference(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self._refs.append(elapsed)
        return elapsed

    def _timed_cycle(self, fn):
        def cycle(*args, **kwargs):
            ref = self.reference()
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.cycle_times.append((time.perf_counter() - start, ref))
            return result

        return cycle

    @contextlib.contextmanager
    def installed(self) -> Iterator["Meter"]:
        """Time every ``legiplan.planner.plan_once`` call while active."""
        if not self.cycles:
            yield self
            return
        with patched([("legiplan.planner", "plan_once", self._timed_cycle)]):
            yield self

    @contextlib.contextmanager
    def op(self) -> Iterator[None]:
        self._refs = []
        self.reference()
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start - sum(self._refs[1:])
        self.op_times.append((elapsed, statistics.median(self._refs)))
