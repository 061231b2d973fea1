"""The CEM noise comes from one re-keyed generator per thread: a draw
depends on its key alone, whatever that generator drew before."""
from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from legiplan.planner import _candidate_rng, _draw_noise
from tests.test_planner import reference_noise

EDGE_SEEDS = (0, 7, 2**63 + 5, 2**64 - 1, 2**64 + 3)


def _keys(count: int, rng_seed: int) -> list[tuple[int, int, int, int]]:
    """(seed, iteration, population, horizon) keys: the edge seeds and
    ``count`` random ones, each twice, in shuffled order."""
    rng = random.Random(rng_seed)

    def key(seed):
        return seed, rng.choice((0, 1, 4, 2**32 - 1)), rng.randint(1, 40), rng.randint(1, 14)

    keys = [key(seed) for seed in EDGE_SEEDS]
    keys += [key(rng.randrange(2**64)) for _ in range(count)]
    keys *= 2
    rng.shuffle(keys)
    return keys


def test_interleaved_draws_equal_fresh_generators():
    for key in _keys(60, 1):
        assert np.array_equal(_draw_noise(*key), reference_noise(*key)), key


def test_the_generator_is_re_keyed_not_rebuilt():
    assert _candidate_rng(1, 0) is _candidate_rng(2**64 - 1, 3)


@pytest.mark.parametrize("advance", [
    lambda gen: gen.random(),
    lambda gen: gen.integers(2**32, dtype=np.uint32),  # leaves a spare 32-bit word
    lambda gen: gen.standard_normal(3),  # leaves a partly used buffer
])
@pytest.mark.parametrize("seed", [5, 2**63 + 5, 2**64 - 1])
def test_a_draw_after_the_generator_was_advanced_equals_its_key(advance, seed):
    advance(_candidate_rng(seed, 2))
    assert np.array_equal(_draw_noise(seed, 2, 24, 12), reference_noise(seed, 2, 24, 12))
    advance(_candidate_rng(seed, 2))
    fresh = np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, 2 << 32], dtype=np.uint64))
    )
    assert np.array_equal(
        _candidate_rng(seed, 2).integers(2**32, size=7, dtype=np.uint32),
        fresh.integers(2**32, size=7, dtype=np.uint32),
    )


def test_threads_drawing_at_once_each_get_their_keys():
    # More threads than cores and a short switch interval, so a generator
    # shared between threads would be re-keyed under another's draw.
    keys = {name: _keys(100, name) for name in range(4)}
    expected = {name: [reference_noise(*key) for key in ks] for name, ks in keys.items()}
    start = threading.Barrier(len(keys), timeout=60)
    mismatches = {name: [] for name in keys}
    generators = {}

    def draw(name):
        generators[name] = _candidate_rng(0, 0)
        start.wait()
        for key, want in zip(keys[name], expected[name]):
            if not np.array_equal(_draw_noise(*key), want):
                mismatches[name].append(key)

    threads = [threading.Thread(target=draw, args=(name,)) for name in keys]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == {name: [] for name in keys}
    assert len({id(gen) for gen in generators.values()}) == len(keys)
    assert _candidate_rng(0, 0) not in generators.values()
