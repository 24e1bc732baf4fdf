import numpy as np
import pytest

from aokr.streams import (
    ENGINE_CLASSICAL,
    ENGINE_QUANTUM,
    split_emission_pairs,
    trajectory_stream,
    trajectory_streams,
)


def draw_mix(rng, i):
    """Draws of every kind the engines and tests use.  Their number depends
    on i, so each trajectory leaves Philox's buffer and its cached 32-bit
    half word in a different state for the next re-keying."""
    return [
        rng.standard_normal(),
        *rng.random(i % 5),
        rng.uniform(-1.5, 1.5),
        *rng.integers(0, 2**31, size=i % 3, dtype=np.uint32),
        rng.integers(0, 10),
    ]


@pytest.mark.parametrize("engine_id", [ENGINE_CLASSICAL, ENGINE_QUANTUM])
def test_rekeyed_streams_match_fresh_generators(engine_id):
    seed = 2**64 - 3
    key = np.array([seed, 0], dtype=np.uint64)
    streams = trajectory_streams(seed, engine_id, range(200))
    for i, rng in enumerate(streams):
        counter = np.array([0, engine_id, i, 0], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key, counter=counter))
        assert draw_mix(rng, i) == draw_mix(fresh, i), f"trajectory {i}"


def test_trajectory_stream_is_independent():
    a = trajectory_stream(3, 1, ENGINE_QUANTUM, 0)
    b = trajectory_stream(3, 1, ENGINE_QUANTUM, 1)
    first = a.random(3)
    b.random(5)
    again = trajectory_stream(3, 1, ENGINE_QUANTUM, 0).random(6)
    assert np.array_equal(np.concatenate([first, a.random(3)]), again)


def test_block_of_pairs_splits_as_each_row_draws_them():
    # the engines fill one row per stream and split the block once
    kbar, rows, n_pairs = 3.12, 5, 7
    block = np.empty((rows, 2 * n_pairs))
    for i, rng in enumerate(trajectory_streams(9, ENGINE_QUANTUM, range(rows))):
        rng.random(out=block[i])
    uniforms, recoils = split_emission_pairs(block, kbar)
    for i, rng in enumerate(trajectory_streams(9, ENGINE_QUANTUM, range(rows))):
        lazy = [(rng.random(), rng.uniform(-kbar / 2, kbar / 2)) for _ in range(n_pairs)]
        assert lazy == list(zip(uniforms[i], recoils[i]))
