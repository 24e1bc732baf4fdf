"""Counter-based random streams for reproducible parallel ensembles.

Every trajectory owns a private Philox stream keyed by (seed, 0) with the
(engine, trajectory) pair in the counter block, so results are independent
of worker count and chunking, and trajectory i draws the same numbers at
every sweep point.
"""

import numpy as np

ENGINE_CLASSICAL = 0
ENGINE_QUANTUM = 1

_MASK64 = (1 << 64) - 1


def trajectory_stream(seed: int, subkey: int, engine_id: int, traj_index: int):
    """Independent Generator for one trajectory; runs use subkey 0."""
    key = np.array([seed & _MASK64, subkey & _MASK64], dtype=np.uint64)
    counter = np.array([0, engine_id & _MASK64, traj_index & _MASK64, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def trajectory_streams(seed: int, engine_id: int, traj_indices):
    """Yield the run's stream of each trajectory in traj_indices, in order.

    One Philox is re-keyed per trajectory (its fresh state with the
    trajectory's counter), several times cheaper than a new Generator.
    The same Generator is yielded each time: it is valid until the next.
    """
    rng = trajectory_stream(seed, 0, engine_id, 0)
    state = rng.bit_generator.state
    for i in traj_indices:
        state["state"]["counter"][2] = i & _MASK64
        rng.bit_generator.state = state
        yield rng


def split_emission_pairs(u, kbar: float):
    """(uniforms, recoils) pairs from 2 n_pairs raw uniforms u, one row of
    draws per row of u (last axis): pair k is what rng.random() and then
    rng.uniform(-kbar/2, kbar/2) would draw, so an engine fills a block row
    by row with rng.random(out=row) and splits it once.

    The classical engine reads a pair's uniform as an emission trigger,
    the quantum engine as a norm threshold.  Drawn up front, so a stream's
    position does not depend on whether it emits.
    """
    return u[..., 0::2], -0.5 * kbar + kbar * u[..., 1::2]
