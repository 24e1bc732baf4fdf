"""Deterministic chunked fan-out for trajectory ensembles.

Trajectories are partitioned into chunks; each chunk is processed as one
vectorised unit by a single worker, so the numerical result of a chunk
does not depend on how many workers are running or how the rows are
cut.  Results are reassembled in chunk order.

A run opens one pool with ``worker_pool`` and every ensemble of the run
maps its chunks over it; outside such a block each ``chunked_map`` opens
a pool for its one call.  Either way the pool is shut down and its
workers joined when the block or call ends, also when it raises.
"""

import contextlib
import math
from concurrent.futures import ProcessPoolExecutor

_open_pool = None  # the executor of the enclosing worker_pool block, if any


def chunk_bounds(n_items: int, chunk_size: int, n_workers: int):
    """(lo, hi) bounds of n_items cut into chunks of at most chunk_size rows.

    Rows are cut into at least n_workers chunks where there are enough of
    them: the chunk size is min(chunk_size, ceil(n_items / n_workers)),
    never less than 1.  No chunk is empty.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    size = max(1, min(chunk_size, math.ceil(n_items / max(n_workers, 1))))
    return [(lo, min(lo + size, n_items)) for lo in range(0, n_items, size)]


@contextlib.contextmanager
def worker_pool(n_workers: int):
    """Hold one pool of n_workers processes open for the chunked_map calls
    inside the block; the workers are joined before the block is left.

    n_workers <= 1, or a pool already open, opens none.
    """
    global _open_pool
    if n_workers <= 1 or _open_pool is not None:
        yield
        return
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        _open_pool = pool
        try:
            yield
        finally:
            _open_pool = None


def chunked_map(worker, jobs, n_workers: int = 1):
    """Apply worker to each job tuple; returns results in job order.

    n_workers <= 1 or a single job runs inline.  Otherwise the jobs go to
    the open worker_pool, or to a pool of min(n_workers, len(jobs))
    processes opened and joined for this call.  worker must be a
    module-level function and jobs picklable when n_workers > 1.
    """
    if n_workers <= 1 or len(jobs) <= 1:
        return [worker(job) for job in jobs]
    with worker_pool(min(n_workers, len(jobs))):  # opens none inside a run's pool
        return list(_open_pool.map(worker, jobs))
