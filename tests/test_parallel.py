import filecmp
import multiprocessing
import os

import pytest

from aokr import parallel
from aokr.parallel import chunk_bounds, chunked_map
from aokr.quantum_sim import GridOverflowError
from aokr.runner import RunConfig, emit_outputs, run


def _rows(n, size):
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@pytest.mark.parametrize(
    "n_items, chunk_size, n_workers, expected",
    [
        (64, 128, 2, [(0, 32), (32, 64)]),  # phase_sweep's quantum ensemble
        (2048, 1024, 2, _rows(2048, 1024)),
        (4096, 1024, 2, _rows(4096, 1024)),  # classical_single
        (256, 128, 2, _rows(256, 128)),  # quantum_single
        (1000, 128, 1, _rows(1000, 128)),  # a default point, one worker
        (5, 128, 8, [(i, i + 1) for i in range(5)]),
        (7, 3, 2, [(0, 3), (3, 6), (6, 7)]),
        (0, 128, 2, []),
    ],
)
def test_chunk_rule(n_items, chunk_size, n_workers, expected):
    bounds = chunk_bounds(n_items, chunk_size, n_workers)
    assert bounds == expected
    assert all(hi > lo for lo, hi in bounds)


def test_chunk_size_below_one_raises():
    with pytest.raises(ValueError, match="chunk_size"):
        chunk_bounds(10, 0, 2)


def test_chunked_map_keeps_job_order_inside_and_outside_a_pool():
    jobs = [(i,) * i for i in range(5)]
    assert chunked_map(len, jobs, 2) == [0, 1, 2, 3, 4]
    with parallel.worker_pool(2):
        assert chunked_map(len, jobs, 2) == [0, 1, 2, 3, 4]
        assert chunked_map(len, jobs, 1) == [0, 1, 2, 3, 4]


@pytest.fixture
def executors(monkeypatch):
    """Record the max_workers of every executor aokr.parallel builds."""
    built = []

    class Counting(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", Counting)
    return built


def _small_config(**kw):
    defaults = dict(
        mode="phase_sweep", engine="both", psi0_start_deg=0.0, psi0_stop_deg=90.0,
        psi0_step_deg=45.0, n_tot=2, n_traj_classical=64, n_traj_quantum=8, n_max=64,
        cloud_sigma_mm=0.0, seed=5, n_workers=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_one_pool_per_run_and_no_worker_left(executors):
    rows = run(_small_config())
    assert len(rows) == 6  # six ensembles, 3 points x 2 engines, on one pool
    assert executors == [2]
    assert multiprocessing.active_children() == []


def test_pool_is_no_larger_than_the_largest_ensemble(executors):
    run(_small_config(mode="single", engine="quantum", n_traj_quantum=3, n_workers=4))
    assert executors == [3]


def test_no_worker_left_after_a_run_raises():
    cfg = RunConfig(
        mode="single", engine="quantum", n_max=64, kbar=0.3, kappa1=6.0, kappa2=6.0,
        n_tot=10, temperature_uk=1.0, cloud_sigma_mm=0.0, n_traj_quantum=2, n_workers=2,
    )
    with pytest.raises(GridOverflowError):
        run(cfg)
    assert multiprocessing.active_children() == []


def test_multi_point_sweep_bytes_do_not_depend_on_workers(tmp_path):
    def csv_files(workers):
        out = tmp_path / f"w{workers}"
        cfg = RunConfig(
            mode="phase_sweep", engine="both", psi0_start_deg=0.0, psi0_stop_deg=90.0,
            psi0_step_deg=90.0, n_tot=10, n_traj_classical=300, n_traj_quantum=24,
            n_max=128, eta=0.028, cloud_sigma_mm=0.5, seed=41, n_workers=workers,
            output_dir=str(out),
        )
        return sorted(p for p in emit_outputs(cfg, run(cfg)) if p.endswith(".csv"))

    reference = csv_files(1)
    assert len(reference) == 5  # sweep.csv and one distribution per (point, engine)
    for workers in (2, 3):
        files = csv_files(workers)
        assert [os.path.basename(p) for p in files] == [os.path.basename(p) for p in reference]
        for a, b in zip(reference, files):
            assert filecmp.cmp(a, b, shallow=False), (a, b)
