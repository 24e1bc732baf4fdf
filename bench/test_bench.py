"""Tests of the benchmark itself, at smoke sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=BENCH_DIR.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(tmp_path, trace, group):
    proc = _bench("--workload", "all", "--smoke", "--seed", "3", "--trace", str(trace),
                  "--work-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(SPEC["workloads"]) * (1 + trace)
    wanted = {
        f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC[group]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for w in SPEC["workloads"]:
        record = json.loads(
            (tmp_path / "results" / f"{w['name']}_seed3_smoke_trace{trace}.json").read_text()
        )
        prov = record["provenance"]
        for key in ("nproc", "cpu_model", "caches", "python", "numpy", "scipy", "git_sha",
                    "pinned_threads", "workers", "workloads"):
            assert key in prov
    if trace:
        spans = json.loads((tmp_path / "traces" / "phase_sweep_seed3_smoke.json").read_text())
        names = {s["name"] for s in spans["spans"]}
        assert {"aokr.cli.main", "pulse_train.resolve_timeline", "parallel.chunked_map",
                "elliptic.pendulum_step", "quantum_sim.run_mcwf_trajectories"} <= names
        for s in spans["spans"]:
            assert s["run_id"] in spans["run_ids"] and s["start"] <= s["end"]


def test_tampered_sweep_counts_as_failed_run(tmp_path, monkeypatch):
    bench = run.Bench(harness.WORKLOADS["classical_single"], seed=3, smoke=True,
                      work_dir=tmp_path, references=harness.load_references())
    real = harness.run_process
    calls = []

    def tampering(argv, log_path, timeout_s):
        res = real(argv, log_path, timeout_s)
        calls.append(argv)
        if len(calls) == 2:
            sweep = bench.out_dir / "sweep.csv"
            head, row = sweep.read_text().rsplit("\n", 2)[:2]
            fields = row.split(",")
            fields[2] = "1000.0"  # energy
            sweep.write_text(head + "\n" + ",".join(fields) + "\n")
        return res

    monkeypatch.setattr(harness, "run_process", tampering)
    bench.cli()
    bench.cli()
    assert (bench.attempted, bench.failed) == (2, 1)
    problems = " ".join(bench.failures[0]["problems"])
    assert "differs from the first run" in problems and "energy" in problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "phase_sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
