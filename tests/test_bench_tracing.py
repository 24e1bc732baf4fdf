"""The benchmark's traced CLI still sees every engine call.

bench/tracer.py wraps the engine entry points the run layer calls
(``runner.run_classical_ensemble``, ``runner.run_mcwf_trajectories``), the
engines' ``chunked_map`` and the analysis functions by name.  A refactor
that stopped reaching them would zero the benchmark's per-layer metrics
without failing a benchmark test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_phase_sweep_has_one_ensemble_span_per_engine_and_point(tmp_path):
    trace = tmp_path / "trace.json"
    cli_args = [
        "phase-sweep", "--psi0-start", "0", "--psi0-stop", "45", "--psi0-step", "45",
        "--n-traj-classical", "64", "--n-traj-quantum", "8", "--n-max", "64", "--n-tot", "2",
        "--workers", "2", "--seed", "3", "--out", str(tmp_path / "out"),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(trace), "t", "--", *cli_args],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    spans = json.loads(trace.read_text())["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    ensembles = {
        "classical_sim.run_classical_ensemble": 64,
        "quantum_sim.run_mcwf_trajectories": 8,
    }
    for name, n_traj in ensembles.items():
        assert [s["attrs"]["n_traj"] for s in by_name.get(name, [])] == [n_traj, n_traj], name
    ensemble_ids = {s["id"] for name in ensembles for s in by_name[name]}
    maps = by_name.get("parallel.chunked_map", [])
    assert maps and all(s["parent"] in ensemble_ids for s in maps)
    assert {s["parent"] for s in maps} == ensemble_ids
    # every row, of either engine, reduces its ensemble through these two
    for name in ("analysis.energy", "analysis.energy_stderr"):
        assert len(by_name.get(name, [])) == 2 * len(ensembles), name
