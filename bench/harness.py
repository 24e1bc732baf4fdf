"""Workload definitions, process measurement, output checks and provenance.

Every CLI run happens in a fresh interpreter started with the checkout's
``src`` on ``PYTHONPATH`` and BLAS/OpenMP threads pinned to one.  The run
is reaped with ``os.wait4`` so its user+sys time and peak resident set
include the pool workers it joined.
"""

import csv
import functools
import importlib.metadata
import json
import math
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

WORKERS = 2
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

@dataclass(frozen=True)
class Workload:
    """One aokr CLI invocation: the command and its flags, without seed, workers or output.

    In smoke mode the ``smoke`` flags are appended; given last, they override
    the ensemble sizes.
    """

    name: str
    args: tuple
    smoke: tuple

    def cli_args(self, seed, out_dir=None, smoke=False):
        args = list(self.args) + (list(self.smoke) if smoke else [])
        args += ["--seed", str(seed), "--workers", str(WORKERS)]
        return args + (["--out", str(out_dir)] if out_dir is not None else [])


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "classical_single",
            ("single", "--engine", "classical", "--n-traj-classical", "4096", "--n-tot", "15"),
            ("--n-traj-classical", "512"),
        ),
        Workload(
            "quantum_single",
            ("single", "--engine", "quantum", "--n-traj-quantum", "256", "--n-tot", "5"),
            ("--n-traj-quantum", "16"),
        ),
        Workload(
            "phase_sweep",
            ("phase-sweep", "--psi0-start", "0", "--psi0-stop", "315", "--psi0-step", "45",
             "--n-traj-classical", "2048", "--n-traj-quantum", "64", "--n-max", "256",
             "--n-tot", "3"),
            ("--n-traj-classical", "256", "--n-traj-quantum", "8"),
        ),
    ]
}


def bench_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def require_source():
    """Fail early when the checkout has no aokr sources next to the benchmark."""
    if not (SRC / "aokr" / "cli.py").is_file():
        raise SystemExit(f"error: no aokr sources under {SRC}; run from a full checkout")


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, log_path, timeout_s):
    """Run argv to completion; wall, user+sys and peak RSS include reaped children."""
    log_path = Path(log_path)
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        # A session of its own, so a timeout or interrupt also ends the pool workers.
        proc = subprocess.Popen(
            argv, stdout=log, stderr=subprocess.STDOUT, env=bench_env(), cwd=ROOT,
            start_new_session=True,
        )
        kill = functools.partial(_kill_group, proc.pid)
        watchdog = threading.Timer(max(timeout_s, 1.0), kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            os.waitpid(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        log=log_path,
    )


def setup_argv(workload, seed, smoke=False):
    """A fresh interpreter that imports the CLI and builds the config, no engine."""
    return [sys.executable, str(BENCH_DIR / "cli_config.py")] + workload.cli_args(seed, smoke=smoke)


def cli_argv(workload, seed, out_dir, smoke=False):
    return [sys.executable, "-m", "aokr.cli"] + workload.cli_args(seed, out_dir, smoke)


# --- what a run should produce -------------------------------------------------


@dataclass
class Expected:
    """Rows a run must write, with the trajectory-step work behind them."""

    rows: list  # (sweep_value, engine, n_traj) in sweep.csv order
    traj_steps: int
    n_max: int
    chunk_rows: int  # quantum rows per chunk (0 without the quantum engine)
    sizes: dict


def expected_run(workload, seed, smoke=False):
    """Resolve the workload's config through aokr's public API (no engine runs)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from aokr.pulse_train import build_train_spec, resolve_timeline
    from aokr.quantum_sim import DEFAULT_CHUNK_SIZE
    from aokr.runner import phase_sweep_values
    from cli_config import parse_config

    config = parse_config(workload.cli_args(seed, smoke=smoke))
    values = [config.psi0_deg] if config.mode == "single" else phase_sweep_values(config)
    n_traj = {"classical": config.n_traj_classical, "quantum": config.n_traj_quantum}
    rows, traj_steps = [], 0
    for psi0 in values:
        spec = build_train_spec(
            config.ratio,
            (psi0 / 360.0) % 1.0,
            config.n_tot,
            config.kappa1,
            config.kappa2,
            config.pulse_shape(),
            config.kbar_effective,
        )
        steps = sum(p.n_steps for p in resolve_timeline(spec, config.min_steps_per_pulse).pulses)
        for engine in config.engines():
            rows.append((psi0, engine, n_traj[engine]))
            traj_steps += n_traj[engine] * steps
    quantum = "quantum" in config.engines()
    return Expected(
        rows=rows,
        traj_steps=traj_steps,
        n_max=config.n_max,
        chunk_rows=min(config.n_traj_quantum, DEFAULT_CHUNK_SIZE) if quantum else 0,
        sizes={
            "engines": list(config.engines()),
            "points": len(values),
            "n_tot": config.n_tot,
            "n_traj_classical": config.n_traj_classical,
            "n_traj_quantum": config.n_traj_quantum,
            "n_max": config.n_max,
            "min_steps_per_pulse": config.min_steps_per_pulse,
            "traj_steps": traj_steps,
        },
    )


# --- correctness ---------------------------------------------------------------


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def read_sweep_rows(path):
    """sweep.csv rows as dicts keyed by the header (comment lines skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_outputs(out_dir, expected, first_sweep, reference, tol_sigma):
    """Problems with one run's outputs; an empty list means the run is correct.

    The manifest must include sweep.csv, config.json, plot.gp and one
    dist_*.csv per row; sweep.csv must be byte-identical to the set's first
    run (when given); each row's energy and zero-velocity fraction must lie
    within tol_sigma combined standard errors of the reference row.
    """
    out_dir = Path(out_dir)
    problems = []
    names = {"sweep.csv", "config.json", "plot.gp"}
    names |= {f"dist_{engine}_{i:04d}.csv" for i, (_, engine, _) in enumerate(expected.rows)}
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if names - present:
        problems.append(f"manifest: missing {sorted(names - present)}")
    sweep = out_dir / "sweep.csv"
    if not sweep.is_file():
        return problems + ["sweep.csv: not written"]
    if first_sweep is not None and sweep.read_bytes() != first_sweep:
        problems.append("sweep.csv: differs from the first run of this set")
    try:
        rows = read_sweep_rows(sweep)
    except (OSError, csv.Error) as exc:
        return problems + [f"sweep.csv: unreadable ({exc})"]
    if len(rows) != len(expected.rows) or len(reference) != len(expected.rows):
        return problems + [
            f"sweep.csv: {len(rows)} rows, expected {len(expected.rows)} "
            f"({len(reference)} reference rows)"
        ]
    for row, (value, engine, n_traj), ref in zip(rows, expected.rows, reference):
        try:
            got_value = float(row["sweep_value"])
            e, se = float(row["energy"]), float(row["energy_stderr"])
            zvf = float(row["zero_velocity_fraction"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"sweep.csv: malformed row {row} ({exc})")
            continue
        tag = f"{engine}@{value:g}"
        if row.get("engine") != engine or got_value != value:
            problems.append(f"{tag}: row is {row.get('engine')}@{got_value:g}")
            continue
        if ref["engine"] != engine or ref["sweep_value"] != value:
            problems.append(f"{tag}: reference row is {ref['engine']}@{ref['sweep_value']:g}")
            continue
        e_tol = tol_sigma * math.hypot(se, ref["energy_stderr"])
        if not abs(e - ref["energy"]) <= e_tol:
            problems.append(f"{tag}: energy {e:.6g} vs reference {ref['energy']:.6g} +- {e_tol:.3g}")
        f_ref = ref["zero_velocity_fraction"]
        var = f_ref * (1.0 - f_ref)
        z_tol = tol_sigma * math.sqrt(var / n_traj + var / ref["n_traj"])
        if not abs(zvf - f_ref) <= z_tol:
            problems.append(f"{tag}: zero-velocity fraction {zvf:.6g} vs reference {f_ref:.6g} +- {z_tol:.3g}")
    return problems


# --- provenance ----------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip().lower()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return caches


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(smoke):
    """Machine, library and workload facts recorded in every results file."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "pinned_threads": dict(PINNED_THREADS),
        "workers": WORKERS,
        "smoke": smoke,
        "workloads": {
            name: expected_run(w, seed=0, smoke=smoke).sizes for name, w in WORKLOADS.items()
        },
    }
