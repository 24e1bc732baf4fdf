"""Benchmark of the aokr CLI on three workloads, end to end and per layer.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                       [--smoke] [--work-dir DIR]

NAME is classical_single, quantum_single, phase_sweep or all.  With
--trace 0 the run times the plain CLI (fresh interpreter per run, closed
loop, one run at a time) and reports the end-to-end metrics; with
--trace 1 it runs the single-worker layer probes, then alternates plain
and traced CLI runs and reports the per-layer metrics.  Every CLI run's
outputs are checked.  --smoke runs each workload once at tiny ensemble
sizes.  Outputs, results files (with provenance) and traces go under the
work directory, .bench_work/ in the checkout by default.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import shutil
import statistics
import sys
import time
import uuid
from pathlib import Path

import harness
from tracer import layer_metrics

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "traj_steps_per_s": "1/s",
}
LAYER_UNITS = {
    "pulse_train.resolve_s": "s",
    "pulse_train.resultant_pulses": "count",
    "pulse_train.grid_steps": "count",
    "streams.sample_us_per_traj": "us",
    "elliptic.pendulum_ns_per_row.b1024": "ns",
    "elliptic.pendulum_ns_per_row.b10000": "ns",
    "classical_sim.busy_s": "s",
    "classical_sim.cpu_ns_per_traj_step": "ns",
    "classical_sim.chunks": "count",
    "quantum_sim.busy_s": "s",
    "quantum_sim.ns_per_traj_step_gridpt.n256": "ns",
    "quantum_sim.ns_per_traj_step_gridpt.n1024": "ns",
    "quantum_sim.jump_overhead_frac": "frac",
    "quantum_sim.jumps_per_traj": "jumps/traj",
    "quantum_sim.chunk_bytes": "bytes",
    "parallel.pool_startup_s": "s",
    "parallel.cpu_util.classical": "frac",
    "parallel.cpu_util.quantum": "frac",
    "analysis.busy_s": "s",
    "runner.emit_s": "s",
    "runner.bytes_written": "bytes",
    "runner.files_written": "count",
    "trace.overhead_s": "s",
}

MIN_SAMPLES = 3  # CLI runs per measurement, whatever --seconds says
MIN_PAIRS = 2  # plain + traced pairs per traced measurement
DEADLINE_S = 170.0  # one workload's measurement must end within 180 s
BYTES_PER_AMPLITUDE = 16  # complex128


class Bench:
    """One workload at one seed: runs, checks and tallies every CLI invocation."""

    def __init__(self, workload, seed, smoke, work_dir, references):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.deadline = time.monotonic() + DEADLINE_S
        self.expected = harness.expected_run(workload, seed, smoke)
        self.reference = references["workloads"][workload.name]["rows"]
        self.tol_sigma = references["tolerance_sigma"]
        self.tag = f"{workload.name}_seed{seed}" + ("_smoke" if smoke else "")
        self.out_dir = work_dir / "out" / self.tag
        self.logs = work_dir / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.first_sweep = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def _timeout(self):
        return self.deadline - time.monotonic()

    def _out_of_time(self, next_run_s):
        return time.monotonic() + 1.5 * next_run_s > self.deadline

    def setup_sample(self):
        """Seconds for a fresh interpreter to import the CLI and validate the config."""
        argv = harness.setup_argv(self.workload, self.seed, self.smoke)
        res = harness.run_process(argv, self.logs / f"{self.tag}_setup.log", self._timeout())
        if res.returncode != 0:
            raise SystemExit(f"error: set-up failed, see {res.log}:\n{res.log.read_text()[-2000:]}")
        return res.wall_s

    def cli(self, traced_to=None):
        """One checked CLI run in a fresh interpreter; returns its ProcResult."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if traced_to is None:
            argv = harness.cli_argv(self.workload, self.seed, self.out_dir, self.smoke)
        else:
            trace_file, run_id = traced_to
            argv = [sys.executable, str(harness.BENCH_DIR / "traced_cli.py"), str(trace_file),
                    run_id, "--"] + self.workload.cli_args(self.seed, self.out_dir, self.smoke)
        kind = "traced" if traced_to else "plain"
        res = harness.run_process(argv, self.logs / f"{self.tag}_{kind}.log", self._timeout())
        problems = []
        if res.returncode != 0:
            problems.append(f"exit code {res.returncode}: {res.log.read_text()[-500:]}")
        problems += harness.check_outputs(
            self.out_dir, self.expected, self.first_sweep, self.reference, self.tol_sigma
        )
        sweep = self.out_dir / "sweep.csv"
        if self.first_sweep is None and sweep.is_file():
            self.first_sweep = sweep.read_bytes()
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append({"run": self.attempted, "kind": kind, "problems": problems})
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return res

    def plain(self, seconds):
        self.setup_sample()  # compiles bytecode once; users do not pay that per run
        setup, runs = [], []
        t0 = time.monotonic()
        # Each CLI run is preceded by a set-up sample, so both see the same
        # spells of machine load.
        while True:
            setup.append(self.setup_sample())
            runs.append(self.cli())
            if self.smoke:
                break
            typical = statistics.median(setup) + statistics.median(r.wall_s for r in runs)
            if len(runs) >= MIN_SAMPLES and time.monotonic() - t0 + typical > seconds:
                break
            if self._out_of_time(typical):
                break
        wall = statistics.median(r.wall_s for r in runs)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
            "traj_steps_per_s": self.expected.traj_steps / wall,
        }
        detail = {
            "setup_samples_s": setup,
            "runs": [vars(r) | {"log": str(r.log)} for r in runs],
        }
        return metrics, END_TO_END_UNITS, detail

    def traced(self, seconds, trace_dir):
        run_ids = [uuid.uuid4().hex[:12]]
        probe_trace = trace_dir / f"{self.tag}_{run_ids[0]}.json"
        argv = [sys.executable, str(harness.BENCH_DIR / "probes.py"), str(probe_trace),
                run_ids[0], str(self.seed)] + (["--smoke"] if self.smoke else [])
        t0 = time.monotonic()
        res = harness.run_process(argv, self.logs / f"{self.tag}_probes.log", self._timeout())
        log = res.log.read_text()
        if res.returncode != 0:
            raise SystemExit(f"error: probes failed, see {res.log}:\n{log[-2000:]}")
        probes = json.loads(log.strip().splitlines()[-1])
        plain, traced, per_run, trace_files = [], [], [], [probe_trace]
        while True:
            run_ids.append(uuid.uuid4().hex[:12])
            trace_files.append(trace_dir / f"{self.tag}_{run_ids[-1]}.json")
            steps = [lambda: plain.append(self.cli()),
                     lambda: traced.append(self.cli(traced_to=(trace_files[-1], run_ids[-1])))]
            # Which of the pair runs first alternates, so a drift in machine
            # speed does not bias trace.overhead_s.
            for step in steps if len(plain) % 2 == 0 else steps[::-1]:
                step()
            per_run.append(layer_metrics(_load_spans(trace_files[-1])))
            if self.smoke:
                break
            pair = statistics.median(p.wall_s + t.wall_s for p, t in zip(plain, traced))
            if len(traced) >= MIN_PAIRS and time.monotonic() - t0 + pair > seconds:
                break
            if self._out_of_time(pair):
                break
        metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
        metrics.update({name: p["value"] for name, p in probes.items()})
        metrics["quantum_sim.chunk_bytes"] = (
            self.expected.chunk_rows * 2 * self.expected.n_max * BYTES_PER_AMPLITUDE
        )
        metrics["quantum_sim.jumps_per_traj"] = _jumps_per_traj(trace_files[1:])
        metrics["trace.overhead_s"] = statistics.median(t.wall_s for t in traced) - statistics.median(
            p.wall_s for p in plain
        )
        combined = trace_dir / f"{self.tag}.json"
        with open(combined, "w") as fh:
            json.dump({"run_ids": run_ids,
                       "spans": [s for f in trace_files for s in _load_spans(f)]}, fh)
        for f in trace_files:
            f.unlink(missing_ok=True)
        detail = {
            "trace_file": str(combined),
            "probes": probes,
            "chunk_bytes_note": "computed: quantum rows per chunk x 2 n_max x 16 bytes",
            "per_traced_run": per_run,
            "plain_runs": [vars(r) | {"log": str(r.log)} for r in plain],
            "traced_runs": [vars(r) | {"log": str(r.log)} for r in traced],
        }
        return metrics, LAYER_UNITS, detail


def _load_spans(path):
    try:
        with open(path) as fh:
            return json.load(fh)["spans"]
    except (OSError, ValueError, KeyError):
        return []


def _jumps_per_traj(trace_files):
    """Mean quantum jumps per trajectory over the traced runs (0 without that engine)."""
    jumps = n_traj = 0
    for f in trace_files:
        for s in _load_spans(f):
            if s["name"] == "quantum_sim.run_mcwf_trajectories":
                jumps += s["attrs"]["jumps"]
                n_traj += s["attrs"]["n_traj"]
    return jumps / n_traj if n_traj else 0.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one run per workload at tiny sizes")
    p.add_argument("--work-dir", type=Path, default=harness.ROOT / ".bench_work")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    harness.require_source()
    names = sorted(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = args.work_dir / "results"
    trace_dir = args.work_dir / "traces"
    for d in (results_dir, trace_dir):
        d.mkdir(parents=True, exist_ok=True)
    references = harness.load_references()
    provenance = harness.provenance(args.smoke)

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        bench = Bench(harness.WORKLOADS[name], args.seed, args.smoke, args.work_dir, references)
        if args.trace:
            metrics, units, detail = bench.traced(args.seconds, trace_dir)
        else:
            metrics, units, detail = bench.plain(args.seconds)
        record = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "provenance": provenance,
            "argv": bench.workload.cli_args(args.seed, bench.out_dir, args.smoke),
            "sizes": bench.expected.sizes,
            "reference_tolerance_sigma": bench.tol_sigma,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "failures": bench.failures,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "detail": detail,
        }
        out = results_dir / f"{bench.tag}_trace{args.trace}.json"
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
        for k, v in metrics.items():
            print(f"{name:17s} {k:44s} {v:14.6g} {units[k]}")
        for failure in bench.failures:
            print(f"{name}: run {failure['run']} ({failure['kind']}) failed: {failure['problems']}")
        print(f"{name}: {bench.attempted} runs, {bench.failed} failed; results in {out}")
        summary["attempted"] += bench.attempted
        summary["failed"] += bench.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for k, v in metrics.items():
            summary["metrics"][prefix + k] = {"value": v, "unit": units[k]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
