"""Regenerate bench/references.json: reference rows for the output checks.

Usage: python3 bench/make_references.py

Runs each workload once through the aokr CLI at a seed the benchmark's
own runs do not use by convention, with every ensemble four times larger,
and stores each row's energy, its standard error and the zero-velocity
fraction.  A benchmark run's row passes when it lies within
``tolerance_sigma`` combined standard errors of its reference row.
"""

import json
import shutil
import sys
import tempfile

import harness

REFERENCE_SEED = 409145
SCALE = 4
TOLERANCE_SIGMA = 5.0


def scaled(workload):
    """The workload with every --n-traj-* ensemble SCALE times larger."""
    args = list(workload.args)
    for i, flag in enumerate(args[:-1]):
        if flag.startswith("--n-traj-"):
            args[i + 1] = str(int(args[i + 1]) * SCALE)
    return harness.Workload(workload.name, tuple(args), ())


def reference_rows(workload, work):
    scaled_run = scaled(workload)
    out = work / workload.name
    res = harness.run_process(harness.cli_argv(scaled_run, REFERENCE_SEED, out),
                              work / f"{workload.name}.log", timeout_s=1800)
    if res.returncode != 0:
        raise SystemExit(res.log.read_text())
    expected = harness.expected_run(scaled_run, REFERENCE_SEED)
    rows = []
    for row, (_, _, n_traj) in zip(harness.read_sweep_rows(out / "sweep.csv"), expected.rows):
        rows.append({
            "sweep_value": float(row["sweep_value"]),
            "engine": row["engine"],
            "n_traj": n_traj,
            "energy": float(row["energy"]),
            "energy_stderr": float(row["energy_stderr"]),
            "zero_velocity_fraction": float(row["zero_velocity_fraction"]),
        })
    print(f"{workload.name}: {len(rows)} rows in {res.wall_s:.1f} s", file=sys.stderr)
    return {"seed": REFERENCE_SEED, "sizes": expected.sizes, "rows": rows}


def main():
    harness.require_source()
    work = harness.Path(tempfile.mkdtemp(dir=harness.ROOT, prefix=".bench_ref_"))
    try:
        refs = {
            "tolerance_sigma": TOLERANCE_SIGMA,
            "workloads": {name: reference_rows(w, work) for name, w in harness.WORKLOADS.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(harness.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
