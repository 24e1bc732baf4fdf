"""Single-worker layer probes: kernel rates at stated input sizes.

Usage: python3 bench/probes.py TRACE_JSON RUN_ID SEED [--smoke]

Each probe calls one layer's public function in this process and is
timed as a span; the reported figure is the median over rounds.  The last
line of standard output is a JSON object mapping metric name to
{"value", "unit", "input"}, where "input" records the probe's size.
"""

import json
import statistics
import sys

import numpy as np

from tracer import Tracer

SIZES = {
    False: {"rounds": 5, "calls_b1024": 20, "calls_b10000": 4, "stream_rows": 2048,
            "q_rounds": 3, "q_rows": 128, "pool_rounds": 5},
    True: {"rounds": 1, "calls_b1024": 1, "calls_b10000": 1, "stream_rows": 64,
           "q_rounds": 1, "q_rows": 8, "pool_rounds": 1},
}


def _median_span(tracer, name, rounds, fn, **inputs):
    """Median wall seconds of fn() over rounds, each round one span."""
    times = []
    for r in range(rounds):
        with tracer.span(name, round=r, **inputs):
            fn()
        times.append(tracer.spans[-1]["end"] - tracer.spans[-1]["start"])
    return statistics.median(times)


def main(argv):
    from aokr.classical_sim import sample_initial_classical
    from aokr.elliptic import pendulum_step
    from aokr.parallel import chunked_map
    from aokr.pulse_train import build_train_spec, resolve_timeline
    from aokr.quantum_sim import run_mcwf_trajectories
    from aokr.runner import RunConfig
    from aokr.streams import ENGINE_CLASSICAL, trajectory_stream

    trace_path, run_id, seed = argv[0], argv[1], int(argv[2])
    size = SIZES["--smoke" in argv[3:]]
    tracer = Tracer(run_id)
    config = RunConfig(seed=seed)
    params = config.ensemble_params()
    results = {}

    # one kick of the default pulse shape
    one_kick = resolve_timeline(
        build_train_spec(config.ratio, 0.5, 1, config.kappa1, config.kappa2,
                         config.pulse_shape(), config.kbar_effective),
        config.min_steps_per_pulse,
    )

    # elliptic: one grid step at the pulse peak on thermal (phi, rho) rows
    pulse = one_kick.pulses[0]
    k_peak, h = float(pulse.k_mid.max()), pulse.step
    rng = np.random.default_rng(seed)
    for rows in (1024, 10000):
        calls = size[f"calls_b{rows}"]
        phi = rng.uniform(-np.pi, np.pi, rows)
        rho = params.kbar * params.sigma_n * rng.standard_normal(rows)
        k = np.full(rows, k_peak)

        def step(phi=phi, rho=rho, k=k, calls=calls):
            for _ in range(calls):
                pendulum_step(phi, rho, k, h)

        t = _median_span(tracer, "elliptic.pendulum_step", size["rounds"], step,
                         rows=rows, calls=calls)
        results[f"elliptic.pendulum_ns_per_row.b{rows}"] = (
            t / (calls * rows) * 1e9, "ns", {"rows": rows, "calls": calls, "k_rate": k_peak, "dtau": h})

    # streams + initial-condition sampling, one trajectory at a time as the engine does
    n = size["stream_rows"]

    def sample():
        for i in range(n):
            sample_initial_classical(params, trajectory_stream(seed, 0, ENGINE_CLASSICAL, i))

    t = _median_span(tracer, "streams.sample_initial_classical", size["rounds"], sample,
                     trajectories=n)
    results["streams.sample_us_per_traj"] = (t / n * 1e6, "us", {"trajectories": n})

    # quantum split step on one chunk, one worker, one kick
    steps = sum(p.n_steps for p in one_kick.pulses)
    rows = size["q_rows"]
    eta0 = RunConfig(seed=seed, eta=0.0).ensemble_params()
    jumps = []

    def evolve(n_max, eta_params):
        res = run_mcwf_trajectories(one_kick, eta_params, rows, n_max=n_max, n_workers=1)
        jumps.append(float(res.jump_counts.mean()))

    def q_span(n_max, eta_params, r):
        with tracer.span("quantum_sim.run_mcwf_trajectories", round=r, n_traj=rows,
                         n_max=n_max, eta=eta_params.eta_per_pulse, grid_steps=steps):
            evolve(n_max, eta_params)
        return tracer.spans[-1]["end"] - tracer.spans[-1]["start"]

    # eta=0 and default-eta rounds alternate, so a change in machine speed
    # between rounds cancels in the ratio
    t256, t1024, ratios = [], [], []
    for r in range(size["q_rounds"]):
        t256.append(q_span(256, eta0, r))
        t1024.append(q_span(1024, eta0, r))
        ratios.append(q_span(1024, params, r) / t1024[-1])
    for n_max, times in ((256, t256), (1024, t1024)):
        results[f"quantum_sim.ns_per_traj_step_gridpt.n{n_max}"] = (
            statistics.median(times) / (rows * steps * 2 * n_max) * 1e9, "ns",
            {"n_traj": rows, "grid_steps": steps, "n_max": n_max, "eta": 0.0})
    results["quantum_sim.jump_overhead_frac"] = (
        statistics.median(ratios) - 1.0, "frac",
        {"n_traj": rows, "grid_steps": steps, "n_max": 1024, "eta": params.eta_per_pulse,
         "baseline_eta": 0.0, "jumps_per_traj": jumps[-1]})

    # parallel: a pool of two workers mapping a trivial function over two jobs
    t = _median_span(tracer, "parallel.chunked_map", size["pool_rounds"],
                     lambda: chunked_map(len, [(0,), (1,)], 2), jobs=2, workers=2)
    results["parallel.pool_startup_s"] = (t, "s", {"jobs": 2, "workers": 2, "worker": "len"})

    tracer.write(trace_path)
    print(json.dumps({k: {"value": v, "unit": u, "input": i} for k, (v, u, i) in results.items()}))


if __name__ == "__main__":
    main(sys.argv[1:])
