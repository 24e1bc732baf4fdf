"""In-memory span recorder and the wrappers that place spans around aokr layers.

Spans are kept in memory and written once, when the traced process ends.
Each span has an id, a name, a parent id, start and end times (epoch
seconds), the CPU seconds the process and its reaped children used inside
it, and a few attributes counted at the boundary.  All spans of one traced
process share a run id.

The wrappers are installed from here, around the names the layers export,
so the program under test is not modified.  Pool workers forked by
``aokr.parallel`` inherit the wrappers but their spans stay in the worker;
work inside workers is covered by the single-worker probes instead.
"""

import contextlib
import functools
import itertools
import json
import os
import time
import uuid


def _cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self, run_id=None):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._epoch = time.time() - time.perf_counter()

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record a span around the block; yields its attribute dict for counts."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        cpu0, t0 = _cpu_now(), time.perf_counter()
        try:
            yield attrs
        finally:
            t1, cpu1 = time.perf_counter(), _cpu_now()
            self._stack.pop()
            self.spans.append(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "run_id": self.run_id,
                    "start": self._epoch + t0,
                    "end": self._epoch + t1,
                    "cpu_s": cpu1 - cpu0,
                    "attrs": attrs,
                }
            )

    def wrap(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced version; count(attrs, args, kwargs, result)."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = inner(*args, **kwargs)
                if count is not None:
                    count(attrs, args, kwargs, result)
                return result

        setattr(owner, attr, traced)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _grid_steps(timeline):
    return sum(p.n_steps for p in timeline.pulses)


def _count_timeline(attrs, args, kwargs, timeline):
    attrs["resultant_pulses"] = timeline.n_res
    attrs["grid_steps"] = _grid_steps(timeline)


def _count_ensemble(attrs, args, kwargs, result):
    timeline, _, n_traj = args[:3]
    attrs["n_traj"] = n_traj
    attrs["traj_steps"] = n_traj * _grid_steps(timeline)
    attrs["workers"] = kwargs.get("n_workers", 1)
    jump_counts = getattr(result, "jump_counts", None)
    if jump_counts is not None:
        attrs["jumps"] = int(jump_counts.sum())


def _count_jobs(attrs, args, kwargs, result):
    attrs["jobs"] = len(args[1])


def _count_outputs(attrs, args, kwargs, manifest):
    attrs["files"] = len(manifest)
    attrs["bytes"] = sum(os.path.getsize(p) for p in manifest)


ANALYSIS_FUNCTIONS = (
    "energy",
    "energy_stderr",
    "mean_stderr",
    "zero_velocity_fraction",
    "classify_lineshape",
)


def instrument_aokr(tracer):
    """Wrap the layer entry points that ``aokr.cli.main`` reaches."""
    from aokr import analysis, classical_sim, cli, quantum_sim, runner

    tracer.wrap(cli, "run", "runner.run")
    tracer.wrap(cli, "emit_outputs", "runner.emit_outputs", _count_outputs)
    tracer.wrap(runner, "resolve_timeline", "pulse_train.resolve_timeline", _count_timeline)
    tracer.wrap(runner, "run_classical_ensemble", "classical_sim.run_classical_ensemble", _count_ensemble)
    tracer.wrap(runner, "run_mcwf_trajectories", "quantum_sim.run_mcwf_trajectories", _count_ensemble)
    tracer.wrap(classical_sim, "chunked_map", "parallel.chunked_map", _count_jobs)
    tracer.wrap(quantum_sim, "chunked_map", "parallel.chunked_map", _count_jobs)
    for fn in ANALYSIS_FUNCTIONS:
        tracer.wrap(analysis, fn, f"analysis.{fn}")
    dist = analysis.MomentumDistribution
    from_samples = dist.from_samples.__func__

    def histogram(cls, *args, **kwargs):
        with tracer.span("analysis.MomentumDistribution.from_samples"):
            return from_samples(cls, *args, **kwargs)

    dist.from_samples = classmethod(histogram)


def layer_metrics(spans):
    """Per-layer figures of one traced CLI run, from its spans.

    Engine figures read 0 when the workload does not run that engine.
    """
    by_id = {s["id"]: s for s in spans}

    def dur(s):
        return s["end"] - s["start"]

    def named(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    resolve = named("pulse_train.resolve_timeline")
    out = {
        "pulse_train.resolve_s": sum(map(dur, resolve)) / len(resolve) if resolve else 0.0,
        "pulse_train.resultant_pulses": sum(s["attrs"]["resultant_pulses"] for s in resolve),
        "pulse_train.grid_steps": sum(s["attrs"]["grid_steps"] for s in resolve),
    }
    for engine, span_name in (
        ("classical", "classical_sim.run_classical_ensemble"),
        ("quantum", "quantum_sim.run_mcwf_trajectories"),
    ):
        ens = named(span_name)
        busy = sum(map(dur, ens))
        cpu = sum(s["cpu_s"] for s in ens)
        capacity = sum(dur(s) * max(s["attrs"]["workers"], 1) for s in ens)
        layer = span_name.split(".")[0]
        out[f"{layer}.busy_s"] = busy
        out[f"parallel.cpu_util.{engine}"] = cpu / capacity if capacity else 0.0
        if engine == "classical":
            steps = sum(s["attrs"]["traj_steps"] for s in ens)
            ids = {s["id"] for s in ens}
            out["classical_sim.cpu_ns_per_traj_step"] = cpu / steps * 1e9 if steps else 0.0
            out["classical_sim.chunks"] = sum(
                s["attrs"]["jobs"] for s in named("parallel.chunked_map") if s["parent"] in ids
            )
    top_analysis = [
        s
        for s in named("analysis.")
        if s["parent"] is None or not by_id[s["parent"]]["name"].startswith("analysis.")
    ]
    out["analysis.busy_s"] = sum(map(dur, top_analysis))
    emit = named("runner.emit_outputs")
    out["runner.emit_s"] = sum(map(dur, emit))
    out["runner.bytes_written"] = sum(s["attrs"]["bytes"] for s in emit)
    out["runner.files_written"] = sum(s["attrs"]["files"] for s in emit)
    return out
