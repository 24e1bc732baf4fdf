"""Sweep orchestration: one pipeline from text to output files.

text -> RunConfig -> sweep points -> rows -> files.  Config files and CLI
flags both reach ``RunConfig.from_mapping``, which converts each value by
its field's type.  ``run`` validates the config, takes each sweep point's
train spec from ``sweep_points``, resolves the point's pulse timeline and
runs the selected engines on it; ``emit_outputs`` writes the rows.

A RunConfig fully determines a run; every sweep point gets its own
counter-based random substream keyed by (seed, sweep index), so rows are
reproducible bit-for-bit regardless of worker count or execution order.
"""

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import analysis
from .classical_sim import EnsembleParams, run_classical_ensemble
from .constants import kbar_for_period
from .parallel import worker_pool
from .pulse_train import (
    DEFAULT_MIN_STEPS,
    DEFAULT_ON_THRESHOLD,
    PulseShapeParams,
    build_train_spec,
    resolve_timeline,
    unit_pulse_area,
)
from .quantum_sim import DEFAULT_N_MAX, _grid_sizes, run_mcwf_trajectories

MODE_PHASE_SWEEP = "phase_sweep"
MODE_RATIO_SWEEP = "ratio_sweep"
MODE_SINGLE = "single"

ENGINE_CLASSICAL = "classical"
ENGINE_QUANTUM = "quantum"
ENGINE_BOTH = "both"

UNITS_HEADER = "# units: momentum=two-photon-recoils energy=two-photon-recoil-units"

# field names of the run's objects that differ from the config keys they come from
_CONFIG_KEYS = {
    "rise_time": "pulse_rise_ns",
    "fall_time": "pulse_fall_ns",
    "fwhm": "pulse_fwhm_ns",
    "on_threshold_fraction": "on_threshold",
    "eta_per_pulse": "eta",
    "n_total": "n_tot",
}


@dataclass
class RunConfig:
    """All knobs of a run; field names double as config-file keys."""

    mode: str = MODE_PHASE_SWEEP
    engine: str = ENGINE_BOTH

    # physics
    ratio: float = 1.0
    n_tot: int = 30
    kappa1: float = 10.1
    kappa2: float = 10.1
    t1_us: float = 30.0
    kbar: float = 0.0  # 0 = derive from t1_us and caesium constants
    pulse_rise_ns: float = 104.0
    pulse_fall_ns: float = 121.0
    pulse_fwhm_ns: float = 396.0
    on_threshold: float = DEFAULT_ON_THRESHOLD
    eta: float = 0.028
    temperature_uk: float = 5.0
    beam_sigma_mm: float = 0.72
    cloud_sigma_mm: float = 0.5
    sublevel_factors: tuple = (1.0,)
    sublevel_weights: tuple = (1.0,)

    # sweep axes
    psi0_deg: float = 180.0  # mode=single
    psi0_start_deg: float = 0.0
    psi0_stop_deg: float = 355.0
    psi0_step_deg: float = 5.0
    r_prime_values: tuple = ()
    psi0_prime_deg: float = 52.0

    # numerics
    n_traj_classical: int = 10000
    n_traj_quantum: int = 1000
    n_max: int = DEFAULT_N_MAX  # 0 = choose the smallest grid that holds each ensemble
    min_steps_per_pulse: int = DEFAULT_MIN_STEPS
    bin_width: float = analysis.DEFAULT_BIN_WIDTH
    epsilon_zero_velocity: float = analysis.DEFAULT_EPSILON
    seed: int = 0
    n_workers: int = 1
    output_dir: str = "out"

    def validate(self):
        """This config, or a ValueError naming the bad fields.

        Checked here, as no object of the run owns them: finiteness (NaN
        passes every range test), mode, engine, kbar >= 0, the sweep axes,
        n_workers, trajectory counts, sublevel lengths, and
        min_steps_per_pulse and epsilon_zero_velocity (their owners need a
        timeline or a distribution).  When those pass, the other rules come
        from building what the run builds: the pulse shape and its area, the
        ensemble parameters, every sweep point's train spec, the grids n_max
        lets an ensemble try, and the bin grid.  The first error raised is
        renamed to its config key.
        """
        problems = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                problems.append(f"{f.name}: must be finite, got {value}")
        if self.mode not in (MODE_PHASE_SWEEP, MODE_RATIO_SWEEP, MODE_SINGLE):
            problems.append(f"mode: unknown value {self.mode!r}")
        if self.engine not in (ENGINE_CLASSICAL, ENGINE_QUANTUM, ENGINE_BOTH):
            problems.append(f"engine: unknown value {self.engine!r}")
        if self.kbar < 0:
            problems.append(f"kbar: must be >= 0 (0 = derive from t1_us), got {self.kbar}")
        if self.mode == MODE_PHASE_SWEEP:
            for name in ("psi0_start_deg", "psi0_stop_deg"):
                if not (0 <= getattr(self, name) <= 360):
                    problems.append(f"{name}: must lie in [0, 360], got {getattr(self, name)}")
            if self.psi0_step_deg <= 0:
                problems.append(f"psi0_step_deg: must be positive, got {self.psi0_step_deg}")
            if self.psi0_stop_deg < self.psi0_start_deg:
                problems.append("psi0_stop_deg: must be >= psi0_start_deg")
        if self.mode == MODE_SINGLE and not (0 <= self.psi0_deg <= 360):
            problems.append(f"psi0_deg: must lie in [0, 360], got {self.psi0_deg}")
        if self.mode == MODE_RATIO_SWEEP:
            if not self.r_prime_values:
                problems.append("r_prime_values: required for ratio_sweep")
            for rp in self.r_prime_values:
                if rp <= 0:
                    problems.append(f"r_prime_values: must be positive, got {rp}")
            if not (0 <= self.psi0_prime_deg <= 360):
                problems.append(f"psi0_prime_deg: must lie in [0, 360], got {self.psi0_prime_deg}")
        for name in ("n_traj_classical", "n_traj_quantum"):
            if getattr(self, name) < 2:  # a standard error needs two trajectories
                problems.append(f"{name}: must be >= 2, got {getattr(self, name)}")
        if self.n_workers < 1:
            problems.append(f"n_workers: must be >= 1, got {self.n_workers}")
        if self.min_steps_per_pulse < 1:
            problems.append(f"min_steps_per_pulse: must be >= 1, got {self.min_steps_per_pulse}")
        if self.epsilon_zero_velocity <= 0:
            problems.append(
                f"epsilon_zero_velocity: must be positive, got {self.epsilon_zero_velocity}"
            )
        if len(self.sublevel_factors) != len(self.sublevel_weights):
            problems.append("sublevel_weights: must have one entry per sublevel factor")
        if not problems:
            try:
                unit_pulse_area(self.pulse_shape())
                self.ensemble_params()
                list(sweep_points(self))
                _grid_sizes(self.n_max)  # checks n_max
                analysis.momentum_bin_grid(self.bin_width, 0.0)  # checks the bin width
            except ValueError as exc:
                name, sep, rest = str(exc).partition(":")
                problems.append(_CONFIG_KEYS.get(name, name) + sep + rest)
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        return self

    @property
    def kbar_effective(self) -> float:
        return self.kbar if self.kbar > 0 else kbar_for_period(self.t1_us)

    def pulse_shape(self) -> PulseShapeParams:
        return PulseShapeParams.from_physical_ns(
            self.pulse_rise_ns,
            self.pulse_fall_ns,
            self.pulse_fwhm_ns,
            self.t1_us,
            self.on_threshold,
        )

    def ensemble_params(self) -> EnsembleParams:
        return EnsembleParams(
            kbar=self.kbar_effective,
            temperature_uk=self.temperature_uk,
            cloud_sigma_mm=self.cloud_sigma_mm,
            beam_sigma_mm=self.beam_sigma_mm,
            eta_per_pulse=self.eta,
            sublevel_factors=tuple(zip(self.sublevel_factors, self.sublevel_weights)),
            rng_seed=self.seed,
        )

    @property
    def sweep_parameter(self) -> str:
        return "r_prime" if self.mode == MODE_RATIO_SWEEP else "psi0_deg"

    def engines(self):
        if self.engine == ENGINE_BOTH:
            return (ENGINE_CLASSICAL, ENGINE_QUANTUM)
        return (self.engine,)

    @classmethod
    def from_mapping(cls, mapping):
        """A config from text values keyed by field name (config file or CLI flags)."""
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, text in mapping.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(text, fields[key], key)
        return cls(**kwargs)


def _coerce(text, ftype, key):
    """A field's value from its text: ftype(text), or comma-separated floats for tuples."""
    text = text.strip()
    try:
        if ftype is tuple:
            return tuple(float(v) for v in text.split(",")) if text else ()
        return ftype(text)
    except ValueError as exc:
        raise ValueError(f"{key}: cannot read {text!r} as {ftype.__name__} ({exc})") from None


def parse_config_file(path):
    """key = value lines; '#' starts a comment; lists are comma-separated."""
    mapping = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
            key, value = text.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


@dataclass
class SweepRow:
    """One (sweep value, engine) result."""

    sweep_value: float
    engine: str
    energy: float
    energy_stderr: float
    zero_velocity_fraction: float
    lineshape_class: str
    distribution: analysis.MomentumDistribution
    n_max: int  # the quantum ladder half size used (0 for classical rows)


def _run_point(
    config: RunConfig, params: EnsembleParams, timeline, sweep_index: int, sweep_value: float
):
    """Run the selected engines on one resolved timeline with the run's
    ensemble parameters.

    Each engine yields per-trajectory momenta (one sample per classical
    trajectory, a weighted ladder per quantum one) and energies; every row
    is reduced from those the same way.
    """
    rows = []
    for engine in config.engines():
        if engine == ENGINE_CLASSICAL:
            momenta = run_classical_ensemble(
                timeline,
                params,
                config.n_traj_classical,
                sweep_index=sweep_index,
                n_workers=config.n_workers,
            )
            weights, energies, n_max = None, momenta**2 / 2.0, 0
        else:
            r = run_mcwf_trajectories(
                timeline,
                params,
                config.n_traj_quantum,
                n_max=config.n_max,
                sweep_index=sweep_index,
                n_workers=config.n_workers,
            )
            momenta, weights, energies, n_max = r.momenta, r.weights, r.energies, r.n_max
        dist = analysis.MomentumDistribution.from_samples(momenta, config.bin_width, weights)
        rows.append(
            SweepRow(
                sweep_value=sweep_value,
                engine=engine,
                energy=float(np.mean(energies)),
                energy_stderr=analysis.mean_stderr(energies),
                zero_velocity_fraction=analysis.zero_velocity_fraction(
                    dist, config.epsilon_zero_velocity
                ),
                lineshape_class=analysis.classify_lineshape(dist).lineshape_class,
                distribution=dist,
                n_max=n_max,
            )
        )
    return rows


def phase_sweep_values(config: RunConfig):
    n = int(math.floor((config.psi0_stop_deg - config.psi0_start_deg) / config.psi0_step_deg + 1e-9))
    return [config.psi0_start_deg + i * config.psi0_step_deg for i in range(n + 1)]


def sweep_points(config: RunConfig):
    """Yield (sweep value, train spec) of each sweep point, in run order.

    A phase sweep (or single point) varies psi0 at the configured ratio.  A
    ratio sweep point r' has ratio = 1/r' and psi0 = psi0_prime * ratio, so
    the delay is fixed in units of the second train's period; it must stay
    below one primary period.
    """
    if config.mode == MODE_RATIO_SWEEP:
        points = [(rp, 1.0 / rp, config.psi0_prime_deg * (1.0 / rp)) for rp in config.r_prime_values]
        late = [rp for rp, _, psi0 in points if psi0 >= 360.0]
        if late:
            raise ValueError(f"r_prime_values: psi0_prime/r' must be < 360 deg, got r' = {late}")
    else:
        psi0s = [config.psi0_deg] if config.mode == MODE_SINGLE else phase_sweep_values(config)
        points = [(psi0, config.ratio, psi0) for psi0 in psi0s]
    shape, kbar = config.pulse_shape(), config.kbar_effective
    for sweep_value, ratio, psi0 in points:
        yield sweep_value, build_train_spec(
            ratio, (psi0 / 360.0) % 1.0, config.n_tot, config.kappa1, config.kappa2, shape, kbar
        )


def run(config: RunConfig) -> list:
    """Validate the config, then run its engines on each sweep point in order;
    returns the SweepRows in sweep order, each point's engines in turn.

    Every ensemble of the run maps its chunks over one worker pool of
    min(n_workers, largest ensemble) processes, opened here and shut down,
    its workers joined, before this returns or raises.
    """
    config.validate()
    largest = max(
        config.n_traj_classical if engine == ENGINE_CLASSICAL else config.n_traj_quantum
        for engine in config.engines()
    )
    params = config.ensemble_params()
    rows = []
    with worker_pool(min(config.n_workers, largest)):
        for idx, (sweep_value, spec) in enumerate(sweep_points(config)):
            timeline = resolve_timeline(spec, config.min_steps_per_pulse)
            rows.extend(_run_point(config, params, timeline, idx, sweep_value))
    return rows


def _format(x) -> str:
    return f"{x:.17g}"


def emit_outputs(config: RunConfig, rows) -> list:
    """Write the run's sweep CSV, per-point distributions, config snapshot and
    plot script to config.output_dir.

    Returns the list of written paths (the manifest).  An empty sweep
    produces only the config snapshot.
    """
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest = []

    config_path = os.path.join(out_dir, "config.json")
    snapshot = dataclasses.asdict(config)
    snapshot["kbar_effective"] = config.kbar_effective
    with open(config_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.append(config_path)

    if not rows:
        return manifest

    sweep_path = os.path.join(out_dir, "sweep.csv")
    manifest.append(sweep_path)
    with open(sweep_path, "w") as fh:
        fh.write(UNITS_HEADER + "\n")
        fh.write(f"# sweep_parameter: {config.sweep_parameter}\n")
        fh.write(
            "sweep_value,engine,energy,energy_stderr,zero_velocity_fraction,"
            "lineshape_class,distribution_file\n"
        )
        for i, row in enumerate(rows):
            dist_name = f"dist_{row.engine}_{i:04d}.csv"
            row.distribution.save_csv(os.path.join(out_dir, dist_name))
            manifest.append(os.path.join(out_dir, dist_name))
            fh.write(
                ",".join(
                    [
                        _format(row.sweep_value),
                        row.engine,
                        _format(row.energy),
                        _format(row.energy_stderr),
                        _format(row.zero_velocity_fraction),
                        row.lineshape_class,
                        dist_name,
                    ]
                )
                + "\n"
            )

    plot_path = os.path.join(out_dir, "plot.gp")
    ylabel = "energy (two-photon-recoil units)"
    ycol = 3
    if config.sweep_parameter == "r_prime":
        ylabel = "zero-velocity fraction"
        ycol = 5
    with open(plot_path, "w") as fh:
        fh.write(
            "\n".join(
                [
                    "# gnuplot script",
                    "set datafile separator ','",
                    f"set xlabel '{config.sweep_parameter}'",
                    f"set ylabel '{ylabel}'",
                    "set key top right",
                    "plot \\",
                    f"  'sweep.csv' using 1:(strcol(2) eq 'classical' ? ${ycol} : 1/0) "
                    "with linespoints title 'classical', \\",
                    f"  'sweep.csv' using 1:(strcol(2) eq 'quantum' ? ${ycol} : 1/0) "
                    "with linespoints title 'quantum'",
                    "",
                ]
            )
        )
    manifest.append(plot_path)
    return manifest

