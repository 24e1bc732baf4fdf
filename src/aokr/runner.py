"""Sweep orchestration: configs, engines, and deterministic outputs.

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
from .pulse_train import PulseShapeParams, build_train_spec, resolve_timeline
from .quantum_sim import run_mcwf_trajectories

MODE_PHASE_SWEEP = "phase_sweep"
MODE_RATIO_SWEEP = "ratio_sweep"
MODE_SINGLE = "single"

ENGINE_CLASSICAL = "classical"
ENGINE_QUANTUM = "quantum"
ENGINE_BOTH = "both"

UNITS_HEADER = "# units: momentum=two-photon-recoils energy=two-photon-recoil-units"


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
    on_threshold: float = 0.10
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
    n_max: int = 1024
    min_steps_per_pulse: int = 16
    bin_width: float = 0.5
    epsilon_zero_velocity: float = 1.0
    seed: int = 0
    n_workers: int = 1
    output_dir: str = "out"

    def validate(self):
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
        if self.ratio <= 0:
            problems.append(f"ratio: must be positive, got {self.ratio}")
        if self.n_tot < 1:
            problems.append(f"n_tot: must be >= 1, got {self.n_tot}")
        if self.kappa1 < 0 or self.kappa2 < 0:
            problems.append("kappa1/kappa2: must be >= 0")
        if self.t1_us <= 0:
            problems.append(f"t1_us: must be positive, got {self.t1_us}")
        if self.eta < 0 or self.eta >= 1:
            problems.append(f"eta: must lie in [0, 1), got {self.eta}")
        if self.mode == MODE_PHASE_SWEEP:
            if not (0 <= self.psi0_start_deg <= 360 and 0 <= self.psi0_stop_deg <= 360):
                problems.append("psi0_start_deg/psi0_stop_deg: must lie in [0, 360]")
            if self.psi0_step_deg <= 0:
                problems.append("psi0_step_deg: must be positive")
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
                elif self.psi0_prime_deg / rp >= 360.0:
                    problems.append(
                        f"r_prime_values: r'={rp} puts the first pulse of train 2 "
                        f"beyond one primary period (psi0 = psi0_prime/r' >= 360 deg)"
                    )
            if not (0 <= self.psi0_prime_deg <= 360):
                problems.append("psi0_prime_deg: must lie in [0, 360]")
        if self.n_traj_classical < 1 or self.n_traj_quantum < 1:
            problems.append("n_traj_classical/n_traj_quantum: must be >= 1")
        if self.n_max < 64 or (self.n_max & (self.n_max - 1)) != 0:
            problems.append(f"n_max: must be a power of two >= 64, got {self.n_max}")
        if self.min_steps_per_pulse < 1:
            problems.append(f"min_steps_per_pulse: must be >= 1, got {self.min_steps_per_pulse}")
        if self.bin_width <= 0:
            problems.append(f"bin_width: must be positive, got {self.bin_width}")
        if self.epsilon_zero_velocity <= 0:
            problems.append(
                f"epsilon_zero_velocity: must be positive, got {self.epsilon_zero_velocity}"
            )
        if len(self.sublevel_factors) != len(self.sublevel_weights):
            problems.append("sublevel_factors/sublevel_weights: lengths differ")
        if not problems:
            try:  # temperature, cloud and beam sigmas, sublevel factors and weights
                self.ensemble_params()
            except ValueError as exc:
                problems.append(str(exc))
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

    def engines(self):
        if self.engine == ENGINE_BOTH:
            return (ENGINE_CLASSICAL, ENGINE_QUANTUM)
        return (self.engine,)

    @classmethod
    def from_mapping(cls, mapping):
        kwargs = {}
        fields = {f.name: f for f in dataclasses.fields(cls)}
        for key, raw in mapping.items():
            if key not in fields:
                raise ValueError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(raw, fields[key].type, key)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path):
        return cls.from_mapping(parse_config_file(path))


def _coerce(raw, ftype, key):
    name = ftype if isinstance(ftype, str) else getattr(ftype, "__name__", str(ftype))
    if isinstance(raw, (list, tuple)):
        return tuple(float(v) for v in raw)
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    if name == "int":
        return int(text)
    if name == "float":
        return float(text)
    if name == "tuple":
        if not text:
            return ()
        return tuple(float(v) for v in text.split(","))
    if name == "str":
        return text
    raise ValueError(f"cannot coerce config key {key!r} of type {name}")


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
    distribution_file: str = ""


@dataclass
class SweepResult:
    mode: str
    sweep_parameter: str
    rows: list
    config: RunConfig

    def rows_for(self, engine):
        return [r for r in self.rows if r.engine == engine]


def _timeline_for_alpha(config: RunConfig, alpha0: float, ratio: float):
    spec = build_train_spec(
        ratio,
        alpha0,
        config.n_tot,
        config.kappa1,
        config.kappa2,
        config.pulse_shape(),
        config.kbar_effective,
    )
    return resolve_timeline(spec, config.min_steps_per_pulse)


def _classify_or_undetermined(dist):
    try:
        return analysis.classify_lineshape(dist).lineshape_class
    except ValueError:
        return analysis.LINESHAPE_UNDETERMINED


def _run_point(config: RunConfig, timeline, sweep_index: int, sweep_value: float):
    """Run the selected engines on one resolved timeline."""
    rows = []
    params = config.ensemble_params()
    for engine in config.engines():
        if engine == ENGINE_CLASSICAL:
            samples = run_classical_ensemble(
                timeline,
                params,
                config.n_traj_classical,
                sweep_index=sweep_index,
                n_workers=config.n_workers,
            )
            dist = analysis.MomentumDistribution.from_samples(samples.values, config.bin_width)
            e = analysis.energy(samples)
            stderr = analysis.energy_stderr(samples)
        else:
            result = run_mcwf_trajectories(
                timeline,
                params,
                config.n_traj_quantum,
                n_max=config.n_max,
                sweep_index=sweep_index,
                n_workers=config.n_workers,
                bin_width=config.bin_width,
            )
            dist = result.distribution
            e = float(np.mean(result.energies))
            stderr = analysis.mean_stderr(result.energies)
        rows.append(
            SweepRow(
                sweep_value=sweep_value,
                engine=engine,
                energy=e,
                energy_stderr=stderr,
                zero_velocity_fraction=analysis.zero_velocity_fraction(
                    dist, config.epsilon_zero_velocity
                ),
                lineshape_class=_classify_or_undetermined(dist),
                distribution=dist,
            )
        )
    return rows


def phase_sweep_values(config: RunConfig):
    n = int(math.floor((config.psi0_stop_deg - config.psi0_start_deg) / config.psi0_step_deg + 1e-9))
    return [config.psi0_start_deg + i * config.psi0_step_deg for i in range(n + 1)]


def run_phase_sweep(config: RunConfig) -> SweepResult:
    """Energy and distribution observables on a grid of initial phases."""
    config.validate()
    if config.mode not in (MODE_PHASE_SWEEP, MODE_SINGLE):
        raise ValueError(f"mode: expected {MODE_PHASE_SWEEP} or {MODE_SINGLE}, got {config.mode}")
    values = [config.psi0_deg] if config.mode == MODE_SINGLE else phase_sweep_values(config)
    rows = []
    for idx, psi0 in enumerate(values):
        alpha0 = (psi0 / 360.0) % 1.0
        timeline = _timeline_for_alpha(config, alpha0, config.ratio)
        rows.extend(_run_point(config, timeline, idx, psi0))
    return SweepResult(
        mode=config.mode, sweep_parameter="psi0_deg", rows=rows, config=config
    )


def run_ratio_sweep(config: RunConfig) -> SweepResult:
    """Zero-velocity fraction against the inverse period ratio r'.

    For each r': ratio = 1/r' and psi0 = psi0_prime * ratio, so the
    delay is fixed in units of the second train's period.
    """
    config.validate()
    if config.mode != MODE_RATIO_SWEEP:
        raise ValueError(f"mode: expected {MODE_RATIO_SWEEP}, got {config.mode}")
    rows = []
    for idx, r_prime in enumerate(config.r_prime_values):
        ratio = 1.0 / r_prime
        psi0 = config.psi0_prime_deg * ratio
        alpha0 = psi0 / 360.0
        timeline = _timeline_for_alpha(config, alpha0, ratio)
        rows.extend(_run_point(config, timeline, idx, r_prime))
    return SweepResult(
        mode=config.mode, sweep_parameter="r_prime", rows=rows, config=config
    )


def run(config: RunConfig) -> SweepResult:
    if config.mode == MODE_RATIO_SWEEP:
        return run_ratio_sweep(config)
    return run_phase_sweep(config)


def _format(x) -> str:
    return f"{x:.17g}"


def emit_outputs(result: SweepResult, out_dir) -> list:
    """Write sweep CSV, per-point distributions, config snapshot, plot script.

    Returns the list of written paths (the manifest).  An empty sweep
    produces only the config snapshot.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = []

    config_path = os.path.join(out_dir, "config.json")
    snapshot = dataclasses.asdict(result.config)
    snapshot["kbar_effective"] = result.config.kbar_effective
    with open(config_path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest.append(config_path)

    if not result.rows:
        return manifest

    for i, row in enumerate(result.rows):
        dist_name = f"dist_{row.engine}_{i:04d}.csv"
        row.distribution.save_csv(os.path.join(out_dir, dist_name))
        row.distribution_file = dist_name
        manifest.append(os.path.join(out_dir, dist_name))

    sweep_path = os.path.join(out_dir, "sweep.csv")
    with open(sweep_path, "w") as fh:
        fh.write(UNITS_HEADER + "\n")
        fh.write(f"# sweep_parameter: {result.sweep_parameter}\n")
        fh.write(
            "sweep_value,engine,energy,energy_stderr,zero_velocity_fraction,"
            "lineshape_class,distribution_file\n"
        )
        for row in result.rows:
            fh.write(
                ",".join(
                    [
                        _format(row.sweep_value),
                        row.engine,
                        _format(row.energy),
                        _format(row.energy_stderr),
                        _format(row.zero_velocity_fraction),
                        row.lineshape_class,
                        row.distribution_file,
                    ]
                )
                + "\n"
            )
    manifest.insert(1, sweep_path)

    plot_path = os.path.join(out_dir, "plot.gp")
    ylabel = "energy (two-photon-recoil units)"
    ycol = 3
    if result.sweep_parameter == "r_prime":
        ylabel = "zero-velocity fraction"
        ycol = 5
    with open(plot_path, "w") as fh:
        fh.write(
            "\n".join(
                [
                    "# gnuplot script",
                    "set datafile separator ','",
                    f"set xlabel '{result.sweep_parameter}'",
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


def read_sweep_csv(path):
    """Parse a sweep.csv back into plain rows (floats round-trip exactly)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("sweep_value"):
                continue
            parts = line.strip().split(",")
            rows.append(
                {
                    "sweep_value": float(parts[0]),
                    "engine": parts[1],
                    "energy": float(parts[2]),
                    "energy_stderr": float(parts[3]),
                    "zero_velocity_fraction": float(parts[4]),
                    "lineshape_class": parts[5],
                    "distribution_file": parts[6],
                }
            )
    return rows
