"""Command-line front end: phase-sweep, ratio-sweep, single."""

import argparse
import sys

from .quantum_sim import GridOverflowError
from .runner import (
    MODE_PHASE_SWEEP,
    MODE_RATIO_SWEEP,
    MODE_SINGLE,
    RunConfig,
    emit_outputs,
    parse_config_file,
    run,
)

_FLAGS = [
    # (flag, config field, help); values reach RunConfig as text
    ("--engine", "engine", "classical, quantum, or both"),
    ("--ratio", "ratio", "period ratio r = T2/T1"),
    ("--n-tot", "n_tot", "total number of kicks N + M"),
    ("--kappa", None, "kick strength for both trains"),
    ("--kappa1", "kappa1", "kick strength of train 1"),
    ("--kappa2", "kappa2", "kick strength of train 2"),
    ("--t1-us", "t1_us", "primary pulsing period in microseconds"),
    ("--kbar", "kbar", "effective Planck constant (0 = derive from t1)"),
    ("--pulse-rise-ns", "pulse_rise_ns", "envelope rise time"),
    ("--pulse-fall-ns", "pulse_fall_ns", "envelope fall time"),
    ("--pulse-fwhm-ns", "pulse_fwhm_ns", "envelope FWHM"),
    ("--eta", "eta", "spontaneous emission probability per constituent pulse"),
    ("--temperature-uk", "temperature_uk", "cloud temperature in microkelvin"),
    ("--beam-sigma-mm", "beam_sigma_mm", "kicking beam intensity sigma"),
    ("--cloud-sigma-mm", "cloud_sigma_mm", "cloud sigma (0 = point cloud)"),
    ("--psi0", "psi0_deg", "initial phase offset in degrees (single mode)"),
    ("--psi0-start", "psi0_start_deg", "phase sweep start (degrees)"),
    ("--psi0-stop", "psi0_stop_deg", "phase sweep stop (degrees)"),
    ("--psi0-step", "psi0_step_deg", "phase sweep step (degrees)"),
    ("--psi0-prime", "psi0_prime_deg", "fixed phase for ratio sweeps (degrees)"),
    ("--r-prime", "r_prime_values", "comma-separated r' values (ratio sweep)"),
    ("--n-traj-classical", "n_traj_classical", "classical trajectories per point"),
    ("--n-traj-quantum", "n_traj_quantum", "quantum trajectories per point"),
    ("--n-max", "n_max",
     "momentum ladder half size, a power of two >= 64 "
     "(0 = smallest power of two >= 64 that holds the ensemble)"),
    ("--min-steps", "min_steps_per_pulse", "minimum grid steps per pulse"),
    ("--bin-width", "bin_width", "histogram bin width (recoils)"),
    ("--epsilon", "epsilon_zero_velocity", "zero-velocity window (recoils)"),
    ("--seed", "seed", "base random seed"),
    ("--workers", "n_workers", "worker processes (results do not depend on it)"),
    ("--out", "output_dir", "output directory"),
]


def _add_common(parser):
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--square-pulses", action="store_true",
                        help="ideal square pulses (rise = fall = 0, FWHM = 480 ns)")
    for flag, _, help_text in _FLAGS:
        parser.add_argument(flag, help=help_text)


def _build_config(args, mode):
    """The validated RunConfig of the config file overridden by the given flags."""
    mapping = parse_config_file(args.config) if args.config else {}
    mapping["mode"] = mode
    shorthand = {}  # field -> the shorthand flag that set it
    if args.kappa is not None:
        shorthand.update(kappa1="--kappa", kappa2="--kappa")
        mapping["kappa1"] = mapping["kappa2"] = args.kappa
    if args.square_pulses:
        square = dict(pulse_rise_ns="0", pulse_fall_ns="0", pulse_fwhm_ns="480")
        shorthand.update(dict.fromkeys(square, "--square-pulses"))
        mapping.update(square)
    for flag, fieldname, _ in _FLAGS:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if value is not None and fieldname in shorthand:
            raise ValueError(f"{fieldname}: {flag} conflicts with {shorthand[fieldname]}")
        if fieldname is not None and value is not None:
            mapping[fieldname] = value
    return RunConfig.from_mapping(mapping).validate()


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="aokr",
        description="Two-frequency kicked rotor simulator: classical ensembles "
        "and Monte Carlo wavefunction trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in (MODE_PHASE_SWEEP, MODE_RATIO_SWEEP, MODE_SINGLE):
        p = sub.add_parser(mode.replace("_", "-"), help=f"run a {mode} computation")
        _add_common(p)
        p.set_defaults(mode=mode)

    args = parser.parse_args(argv)
    try:
        config = _build_config(args, args.mode)
    except (ValueError, OSError) as exc:  # an OSError names the unreadable --config path
        parser.error(str(exc))

    try:
        rows = run(config)
    except GridOverflowError as exc:  # a grid too small for the run's ensemble
        parser.exit(1, f"{parser.prog}: error: {exc}\n")
    manifest = emit_outputs(config, rows)
    for row in rows:
        grid = f" n_max={row.n_max}" if row.n_max else ""
        print(
            f"{config.sweep_parameter}={row.sweep_value:g} engine={row.engine} "
            f"E={row.energy:.4g}(+-{row.energy_stderr:.2g}) "
            f"zvf={row.zero_velocity_fraction:.4g} lineshape={row.lineshape_class}{grid}"
        )
    print(f"wrote {len(manifest)} files to {config.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
