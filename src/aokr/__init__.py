"""Two-frequency atom-optics kicked rotor simulator.

Classical Monte Carlo ensembles (exact Jacobi-elliptic pendulum steps)
and Monte Carlo wavefunction quantum trajectories (split-step Fourier
with non-Hermitian spontaneous-emission decay) under a shared resolved
pulse timeline, plus the analysis layer for energies, zero-velocity
fractions and lineshape classification.
"""

from .analysis import (
    LineshapeReport,
    MomentumDistribution,
    classify_lineshape,
    dominant_phase_frequency,
    energy,
    energy_stderr,
    zero_velocity_fraction,
)
from .classical_sim import (
    ClassicalState,
    EnsembleParams,
    draw_momentum_and_kick_factor,
    evolve_pulse,
    run_classical_ensemble,
    sample_initial_classical,
)
from .constants import kbar_for_period, thermal_sigma_recoils
from .elliptic import pendulum_step
from .pulse_train import (
    PulseShapeParams,
    ResolvedTimeline,
    ResultantPulse,
    TwoFreqTrainSpec,
    build_train_spec,
    normalize_height,
    pulse_envelope,
    resolve_timeline,
    single_train_spec,
)
from .quantum_sim import (
    GridOverflowError,
    QuantumEnsembleResult,
    Wavefunction,
    free_propagate,
    init_wavefunction,
    kick_step,
    mcwf_check_jump,
    run_mcwf_trajectories,
)
from .runner import RunConfig, SweepResult, emit_outputs, run

__version__ = "0.1.0"

__all__ = [
    "ClassicalState",
    "EnsembleParams",
    "GridOverflowError",
    "LineshapeReport",
    "MomentumDistribution",
    "PulseShapeParams",
    "QuantumEnsembleResult",
    "ResolvedTimeline",
    "ResultantPulse",
    "RunConfig",
    "SweepResult",
    "TwoFreqTrainSpec",
    "Wavefunction",
    "build_train_spec",
    "classify_lineshape",
    "dominant_phase_frequency",
    "draw_momentum_and_kick_factor",
    "emit_outputs",
    "energy",
    "energy_stderr",
    "evolve_pulse",
    "free_propagate",
    "init_wavefunction",
    "kbar_for_period",
    "kick_step",
    "mcwf_check_jump",
    "normalize_height",
    "pendulum_step",
    "pulse_envelope",
    "resolve_timeline",
    "run",
    "run_classical_ensemble",
    "run_mcwf_trajectories",
    "sample_initial_classical",
    "single_train_spec",
    "thermal_sigma_recoils",
    "zero_velocity_fraction",
]
