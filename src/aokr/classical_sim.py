"""Classical Monte Carlo ensembles under a resolved pulse timeline.

Each trajectory starts from a thermal (phi, rho) draw, carries a fixed
kick-strength factor sampled from the beam/cloud geometry and magnetic
sublevel, and alternates free streaming with exact pendulum steps over
the piecewise-constant envelope grid.  Spontaneous emission adds a
uniform recoil in [-kbar/2, kbar/2) with probability eta per constituent
pulse, so a resultant pulse where two trains overlap makes two checks,
as the quantum decay (eta per constituent pulse) does.

_evolve_pulse_rows is the one pulse kernel: the chunked ensemble calls
it on every row of a chunk.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .constants import thermal_sigma_recoils
from .elliptic import _pendulum_step_arrays, _wrap_angle
from .parallel import chunk_bounds, chunked_map
from .pulse_train import ResolvedTimeline
from .streams import ENGINE_CLASSICAL, split_emission_pairs, trajectory_streams

DEFAULT_CHUNK_SIZE = 1024


@dataclass(frozen=True)
class EnsembleParams:
    """Initial-condition and noise model shared by both engines.

    sublevel_factors is a discrete distribution of kick-strength
    multipliers given as (factor, weight) pairs; the default single
    factor 1.0 turns the sublevel spread off.  cloud_sigma_mm = 0 puts
    every atom at the beam centre (kick factor 1), temperature_uk = 0
    starts every atom at rest.
    """

    kbar: float
    temperature_uk: float = 5.0
    cloud_sigma_mm: float = 0.5
    beam_sigma_mm: float = 0.72
    eta_per_pulse: float = 0.0
    sublevel_factors: tuple = ((1.0, 1.0),)
    rng_seed: int = 0

    def __post_init__(self):
        """Check every field; messages start with the field's name."""
        if self.kbar <= 0:
            raise ValueError(f"kbar: must be positive, got {self.kbar}")
        if self.temperature_uk < 0:
            raise ValueError(f"temperature_uk: must be >= 0, got {self.temperature_uk}")
        if self.cloud_sigma_mm < 0:
            raise ValueError(f"cloud_sigma_mm: must be >= 0, got {self.cloud_sigma_mm}")
        if self.beam_sigma_mm < 0 or (self.cloud_sigma_mm > 0 and self.beam_sigma_mm == 0):
            raise ValueError(
                f"beam_sigma_mm: must be >= 0, and positive when cloud_sigma_mm > 0, "
                f"got {self.beam_sigma_mm}"
            )
        if not (0.0 <= self.eta_per_pulse < 1.0):
            raise ValueError(f"eta_per_pulse: must lie in [0, 1), got {self.eta_per_pulse}")
        if not self.sublevel_factors:
            raise ValueError("sublevel_factors: must be non-empty")
        for factor, weight in self.sublevel_factors:
            if not (0.0 < factor <= 1.0):
                raise ValueError(f"sublevel_factors: must lie in (0, 1], got {factor}")
            if weight <= 0:
                raise ValueError(f"sublevel_weights: must be positive, got {weight}")

    @cached_property
    def sigma_n(self) -> float:
        """Thermal momentum spread in two-photon-recoil units."""
        return thermal_sigma_recoils(self.temperature_uk)


def draw_momentum_and_kick_factor(params: EnsembleParams, rng):
    """Thermal start momentum and kick-strength factor, shared by both engines.

    rho = kbar * n with n Gaussian of width sigma_n; the kick factor is
    the standing-wave intensity (Gaussian of width beam_sigma) at a cloud
    position drawn Gaussian with cloud_sigma, times the sublevel
    multiplier.  Returns (rho, kick_factor).
    """
    n = params.sigma_n * rng.standard_normal()
    x = params.cloud_sigma_mm * rng.standard_normal()
    factors = params.sublevel_factors
    sub = factors[0][0]
    if len(factors) > 1:
        weights = np.array([w for _, w in factors], dtype=float)
        sub = factors[int(np.searchsorted(np.cumsum(weights / weights.sum()), rng.random()))][0]
    if params.cloud_sigma_mm > 0:
        intensity = math.exp(-(x**2) / (2.0 * params.beam_sigma_mm**2))
    else:
        intensity = 1.0
    return params.kbar * n, intensity * sub


def sample_initial_classical(params: EnsembleParams, rng):
    """Thermal initial state (phi, rho, kick_factor): phi ~ Uniform[-pi, pi),
    then rho and the kick factor from draw_momentum_and_kick_factor."""
    phi = rng.uniform(-math.pi, math.pi)
    return (phi, *draw_momentum_and_kick_factor(params, rng))


def _evolve_pulse_rows(phi, rho, kf, pulse, fire, recoils):
    """Evolve rows of (phi, rho) through one resultant pulse.

    Step j applies the exact pendulum flow at kf * k_mid[j], the envelope's
    mean over the step.  After step max(n_steps // 2 - 1, 0) the pulse
    makes one emission check per constituent pulse: column c of the
    boolean fire adds column c of recoils to rho.
    """
    check_step = max(pulse.n_steps // 2 - 1, 0)
    for j in range(pulse.n_steps):
        phi, rho = _pendulum_step_arrays(phi, rho, kf * pulse.k_mid[j], pulse.step)
        if j == check_step:
            for c in range(fire.shape[1]):
                rho = np.where(fire[:, c], rho + recoils[:, c], rho)
    return phi, rho


def _classical_chunk(job):
    """Evolve trajectories lo..hi-1; returns their final momenta in recoils."""
    timeline, params, lo, hi = job
    n = hi - lo
    n_checks = sum(p.n_constituents for p in timeline.pulses)
    phi, rho, kf = np.empty((3, n))
    pairs = np.empty((n, 2 * n_checks))
    streams = trajectory_streams(params.rng_seed, ENGINE_CLASSICAL, range(lo, hi))
    for i, s in enumerate(streams):
        phi[i], rho[i], kf[i] = sample_initial_classical(params, s)
        s.random(out=pairs[i])
    triggers, recoils = split_emission_pairs(pairs, params.kbar)

    fire = triggers < params.eta_per_pulse
    cursor = 0
    prev_end = None
    for pulse in timeline.pulses:
        if prev_end is not None:
            phi = _wrap_angle(phi + (pulse.start - prev_end) * rho)
        checks = slice(cursor, cursor + pulse.n_constituents)
        phi, rho = _evolve_pulse_rows(phi, rho, kf, pulse, fire[:, checks], recoils[:, checks])
        cursor = checks.stop
        prev_end = pulse.end
    return rho / params.kbar


def run_classical_ensemble(
    timeline: ResolvedTimeline,
    params: EnsembleParams,
    n_traj: int,
    *,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> np.ndarray:
    """Final momenta (in recoils) of n_traj independent trajectories
    evolved through the timeline, in trajectory order.

    Deterministic for a fixed rng_seed regardless of n_workers and
    chunk_size: trajectory i always draws from its own stream, the same
    on every timeline, each chunk is computed as one vectorised unit, and
    the chunks are concatenated in order.  A chunk holds at most
    chunk_size rows, and the rows are cut into at least n_workers chunks
    (parallel.chunk_bounds).
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    bounds = chunk_bounds(n_traj, chunk_size, n_workers)
    jobs = [(timeline, params, lo, hi) for lo, hi in bounds]
    return np.concatenate(chunked_map(_classical_chunk, jobs, n_workers))
