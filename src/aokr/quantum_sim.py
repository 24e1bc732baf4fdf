"""Monte Carlo wavefunction propagation on a momentum ladder.

A trajectory is a ladder of plane waves |n kbar + q>, n in
[-n_max, n_max), with one continuous momentum offset q; it starts with
all its amplitude at n = 0 and q at its thermal start momentum.  It is
evolved by split-step Fourier propagation: free phases are diagonal in
momentum, the pulse potential k(tau) cos(phi) is diagonal on the
position grid and couples n only to n +- 1, and spontaneous emission
enters as the non-Hermitian decay exp(-k dtau (eta_rate/2)(1 + cos phi))
that shrinks the norm.  As in the classical engine, a trajectory draws
everything up front: its start momentum, then (norm threshold, recoil)
pairs (streams.split_emission_pairs); pair k holds the threshold in force
after k jumps and the recoil of jump k + 1.  Norms are checked at the
end of each resultant pulse; below the threshold the trajectory jumps:
the recoil, uniform in [-kbar/2, kbar/2), is added to q and the state is
renormalised.  The decay emits with probability about eta per
constituent pulse whatever the kick strengths, as the classical engine's
one check per constituent pulse does.  An ensemble returns each row's
ladder momenta n + q/kbar and normalised populations; the analysis layer
reduces them to energies and bins them, as it does the classical
engine's samples, into equal-weight averages over trajectories.

The ladder size is the ensemble's to choose: with n_max = 0 (the
default) it starts on n_max = 64 and, while some row's population at the
window edge crosses SETTLE_OCCUPATION_LIMIT, re-runs the whole ensemble
on twice the grid, up to N_MAX_CEILING.  Dynamical localisation keeps
the reach small, so most ensembles settle on the first grid.  An
explicit n_max is the only grid tried.  On the last grid tried the edge
limit is BOUNDARY_OCCUPATION_LIMIT, and crossing it raises
GridOverflowError.

The split step (_pulse_rows), the free phases (_free_phases) and the
jump (_jump) each have one implementation, which the chunked ensemble
applies to every row of a chunk.  The split step's position-space
multiplier takes its transcendentals from a quarter of the grid: cos phi
is even and odd about phi = pi/2 (_grids makes both exact), so each row's
kick phase is fixed by phi in [0, pi/2], and the emission decay is the
same for every row.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classical_sim import EnsembleParams, draw_momentum_and_kick_factor
from .parallel import chunk_bounds, chunked_map
from .pulse_train import ResolvedTimeline
from .streams import ENGINE_QUANTUM, split_emission_pairs, trajectory_streams

DEFAULT_N_MAX = 0  # 0 = choose the smallest grid that holds the ensemble
DEFAULT_CHUNK_SIZE = 128
# largest chosen n_max: a 128-row chunk then holds 128 x 16384 x 16 B = 32 MiB
N_MAX_CEILING = 8192
BOUNDARY_OCCUPATION_LIMIT = 1e-8
# edge population a chosen grid below the ceiling may reach: grids that hold
# the ensemble peak at the FFT rounding floor, 1e-30, and too-small ones at
# 1e-16 and above, with energy errors from 3e-14 up
SETTLE_OCCUPATION_LIMIT = 1e-20


class GridOverflowError(ValueError):
    """Population reached the edge of a row's ladder window, where the
    position grid starts to alias."""


@lru_cache(maxsize=8)
def _grids(size: int):
    """Ladder numbers in FFT order (0..n_max-1, -n_max..-1) and cos(phi)
    on the position grid phi_g = 2 pi g / size.

    cos(phi) is computed on the quarter g in [0, size/4] only and laid out
    so that its symmetries hold exactly: cos phi_(size-g) = cos phi_g,
    cos phi_(size/2-g) = -cos phi_g and cos phi_(size/4) = 0.  The split
    step relies on them to build its multiplier from the quarter.
    """
    n = np.arange(size)
    n[n >= size // 2] -= size
    quarter = size // 4
    cos_q = np.cos(2.0 * np.pi * np.arange(quarter + 1) / size)
    cos_q[quarter] = 0.0
    cos_phi = np.empty(size)
    cos_phi[quarter : size // 2 + 1] = -cos_q[::-1]
    cos_phi[: quarter + 1] = cos_q  # after the line above: +0.0 at size/4
    cos_phi[size // 2 + 1 :] = cos_phi[size // 2 - 1 : 0 : -1]
    return n, cos_phi


def _grid_sizes(n_max: int):
    """The n_max an ensemble tries, in order: the powers of two from 64
    to N_MAX_CEILING for n_max = 0 (choose), else n_max alone, which must
    be a power of two >= 64 (grid size 2*n_max is FFT-friendly)."""
    if n_max == 0:
        return [64 << i for i in range((N_MAX_CEILING // 64).bit_length())]
    if n_max < 64 or (n_max & (n_max - 1)) != 0:
        raise ValueError(
            f"n_max: must be 0 (choose the grid) or a power of two >= 64, got {n_max}"
        )
    return [n_max]


def _free_phases(q, kbar: float, size: int, dtau: float) -> np.ndarray:
    """Per-row free phases exp(-i (n kbar + q)^2 dtau / (2 kbar))."""
    n = _grids(size)[0]
    return np.exp(-0.5j * (n * kbar + q[:, None]) ** 2 * dtau / kbar)


def _pulse_rows(psi, q, kf, decay_scale, k_mid, h: float, kbar: float):
    """Strang split steps of step h, step j at the envelope's mean strength
    k_mid[j] over it, on every row of psi in place.

    Per step: half free phase; multiply on the position grid by
    exp(-i k h kf cos(phi)/kbar) * exp(-k h decay_scale (1 + cos phi));
    transform back; half free phase.  The half phases of adjacent steps
    are fused.  decay_scale is one float for every row.  Norms are
    non-increasing and conserved to rounding where decay_scale = 0.

    The multiplier is built on phi in [0, pi] only, as column g serves
    column size - g too (cos phi is even).  Its phase is computed on the
    quarter phi in [0, pi/2], as cos and sin written into the real and
    imaginary parts of one buffer, and mirrored as its conjugate onto
    (pi/2, pi], where cos phi_(size/2-g) = -cos phi_g.  The decay factor
    does not depend on the row: one table per call holds it, a row per step.
    """
    size = psi.shape[1]
    half_size, quarter = size // 2, size // 4
    cos_phi = _grids(size)[1][: half_size + 1]
    decay = np.exp(np.multiply.outer(-h * decay_scale * np.asarray(k_mid), 1.0 + cos_phi))
    phase = np.empty((psi.shape[0], quarter + 1))
    mult = np.empty((psi.shape[0], half_size + 1), dtype=np.complex128)
    x = np.empty_like(psi)
    half = _free_phases(q, kbar, size, 0.5 * h)
    full = half * half
    psi *= half
    for j, k_j in enumerate(k_mid):
        np.multiply.outer((-h * k_j / kbar) * kf, cos_phi[: quarter + 1], out=phase)
        np.cos(phase, out=mult.real[:, : quarter + 1])
        np.sin(phase, out=mult.imag[:, : quarter + 1])
        np.conjugate(mult[:, quarter - 1 :: -1], out=mult[:, quarter + 1 :])
        mult *= decay[j]
        np.fft.ifft(psi, axis=1, out=x)
        x[:, : half_size + 1] *= mult
        x[:, half_size + 1 :] *= mult[:, half_size - 1 : 0 : -1]
        np.fft.fft(x, axis=1, out=psi)
        psi *= full if j < len(k_mid) - 1 else half


def _norms_sq(psi) -> np.ndarray:
    """Squared norm of each row (last axis)."""
    return np.einsum("...j,...j->...", psi.real, psi.real) + np.einsum(
        "...j,...j->...", psi.imag, psi.imag
    )


def _populations(psi):
    """Each row's normalised populations |c_n|^2 / ||c||^2."""
    return np.abs(psi) ** 2 / _norms_sq(psi)[:, None]


def _jump(c, q, u):
    """Add the recoils u to the momentum offsets q of a block of rows c
    (or of one row), so each row's <rho> moves by exactly its u, and
    renormalise each row.  Returns (amplitudes, q)."""
    return c / np.sqrt(_norms_sq(c)[..., None]), q + u


@dataclass(frozen=True)
class QuantumEnsembleResult:
    """Per-trajectory ladders, populations and diagnostics.  The analysis
    layer reduces them: the ensemble's energy is energy(momenta, weights)
    and its momentum distribution MomentumDistribution.from_samples(momenta,
    bin_width, weights)."""

    momenta: np.ndarray  # (n_traj, 2 n_max): row i is n + q_i/kbar in recoils, FFT order
    weights: np.ndarray  # (n_traj, 2 n_max): each row's normalised populations
    jump_counts: np.ndarray
    n_max: int  # the ladder half size the ensemble ran on


def _quantum_chunk(job):
    """Evolve quantum trajectories lo..hi-1 on a ladder of half size n_max.

    Raises GridOverflowError at the first pulse where a row's population
    at the window edge reaches the limit.  Returns their normalised
    populations (rows in FFT order), momentum offsets q and jump counts.
    """
    timeline, params, lo, hi, n_max, limit = job
    n_rows = hi - lo
    kbar = params.kbar
    n_pairs = timeline.n_res + 1  # at most one jump per resultant pulse
    q, kf = np.empty((2, n_rows))
    pairs = np.empty((n_rows, 2 * n_pairs))
    psi = np.zeros((n_rows, 2 * n_max), dtype=np.complex128)
    psi[:, 0] = 1.0
    streams = trajectory_streams(params.rng_seed, ENGINE_QUANTUM, range(lo, hi))
    for i, s in enumerate(streams):
        q[i], kf[i] = draw_momentum_and_kick_factor(params, s)
        s.random(out=pairs[i])
    thresholds, recoils = split_emission_pairs(pairs, kbar)

    rows = np.arange(n_rows)
    jump_counts = np.zeros(n_rows, dtype=int)

    prev_end = None
    for p_idx, pulse in enumerate(timeline.pulses):
        if prev_end is not None:
            psi *= _free_phases(q, kbar, psi.shape[1], pulse.start - prev_end)
        # eta per constituent pulse, for any kick strength and kick factor
        decay_scale = 0.5 * params.eta_per_pulse * pulse.n_constituents / pulse.area
        _pulse_rows(psi, q, kf, decay_scale, pulse.k_mid, pulse.step, kbar)
        norms2 = _norms_sq(psi)
        jump = norms2 < thresholds[rows, jump_counts]
        psi[jump], q[jump] = _jump(psi[jump], q[jump], recoils[jump, jump_counts[jump]])
        norms2[jump] = 1.0
        jump_counts[jump] += 1
        rel = np.abs(psi[:, n_max - 1 : n_max + 1]).max(axis=1) ** 2 / norms2
        if np.any(rel >= limit):
            bad = int(np.argmax(rel >= limit))
            raise GridOverflowError(
                f"trajectory {lo + bad}: boundary occupation {rel[bad]:.3e} at pulse "
                f"{p_idx}; increase n_max"
            )
        prev_end = pulse.end

    return _populations(psi), q, jump_counts


def run_mcwf_trajectories(
    timeline: ResolvedTimeline,
    params: EnsembleParams,
    n_traj: int,
    *,
    n_max: int = DEFAULT_N_MAX,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> QuantumEnsembleResult:
    """Run a quantum trajectory ensemble; return each row's final ladder
    momenta (n + q_i/kbar, in recoils), populations and jump count.

    n_max = 0 chooses the grid (see the module docstring); the result
    records the one used.  Bit-identical for a fixed rng_seed regardless
    of n_workers and chunk_size: trajectory i draws everything up front
    from its own stream, as in run_classical_ensemble, so a re-run on a
    larger grid draws the same numbers, and the grid depends on the whole
    ensemble only.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    sizes = _grid_sizes(n_max)
    bounds = chunk_bounds(n_traj, chunk_size, n_workers)
    for size in sizes:
        last = size == sizes[-1]
        limit = BOUNDARY_OCCUPATION_LIMIT if last else SETTLE_OCCUPATION_LIMIT
        jobs = [(timeline, params, lo, hi, size, limit) for lo, hi in bounds]
        try:
            chunks = chunked_map(_quantum_chunk, jobs, n_workers)
            break
        except GridOverflowError as exc:
            if not last:
                continue  # the ensemble does not fit: re-run it on twice the grid
            if n_max:
                raise
            raise GridOverflowError(
                f"{exc} beyond the chosen grids' ceiling {size} with an explicit --n-max"
            ) from None
    weights, q, jump_counts = (np.concatenate(x) for x in zip(*chunks))
    return QuantumEnsembleResult(
        momenta=_grids(2 * size)[0] + q[:, None] / params.kbar,
        weights=weights,
        jump_counts=jump_counts,
        n_max=size,
    )
