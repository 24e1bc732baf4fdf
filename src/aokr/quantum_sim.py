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
pairs (streams.draw_emission_pairs); pair k holds the threshold in force
after k jumps and the recoil of jump k + 1.  Norms are checked at the
end of each resultant pulse; below the threshold the trajectory jumps:
the recoil, uniform in [-kbar/2, kbar/2), is added to q and the state is
renormalised.  The decay emits with probability about eta per
constituent pulse whatever the kick strengths, as the classical engine's
one check per constituent pulse does.  An ensemble returns each row's
ladder momenta n + q/kbar and normalised populations; the analysis layer
bins them, as it bins the classical engine's samples, into an
equal-weight average over trajectories.

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
applies to every row of a chunk.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classical_sim import EnsembleParams, draw_momentum_and_kick_factor
from .parallel import chunk_bounds, chunked_map
from .pulse_train import ResolvedTimeline
from .streams import ENGINE_QUANTUM, draw_emission_pairs, trajectory_streams

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
    on the position grid."""
    n = np.arange(size)
    n[n >= size // 2] -= size
    cos_phi = np.cos(2.0 * np.pi * np.arange(size) / size)
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
    """
    _, cos_phi = _grids(psi.shape[1])
    half = _free_phases(q, kbar, psi.shape[1], 0.5 * h)
    full = half * half
    psi *= half
    for j, k_j in enumerate(k_mid):
        w = (-1j * h * k_j / kbar) * kf - h * k_j * decay_scale
        mult = np.exp(np.outer(w, cos_phi) - h * k_j * decay_scale)
        x = np.fft.ifft(psi, axis=1)
        x *= mult
        np.fft.fft(x, axis=1, out=psi)
        psi *= full if j < len(k_mid) - 1 else half


def _norms_sq(psi) -> np.ndarray:
    """Squared norm of each row (last axis)."""
    return np.einsum("...j,...j->...", psi.real, psi.real) + np.einsum(
        "...j,...j->...", psi.imag, psi.imag
    )


def _energies(psi, q, kbar: float):
    """Per-row <(n + q/kbar)^2>/2 in recoil units, with the normalised
    populations and the momenta (in recoils) it averages over."""
    weights = np.abs(psi) ** 2 / _norms_sq(psi)[:, None]
    momenta = _grids(psi.shape[1])[0] + q[:, None] / kbar
    return 0.5 * np.sum(weights * momenta**2, axis=1), weights, momenta


def _jump(c, q, u):
    """Add the recoils u to the momentum offsets q of a block of rows c
    (or of one row), so each row's <rho> moves by exactly its u, and
    renormalise each row.  Returns (amplitudes, q)."""
    return c / np.sqrt(_norms_sq(c)[..., None]), q + u


@dataclass(frozen=True)
class QuantumEnsembleResult:
    """Per-trajectory ladders, populations and diagnostics.  The ensemble's
    momentum distribution is MomentumDistribution.from_samples(momenta,
    bin_width, weights)."""

    momenta: np.ndarray  # (n_traj, 2 n_max): row i is n + q_i/kbar in recoils, FFT order
    weights: np.ndarray  # (n_traj, 2 n_max): each row's normalised populations
    energies: np.ndarray  # per-trajectory <(rho+q)^2>/2 in recoil units
    jump_counts: np.ndarray
    n_max: int  # the ladder half size the ensemble ran on


def _quantum_chunk(job):
    """Evolve quantum trajectories lo..hi-1 on a ladder of half size n_max.

    Raises GridOverflowError at the first pulse where a row's population
    at the window edge reaches the limit.  Returns their energies,
    normalised populations (rows in FFT order), momentum offsets q and
    jump counts.
    """
    timeline, params, lo, hi, n_max, limit = job
    n_rows = hi - lo
    kbar = params.kbar
    n_pairs = timeline.n_res + 1  # at most one jump per resultant pulse
    q, kf = np.empty((2, n_rows))
    thresholds, recoils = np.empty((2, n_rows, n_pairs))
    psi = np.zeros((n_rows, 2 * n_max), dtype=np.complex128)
    psi[:, 0] = 1.0
    streams = trajectory_streams(params.rng_seed, ENGINE_QUANTUM, range(lo, hi))
    for i, s in enumerate(streams):
        q[i], kf[i] = draw_momentum_and_kick_factor(params, s)
        thresholds[i], recoils[i] = draw_emission_pairs(s, n_pairs, kbar)

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

    energies, weights, _ = _energies(psi, q, kbar)
    return energies, weights, q, jump_counts


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
    momenta (n + q_i/kbar, in recoils), populations, energy and jump count.

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
    energies, weights, q, jump_counts = (np.concatenate(x) for x in zip(*chunks))
    return QuantumEnsembleResult(
        momenta=_grids(2 * size)[0] + q[:, None] / params.kbar,
        weights=weights,
        energies=energies,
        jump_counts=jump_counts,
        n_max=size,
    )
