"""Monte Carlo wavefunction propagation on a momentum ladder.

A trajectory is a plane-wave ladder state |n kbar + q> evolved by
split-step Fourier propagation: free phases are diagonal in momentum,
the pulse potential k(tau) cos(phi) is diagonal on the position grid,
and spontaneous emission enters as the non-Hermitian decay
exp(-k dtau (eta_rate/2)(1 + cos phi)) that shrinks the norm.  When the
squared norm falls below a pre-drawn uniform threshold the trajectory
takes a jump: a uniform recoil in [-kbar/2, kbar/2) is added to the
quasimomentum (re-folded into the first zone with a compensating ladder
shift), the state is renormalised and a new threshold is drawn.  Norms
are checked at the end of each resultant pulse.  The decay emits with
probability about eta per constituent pulse whatever the kick strengths,
as the classical engine's one check per constituent pulse does.
Observables are equal-weight averages over trajectories.

The split step (_pulse_rows), the free phases (_free_phases) and the
jump (_jump) each have one implementation: the chunked ensemble applies
them to every row of a chunk, and kick_step, free_propagate and
mcwf_check_jump to a single row.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analysis import MomentumDistribution, bin_momenta, momentum_bin_grid
from .classical_sim import EnsembleParams, draw_momentum_and_kick_factor
from .parallel import chunk_bounds, chunked_map
from .pulse_train import ResolvedTimeline
from .streams import ENGINE_QUANTUM, trajectory_stream

DEFAULT_N_MAX = 1024
DEFAULT_CHUNK_SIZE = 128
BOUNDARY_OCCUPATION_LIMIT = 1e-8


class GridOverflowError(ValueError):
    """Momentum population reached the edge of the ladder grid."""


@lru_cache(maxsize=8)
def _grids(size: int):
    """Ladder numbers in FFT order (0..n_max-1, -n_max..-1) and cos(phi)
    on the position grid."""
    n = np.arange(size)
    n[n >= size // 2] -= size
    cos_phi = np.cos(2.0 * np.pi * np.arange(size) / size)
    return n, cos_phi


def _ladder_start(rho0: float, kbar: float, n_max: int):
    """Ladder state nearest to rho0 as (FFT index, remainder q).

    n_max must be a power of two (grid size 2*n_max is FFT-friendly).
    """
    if n_max < 64 or (n_max & (n_max - 1)) != 0:
        raise ValueError(f"n_max must be a power of two >= 64, got {n_max}")
    n0 = int(np.floor(rho0 / kbar + 0.5))
    if not (-n_max <= n0 < n_max):
        raise GridOverflowError(
            f"initial momentum {rho0} rounds to ladder state {n0}, "
            f"outside the grid [-{n_max}, {n_max})"
        )
    return n0 % (2 * n_max), rho0 - n0 * kbar


def _free_phases(q, kbar: float, size: int, dtau: float) -> np.ndarray:
    """Per-row free phases exp(-i (n kbar + q)^2 dtau / (2 kbar))."""
    n = _grids(size)[0]
    return np.exp(-0.5j * (n * kbar + q[:, None]) ** 2 * dtau / kbar)


def _pulse_rows(psi, q, kf, decay_scale, k_mid, h: float, kbar: float):
    """Strang split steps of step h through the envelope k_mid, on every
    row of psi in place.

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


def _jump(c, q: float, u: float, kbar: float):
    """Add the recoil u to the quasimomentum q of one row.

    q + u is folded into [-kbar/2, kbar/2) and the ladder is shifted by
    the compensating integer with zero fill, so <rho> moves by exactly u;
    the row is renormalised.  Returns (amplitudes, q).
    """
    q_raw = q + u
    q_new = float(np.mod(q_raw + 0.5 * kbar, kbar) - 0.5 * kbar)
    if q_new >= 0.5 * kbar:  # np.mod rounds a tiny negative argument up to kbar
        q_new = -0.5 * kbar
    shift = int(round((q_raw - q_new) / kbar))
    out = np.roll(c, shift)
    edge = c.size // 2  # n = -n_max in FFT order: where the roll wraps
    out[min(edge, edge + shift) : max(edge, edge + shift)] = 0.0
    out /= np.sqrt(_norms_sq(out))
    return out, q_new


@dataclass
class Wavefunction:
    """Ladder amplitudes (FFT order) with quasimomentum offset q.

    The physical momentum of component n is n*kbar + q.  Instances are
    treated as immutable; operations return new ones.
    """

    c: np.ndarray
    q: float
    kbar: float

    def _row(self):
        """The state as one kernel row: amplitudes (1, size) and q (1,)."""
        return self.c[None, :], np.array([self.q])

    def norm_sq(self) -> float:
        return float(_norms_sq(self.c))

    def momentum_expectation(self) -> float:
        """<rho + q> in scaled momentum units."""
        _, weights, momenta = _energies(*self._row(), self.kbar)
        return float(np.sum(weights * momenta) * self.kbar)

    def energy_recoils(self) -> float:
        """<(rho + q)^2>/2 in two-photon-recoil units."""
        return float(_energies(*self._row(), self.kbar)[0][0])


@dataclass(frozen=True)
class JumpRecord:
    """One spontaneous-emission jump: when it fired and the recoil taken."""

    pulse_index: int
    pre_jump_norm_sq: float
    recoil: float


def init_wavefunction(n_max: int, initial_momentum: float, kbar: float) -> Wavefunction:
    """Single ladder state nearest to initial_momentum; the remainder is q.

    n_max must be a power of two >= 64; a momentum off the grid raises
    GridOverflowError, a ValueError.
    """
    if kbar <= 0:
        raise ValueError("kbar must be positive")
    index, q = _ladder_start(initial_momentum, kbar, n_max)
    c = np.zeros(2 * n_max, dtype=np.complex128)
    c[index] = 1.0
    return Wavefunction(c=c, q=q, kbar=kbar)


def free_propagate(psi: Wavefunction, dtau: float) -> Wavefunction:
    """Diagonal free evolution: phases exp(-i (n kbar + q)^2 dtau / (2 kbar))."""
    if dtau < 0:
        raise ValueError("dtau must be >= 0")
    c, q = psi._row()
    phases = _free_phases(q, psi.kbar, c.shape[1], dtau)
    return Wavefunction(c=(c * phases)[0], q=psi.q, kbar=psi.kbar)


def kick_step(psi: Wavefunction, k_rate: float, eta_rate: float, dtau: float) -> Wavefunction:
    """One Strang split step of the pulsed (possibly decaying) Hamiltonian:
    a one-row, one-step _pulse_rows with kick factor 1."""
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    c, q = psi._row()
    c = c.copy()
    _pulse_rows(c, q, np.ones(1), 0.5 * eta_rate, (k_rate,), dtau, psi.kbar)
    return Wavefunction(c=c[0], q=psi.q, kbar=psi.kbar)


def mcwf_check_jump(psi: Wavefunction, threshold: float, rng, pulse_index: int = -1):
    """Take a quantum jump (see _jump) if the squared norm has fallen below
    threshold, with a recoil u uniform in [-kbar/2, kbar/2) drawn from rng.

    Returns (psi', JumpRecord or None); the caller draws a fresh
    threshold after a jump.
    """
    n2 = psi.norm_sq()
    if n2 >= threshold:
        return psi, None
    u = rng.uniform(-0.5 * psi.kbar, 0.5 * psi.kbar)
    c, q = _jump(psi.c, psi.q, u, psi.kbar)
    return (
        Wavefunction(c=c, q=q, kbar=psi.kbar),
        JumpRecord(pulse_index=pulse_index, pre_jump_norm_sq=n2, recoil=float(u)),
    )


@dataclass(frozen=True)
class QuantumEnsembleResult:
    """Equal-weight trajectory average plus per-trajectory diagnostics."""

    distribution: MomentumDistribution
    energies: np.ndarray  # per-trajectory <(rho+q)^2>/2 in recoil units
    jump_counts: np.ndarray


def _quantum_chunk(job):
    """Evolve quantum trajectories lo..hi-1.

    Returns (per-trajectory energies, the rows' summed momentum histogram
    on momentum_bin_grid(bin_width, n_max + 1), per-trajectory jump counts).
    """
    timeline, params, sweep_index, lo, hi, n_max, bin_width = job
    n_rows = hi - lo
    kbar = params.kbar
    streams = [
        trajectory_stream(params.rng_seed, sweep_index, ENGINE_QUANTUM, i) for i in range(lo, hi)
    ]
    q, kf, thresholds = np.empty((3, n_rows))
    psi = np.zeros((n_rows, 2 * n_max), dtype=np.complex128)
    for i, s in enumerate(streams):
        rho0, kf[i] = draw_momentum_and_kick_factor(params, s)
        thresholds[i] = s.random()
        index, q[i] = _ladder_start(rho0, kbar, n_max)
        psi[i, index] = 1.0

    jump_counts = np.zeros(n_rows, dtype=int)

    prev_end = None
    for p_idx, pulse in enumerate(timeline.pulses):
        if prev_end is not None:
            psi *= _free_phases(q, kbar, psi.shape[1], pulse.start - prev_end)
        # eta per constituent pulse, for any kick strength and kick factor
        decay_scale = 0.5 * params.eta_per_pulse * pulse.n_constituents / pulse.area
        _pulse_rows(psi, q, kf, decay_scale, pulse.k_mid, pulse.step, kbar)
        norms2 = _norms_sq(psi)
        for i in np.flatnonzero(norms2 < thresholds):
            s = streams[i]
            psi[i], q[i] = _jump(psi[i], q[i], s.uniform(-0.5 * kbar, 0.5 * kbar), kbar)
            norms2[i] = 1.0
            thresholds[i] = s.random()
            jump_counts[i] += 1
        rel = np.abs(psi[:, n_max - 1 : n_max + 1]).max(axis=1) ** 2 / norms2
        if np.any(rel >= BOUNDARY_OCCUPATION_LIMIT):
            bad = int(np.argmax(rel >= BOUNDARY_OCCUPATION_LIMIT))
            raise GridOverflowError(
                f"trajectory {lo + bad}: boundary occupation {rel[bad]:.3e} at pulse "
                f"{p_idx}; increase n_max"
            )
        prev_end = pulse.end

    energies, weights, momenta = _energies(psi, q, kbar)
    _, hist_sum = bin_momenta(momenta, bin_width, n_max + 1.0, weights)
    return energies, hist_sum, jump_counts


def run_mcwf_trajectories(
    timeline: ResolvedTimeline,
    params: EnsembleParams,
    n_traj: int = 1000,
    *,
    n_max: int = DEFAULT_N_MAX,
    sweep_index: int = 0,
    n_workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    bin_width: float = 0.5,
) -> QuantumEnsembleResult:
    """Run a quantum trajectory ensemble and average it incoherently.

    Deterministic for fixed (rng_seed, sweep_index) regardless of worker
    count; see run_classical_ensemble for the chunking scheme.  The chunk
    histograms are added in chunk order.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    jobs = [
        (timeline, params, sweep_index, lo, hi, n_max, bin_width)
        for lo, hi in chunk_bounds(n_traj, chunk_size)
    ]
    energies, hists, jump_counts = zip(*chunked_map(_quantum_chunk, jobs, n_workers))
    centers, _ = momentum_bin_grid(bin_width, n_max + 1.0)
    dist = MomentumDistribution(bin_centers=centers, masses=sum(hists) / n_traj)
    return QuantumEnsembleResult(
        distribution=dist,
        energies=np.concatenate(energies),
        jump_counts=np.concatenate(jump_counts),
    )
