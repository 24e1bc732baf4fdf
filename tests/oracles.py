"""Oracles and one-row drivers used by the test suite.

The independent oracles deliberately avoid the code paths under test:
pulse and step areas come from scipy's adaptive quadrature of
pulse_envelope, an envelope written on scipy's erf and clamped to the
on window, pulse edges from brentq on that envelope unclamped,
the pendulum step from DOP853 on its equations of motion, the quantum
step from dense matrix exponentiation in the ladder basis, and the
quantum histogram from per_row_fold, which bins one row at a time.

The one-row drivers (Wavefunction and its steps, evolve_pulse) do the
opposite on purpose: they take one trajectory through the production
kernels the ensembles run.  single_train_spec and the readers of
emit_outputs' files are test conveniences.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import erf

from aokr.analysis import MomentumDistribution
from aokr.classical_sim import _evolve_pulse_rows
from aokr.elliptic import _wrap_angle
from aokr.pulse_train import TwoFreqTrainSpec, _threshold_window
from aokr.quantum_sim import _energies, _free_phases, _jump, _norms_sq, _pulse_rows
from aokr.streams import draw_emission_pairs


def _unit_envelope(t, rise: float, fall: float, fwhm: float):
    """Unclamped unit-height erf envelope at t from the pulse centre."""
    up = erf((t + 0.5 * fwhm) * math.sqrt(math.pi) / rise) if rise > 0 else np.sign(t + 0.5 * fwhm)
    down = erf((t - 0.5 * fwhm) * math.sqrt(math.pi) / fall) if fall > 0 else np.sign(t - 0.5 * fwhm)
    return 0.5 * (up - down)


def pulse_envelope(t_rel, k_max: float, shape):
    """Envelope height at t_rel from the pulse centre: the erf profile
    scaled to peak k_max, zero outside the on window [on, off] of
    _threshold_window (whose edges test against brentq_threshold_window).
    Accepts arrays; a scalar t_rel gives a 0-d array."""
    on, off = _threshold_window(shape)
    t_rel = np.asarray(t_rel, dtype=float)
    height = k_max * _unit_envelope(t_rel, shape.rise_time, shape.fall_time, shape.fwhm)
    return np.where((t_rel >= on) & (t_rel <= off), height, 0.0)


def envelope_area_quadrature(envelope, lo: float, hi: float, breaks=()) -> float:
    """Adaptive quadrature of a pulse envelope over [lo, hi], split at the
    midpoint and at every break inside (where a clamped envelope jumps)."""
    cuts = sorted({lo, 0.5 * (lo + hi), hi, *(b for b in breaks if lo < b < hi)})
    return sum(
        quad(lambda t: float(envelope(t)), a, b, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
        for a, b in zip(cuts, cuts[1:])
    )


def brentq_threshold_window(rise: float, fall: float, fwhm: float, thr: float):
    """(on, off) offsets from the pulse centre where the unclamped unit erf
    envelope crosses thr: each bracket grows outward from its half-maximum
    point in steps of the edge's width, then brentq finds the crossing."""

    def above(t):
        return _unit_envelope(t, rise, fall, fwhm) - thr

    def edge(half, width):
        if width == 0:
            return half
        far = half
        while above(far) > 0:
            far += math.copysign(width, half)
        return brentq(above, min(far, 0.0), max(far, 0.0), xtol=1e-15)

    return edge(-0.5 * fwhm, rise), edge(0.5 * fwhm, fall)


def pendulum_step_reference(phi, rho, k_rate, dtau):
    """Stepped reference propagator for H = rho^2/2 + k cos(phi).

    Adaptive 8th-order explicit Runge-Kutta (DOP853) at local tolerance
    1e-12; phi is returned wrapped to [-pi, pi).
    """
    out_phi, out_rho = _pendulum_reference_batch(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (phi, rho, k_rate, dtau))
    )
    if np.ndim(phi) == 0:
        return float(out_phi[0]), float(out_rho[0])
    return out_phi, out_rho


def _pendulum_reference_batch(phi, rho, k_rate, dtau):
    """Vectorised DOP853 reference: many independent pendula in one system.

    Per-element durations are absorbed by rescaling time to s in [0, 1],
    dy_i/ds = dtau_i * f(y_i), so a single adaptive solve covers all rows.
    """
    phi, rho, k_rate, dtau = np.broadcast_arrays(phi, rho, k_rate, dtau)
    n = phi.size
    y0 = np.concatenate([phi.ravel(), rho.ravel()])
    k_flat = np.asarray(k_rate, dtype=float).ravel()
    d_flat = np.asarray(dtau, dtype=float).ravel()

    def rhs(s, y):
        ph = y[:n]
        rh = y[n:]
        return np.concatenate([d_flat * rh, d_flat * k_flat * np.sin(ph)])

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference pendulum integration failed: {sol.message}")
    yf = sol.y[:, -1]
    return _wrap_angle(yf[:n].reshape(phi.shape)), yf[n:].reshape(phi.shape)


def brute_force_split(r: float, alpha0: float, n_total: int):
    """Exhaustive scan of all splits; ties toward larger N."""
    best = None
    for n in range(n_total + 1):
        m = n_total - n
        spans = []
        if n > 0:
            spans.append(n - 1.0)
        if m > 0:
            spans.append(alpha0 + r * (m - 1.0))
        dur = max(spans)
        if best is None or dur < best[0] or (dur == best[0] and n > best[1]):
            best = (dur, n, m)
    return best[1], best[2]


def dense_kick_propagator(
    n_max: int, q: float, kbar: float, k_rate: float, eta_rate: float, dtau: float
) -> np.ndarray:
    """Exact step propagator for the pulsed Hamiltonian with decay.

    Natural ladder order n = -n_max .. n_max-1.  cos(phi) couples
    neighbouring plane waves with matrix element 1/2; the non-Hermitian
    part is -i kbar k (eta_rate/2)(1 + cos phi).
    """
    n = np.arange(-n_max, n_max)
    size = 2 * n_max
    coupling = np.zeros((size, size))
    idx = np.arange(size - 1)
    coupling[idx, idx + 1] = 0.5
    coupling[idx + 1, idx] = 0.5
    h_op = (
        np.diag((n * kbar + q) ** 2 / 2.0).astype(complex)
        + k_rate * coupling
        - 1j * kbar * k_rate * (eta_rate / 2.0) * (np.eye(size) + coupling)
    )
    return expm(-1j * dtau * h_op / kbar)


def to_natural_order(c_fft: np.ndarray) -> np.ndarray:
    """FFT ladder order -> natural order n = -n_max .. n_max-1."""
    return np.fft.fftshift(c_fft)


def per_row_fold(momenta, weights, bin_width: float):
    """Momentum histogram of quantum ladders folded one row at a time.

    Row i of momenta is a ladder n + q_i/kbar in FFT order, so its first
    entry (n = 0) is q_i/kbar.  The grid is centred on zero and spans
    n_max + 1 + max_i |q_i|/kbar; each row is binned on its own (searchsorted
    into half-open bins, then bincount) and its bin sums are added to the
    total in row order.  Returns (centers, masses / n_rows).
    """
    momenta = np.asarray(momenta, dtype=float)
    n_rows, size = momenta.shape
    half_range = size // 2 + 1.0 + np.abs(momenta[:, 0]).max()
    n_half = int(math.ceil(half_range / bin_width))
    centers = np.arange(-n_half, n_half + 1) * bin_width
    edges = (np.arange(-n_half, n_half + 2) - 0.5) * bin_width
    masses = np.zeros(len(centers))
    for row, w in zip(momenta, weights):
        idx = np.searchsorted(edges, row, side="right") - 1
        masses += np.bincount(idx, w, minlength=len(centers))
    return centers, masses / n_rows


def single_train_spec(n_pulses: int, kappa: float, shape, kbar: float) -> TwoFreqTrainSpec:
    """A single periodic train (M = 0)."""
    return TwoFreqTrainSpec(1.0, 0.0, n_pulses, 0, kappa, 0.0, shape, kbar)


def evolve_pulse(phi, rho, kick_factor, pulse, rng, params):
    """(phi, rho) of one trajectory after one resultant pulse: a one-row
    _evolve_pulse_rows whose emission draws come from rng."""
    triggers, recoils = draw_emission_pairs(rng, pulse.n_constituents, params.kbar)
    fire = triggers[None, :] < params.eta_per_pulse
    phi, rho = _evolve_pulse_rows(
        np.array([phi]), np.array([rho]), np.array([kick_factor]), pulse, fire, recoils[None, :]
    )
    return float(phi[0]), float(rho[0])


@dataclass
class Wavefunction:
    """One quantum row: ladder amplitudes c (FFT order), momenta n*kbar + q."""

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


def init_wavefunction(n_max: int, initial_momentum: float, kbar: float) -> Wavefunction:
    """All amplitude at ladder index 0 with q = initial_momentum."""
    c = np.zeros(2 * n_max, dtype=np.complex128)
    c[0] = 1.0
    return Wavefunction(c, initial_momentum, kbar)


def free_propagate(psi: Wavefunction, dtau: float) -> Wavefunction:
    """Free evolution over dtau: a one-row _free_phases."""
    c, q = psi._row()
    return Wavefunction((c * _free_phases(q, psi.kbar, c.shape[1], dtau))[0], psi.q, psi.kbar)


def kick_step(psi: Wavefunction, k_rate: float, eta_rate: float, dtau: float) -> Wavefunction:
    """One Strang split step of the pulsed, decaying Hamiltonian: a one-row,
    one-step _pulse_rows with kick factor 1."""
    c, q = psi._row()
    c = c.copy()
    _pulse_rows(c, q, np.ones(1), 0.5 * eta_rate, (k_rate,), dtau, psi.kbar)
    return Wavefunction(c[0], psi.q, psi.kbar)


def mcwf_check_jump(psi: Wavefunction, threshold: float, u: float):
    """(psi', jumped): _jump with recoil u if the squared norm is below threshold."""
    if psi.norm_sq() >= threshold:
        return psi, False
    return Wavefunction(*_jump(psi.c, psi.q, u), psi.kbar), True


def read_sweep_csv(path):
    """Parse a sweep.csv back into plain rows (floats round-trip exactly)."""
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    for row in rows:
        for key in ("sweep_value", "energy", "energy_stderr", "zero_velocity_fraction"):
            row[key] = float(row[key])
    return rows


def load_dist_csv(path) -> MomentumDistribution:
    """Read a MomentumDistribution.save_csv file back (mass = density * bin width)."""
    centers, density = np.loadtxt(path, delimiter=",", skiprows=2, unpack=True)
    return MomentumDistribution(centers, density * (centers[1] - centers[0]))
