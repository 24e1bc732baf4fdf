"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: pulse
areas come from scipy's adaptive quadrature of the envelope function,
pulse edges from brentq on an independently written envelope, the
pendulum step from DOP853 on its equations of motion, and the quantum
step from dense matrix exponentiation in the ladder basis.
"""

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import erf

from aokr.elliptic import _wrap_angle


def envelope_area_quadrature(envelope, lo: float, hi: float) -> float:
    """Adaptive quadrature of a pulse envelope over [lo, hi]."""
    mid = 0.5 * (lo + hi)
    a1, _ = quad(lambda t: float(envelope(t)), lo, mid, epsabs=1e-12, epsrel=1e-12, limit=400)
    a2, _ = quad(lambda t: float(envelope(t)), mid, hi, epsabs=1e-12, epsrel=1e-12, limit=400)
    return a1 + a2


def brentq_threshold_window(rise: float, fall: float, fwhm: float, thr: float):
    """(on, off) offsets from the pulse centre where the unclamped unit erf
    envelope crosses thr: each bracket grows outward from its half-maximum
    point in steps of the edge's width, then brentq finds the crossing."""

    def above(t):
        up = erf((t + 0.5 * fwhm) * math.sqrt(math.pi) / rise) if rise > 0 else np.sign(t + 0.5 * fwhm)
        down = erf((t - 0.5 * fwhm) * math.sqrt(math.pi) / fall) if fall > 0 else np.sign(t - 0.5 * fwhm)
        return 0.5 * (up - down) - thr

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
