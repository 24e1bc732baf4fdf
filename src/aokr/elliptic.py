"""The exact pendulum propagator.

The classical rotor inside a pulse obeys H = rho^2/2 + k cos(phi), a
pendulum whose flow has a closed-form solution in Jacobi elliptic
functions.  Librating rows (m = (E + k)/2k < 1, the stable fixed point
at m = 0 included) run on modulus m and rotating rows on 1/m, all
through one call each of scipy.special's ellipkinc (F(phi | m), which
inverts the initial condition), ellipk (K(m)) and ellipj (sn/cn/dn).

Within SEPARATRIX_TOL of the separatrix the closed form is not used.
The Cephes ellipj behind scipy switches to an approximation for
m >= 1 - 1e-10 that is badly wrong away from small u (at 1 - m = 1e-10
it gives cn(2K) = -2 instead of -1), so the band is 1e-9 wide, clear of
that switch, and its rows are integrated one at a time by DOP853.

All functions accept scalars or numpy arrays and broadcast.
"""

import numpy as np
from scipy.special import ellipj, ellipk, ellipkinc

# Energy window (relative to the separatrix energy) inside which the
# closed form is replaced by the stepped reference integrator.
# It must stay wider than the 1e-10 window where Cephes ellipj switches
# to its m -> 1 approximation.
SEPARATRIX_TOL = 1e-9


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _wrap_angle(phi):
    """Wrap into [-pi, pi)."""
    return np.mod(phi + np.pi, 2.0 * np.pi) - np.pi


def pendulum_step_reference(phi, rho, k_rate, dtau):
    """Stepped reference propagator for H = rho^2/2 + k cos(phi).

    Adaptive 8th-order explicit Runge-Kutta (DOP853) at local tolerance
    1e-12.  Used as the test oracle for the closed-form step and as the
    fallback in the immediate neighbourhood of the separatrix.
    """
    out_phi, out_rho = _pendulum_reference_batch(
        np.atleast_1d(_as_float_array(phi)),
        np.atleast_1d(_as_float_array(rho)),
        np.atleast_1d(_as_float_array(k_rate)),
        np.atleast_1d(_as_float_array(dtau)),
    )
    if np.ndim(phi) == 0:
        return float(out_phi[0]), float(out_rho[0])
    return out_phi, out_rho


def _pendulum_reference_batch(phi, rho, k_rate, dtau):
    """Vectorised DOP853 reference: many independent pendula in one system.

    Per-element durations are absorbed by rescaling time to s in [0, 1],
    dy_i/ds = dtau_i * f(y_i), so a single adaptive solve covers all rows.
    """
    from scipy.integrate import solve_ivp

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


def _pendulum_step_arrays(phi, rho, k_rate, dtau):
    """Exact pendulum flow on arrays; see pendulum_step for the contract."""
    phi, rho, k, dt = np.broadcast_arrays(*map(_as_float_array, (phi, rho, k_rate, dtau)))
    free = k <= 0.0
    # free rows (k = 0) run through the closed form as inf/nan and are
    # replaced by free streaming at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * _wrap_angle(phi - np.pi)  # theta/2, theta from the stable minimum
        w = np.sqrt(k)
        # m_lib = sin^2(theta/2) + rho^2/(4k) = (E + k)/(2k), cancellation-free
        m_lib = np.sin(half) ** 2 + rho**2 / (4.0 * k)
        band = ~free & (np.abs(m_lib - 1.0) <= SEPARATRIX_TOL)
        lib = m_lib < 1.0  # the stable fixed point (m = 0) librates in place
        m = np.where(lib, m_lib, 1.0 / m_lib)
        root_m = np.sqrt(m)
        neg = rho < 0.0
        s = np.where(neg, -1.0, 1.0)
        # libration start amplitude from both sin(theta/2) and |rho|/(2 sqrt k):
        # well conditioned as sn -> 1; rotation starts from theta/2 itself
        amp = np.where(lib, np.arctan2(np.sin(half), np.abs(rho) / (2.0 * w)), half)
        u0 = ellipkinc(amp, m)
        K = ellipk(m)
        u0 = np.where(lib & neg, 2.0 * K - u0, u0)
        rate = np.where(lib, w, s * (w / root_m))  # rotation: sqrt((E + k)/2)
        u1 = u0 + rate * dt
        period = 4.0 * K
        u1 = u1 - period * np.floor(u1 / period)
        sn1, cn1, dn1, _ = ellipj(u1, m)
        theta1 = np.where(
            lib, 2.0 * np.arcsin(np.clip(root_m * sn1, -1.0, 1.0)), 2.0 * np.arctan2(sn1, cn1)
        )
        out_phi = np.where(free, _wrap_angle(phi + rho * dt), _wrap_angle(theta1 + np.pi))
        out_rho = np.where(
            free, rho, np.where(lib, 2.0 * root_m * w * cn1, s * 2.0 * w / root_m * dn1)
        )

    # one solve per row: a shared adaptive step would make a row's result
    # depend on which rows share its chunk
    for i in np.flatnonzero(band):
        out_phi.flat[i], out_rho.flat[i] = pendulum_step_reference(
            phi.flat[i], rho.flat[i], k.flat[i], dt.flat[i]
        )
    return out_phi, out_rho


def pendulum_step(phi, rho, k_rate, dtau):
    """Exact evolution of H = rho^2/2 + k_rate cos(phi) for duration dtau.

    Evaluates the Jacobi-elliptic solution on the modulus set by the
    conserved pendulum energy (libration or rotation); phi is returned
    wrapped to [-pi, pi).  Within SEPARATRIX_TOL of the separatrix energy
    the stepped reference integrator is used instead, one row at a time.
    """
    if np.any(_as_float_array(dtau) < 0):
        raise ValueError("dtau must be >= 0")
    if np.any(_as_float_array(k_rate) < 0):
        raise ValueError("k_rate must be >= 0")
    scalar = all(np.ndim(x) == 0 for x in (phi, rho, k_rate, dtau))
    if scalar:
        p, r = _pendulum_step_arrays(
            np.asarray([phi]), np.asarray([rho]), np.asarray([k_rate]), dtau
        )
        return float(p[0]), float(r[0])
    return _pendulum_step_arrays(phi, rho, k_rate, dtau)
