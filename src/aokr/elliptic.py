"""The exact pendulum propagator.

The classical rotor inside a pulse obeys H = rho^2/2 + k cos(phi), a
pendulum whose flow has a closed-form solution in Jacobi elliptic
functions.  scipy.special supplies the elliptic numerics: K(m) from
ellipk, the incomplete integral F(phi | m) that inverts the initial
condition from ellipkinc, and sn/cn/dn from ellipj.

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
# closed-form branches are replaced by the stepped reference integrator.
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
    phi, rho, k, dt = np.broadcast_arrays(
        _as_float_array(phi),
        _as_float_array(rho),
        _as_float_array(k_rate),
        _as_float_array(dtau),
    )
    phi = np.array(phi, dtype=float)
    rho = np.array(rho, dtype=float)
    k = np.array(k, dtype=float)
    dt = np.array(dt, dtype=float)
    out_phi = np.empty_like(phi)
    out_rho = np.empty_like(rho)

    free = k <= 0.0
    if np.any(free):
        out_phi[free] = _wrap_angle(phi[free] + rho[free] * dt[free])
        out_rho[free] = rho[free]

    act = ~free
    if not np.any(act):
        return out_phi, out_rho

    ph = phi[act]
    rh = rho[act]
    ka = k[act]
    dta = dt[act]
    theta = _wrap_angle(ph - np.pi)  # angle from the stable minimum
    omega = np.sqrt(ka)
    half = 0.5 * theta
    # m_lib = sin^2(theta/2) + rho^2/(4k) = (E + k)/(2k), cancellation-free
    m_lib = np.sin(half) ** 2 + rh**2 / (4.0 * ka)

    res_phi = np.empty_like(ph)
    res_rho = np.empty_like(rh)

    near_sep = np.abs(m_lib - 1.0) <= SEPARATRIX_TOL
    fixed = m_lib == 0.0
    lib = (m_lib < 1.0) & ~near_sep & ~fixed
    rot = (m_lib > 1.0) & ~near_sep

    if np.any(fixed):
        res_phi[fixed] = _wrap_angle(ph[fixed])
        res_rho[fixed] = rh[fixed]

    if np.any(lib):
        m = m_lib[lib]
        w = omega[lib]
        root_m = np.sqrt(m)
        # start amplitude from both sin(theta/2) and |rho|/(2 sqrt k): well conditioned as sn -> 1
        u0 = ellipkinc(np.arctan2(np.sin(half[lib]), np.abs(rh[lib]) / (2.0 * w)), m)
        K = ellipk(m)
        neg = rh[lib] < 0.0
        u0 = np.where(neg, 2.0 * K - u0, u0)
        u1 = u0 + w * dta[lib]
        period = 4.0 * K
        u1 = u1 - period * np.floor(u1 / period)
        sn1, cn1, _, _ = ellipj(u1, m)
        theta1 = 2.0 * np.arcsin(np.clip(root_m * sn1, -1.0, 1.0))
        res_phi[lib] = _wrap_angle(theta1 + np.pi)
        res_rho[lib] = 2.0 * root_m * w * cn1

    if np.any(rot):
        m = 1.0 / m_lib[rot]
        w = omega[rot]
        rate = w / np.sqrt(m)  # = sqrt((E + k)/2)
        s = np.where(rh[rot] < 0.0, -1.0, 1.0)
        u0 = ellipkinc(half[rot], m)
        u1 = u0 + s * rate * dta[rot]
        K = ellipk(m)
        period = 4.0 * K
        u1 = u1 - period * np.floor(u1 / period)
        sn1, cn1, dn1, _ = ellipj(u1, m)
        res_phi[rot] = _wrap_angle(2.0 * np.arctan2(sn1, cn1) + np.pi)
        res_rho[rot] = s * 2.0 * w / np.sqrt(m) * dn1

    # one solve per row: a shared adaptive step would make a row's result
    # depend on which rows share its chunk
    for i in np.flatnonzero(near_sep):
        res_phi[i], res_rho[i] = pendulum_step_reference(ph[i], rh[i], ka[i], dta[i])

    out_phi[act] = res_phi
    out_rho[act] = res_rho
    return out_phi, out_rho


def pendulum_step(phi, rho, k_rate, dtau):
    """Exact evolution of H = rho^2/2 + k_rate cos(phi) for duration dtau.

    Selects the libration or rotation branch from the conserved pendulum
    energy and evaluates the Jacobi-elliptic solution; phi is returned
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
