"""The exact pendulum propagator.

The classical rotor inside a pulse obeys H = rho^2/2 + k cos(phi), a
pendulum whose flow has a closed-form solution in Jacobi elliptic
functions.  Librating rows (m = (E + k)/2k < 1, the stable fixed point
at m = 0 included) run on modulus m and rotating rows on 1/m.  A row's
state already is (sn, cn, dn) of its elliptic argument u0, so one step
makes a single scipy.special.ellipj call at u = rate * dtau and the
addition theorem (DLMF 22.8.1-3) gives the state at u0 + u.

The same closed form holds at the separatrix: m = 1 runs through
ellipj(u, 1) = (tanh, sech, sech).  The Cephes ellipj behind scipy
switches to an approximation for m >= 1 - 1e-10 that is badly wrong
near u ~ K (at 1 - m = 1e-10 it gives cn(2K) = -2 instead of -1), but
it is accurate at small u, and a step only evaluates it at u = rate *
dtau, never at u0, so no row needs another integrator.

ellipj is imported on the classical path only, inside the kernel, so a
quantum-only run loads no scipy; a run with the classical engine loads
scipy.special in the parent before its worker pool forks (runner.run),
so the workers inherit it instead of each importing it again.

All functions accept scalars or numpy arrays and broadcast; scalar
inputs give 0-d results.
"""

import numpy as np


def _as_float_array(x):
    return np.asarray(x, dtype=float)


def _wrap_angle(phi):
    """Wrap into [-pi, pi)."""
    return np.mod(phi + np.pi, 2.0 * np.pi) - np.pi


def _pendulum_step_arrays(phi, rho, k_rate, dtau):
    """Exact pendulum flow on arrays; see pendulum_step for the contract."""
    from scipy.special import ellipj  # a dict lookup once scipy.special is loaded

    phi, rho, k, dt = np.broadcast_arrays(*map(_as_float_array, (phi, rho, k_rate, dtau)))
    free = k <= 0.0
    # free rows (k = 0) run through the closed form as inf/nan and are
    # replaced by free streaming at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        half = 0.5 * _wrap_angle(phi - np.pi)  # theta/2, theta from the stable minimum
        w = np.sqrt(k)
        a = np.sin(half)
        cos_h = np.cos(half)
        # m_lib = sin^2(theta/2) + rho^2/(4k) = (E + k)/(2k), cancellation-free
        m_lib = a**2 + rho**2 / (4.0 * k)
        lib = m_lib < 1.0  # the stable fixed point (m = 0) librates in place
        root_m = np.sqrt(m_lib)
        s = np.where(rho < 0.0, -1.0, 1.0)
        # (a, b, c) is (sn, cn, dn) of u0.  Rotation (modulus mu = 1/m_lib,
        # the separatrix m = 1 included) holds sin(theta/2), cos(theta/2) and
        # |rho|/(2 sqrt(k m_lib)).  Libration (modulus m_lib) holds sqrt(m) sn,
        # sqrt(m) cn and dn = sin(theta/2), rho/(2 sqrt k) and cos(theta/2):
        # finite at m = 0, and the m in the addition formulas becomes mu = 1
        b = np.where(lib, rho / (2.0 * w), cos_h)
        c = np.where(lib, cos_h, np.abs(rho) / (2.0 * w * root_m))
        mu = np.where(lib, 1.0, 1.0 / m_lib)
        rate = np.where(lib, w, s * w * root_m)  # rotation: sqrt((E + k)/2)
        sn, cn, dn, _ = ellipj(rate * dt, np.where(lib, m_lib, mu))
        # addition theorem, DLMF 22.8.1-3: the state at u0 + rate * dt
        den = 1.0 - mu * (a * sn) ** 2
        a1 = (a * cn * dn + b * c * sn) / den
        b1 = (b * cn - a * c * sn * dn) / den
        c1 = (c * dn - mu * a * b * sn * cn) / den
        # read theta/2 and rho back as the start state was written
        theta1 = 2.0 * np.arctan2(a1, np.where(lib, c1, b1))
        out_phi = np.where(free, _wrap_angle(phi + rho * dt), _wrap_angle(theta1 + np.pi))
        out_rho = np.where(free, rho, 2.0 * w * np.where(lib, b1, s * root_m * c1))
    return out_phi, out_rho


def pendulum_step(phi, rho, k_rate, dtau):
    """Exact evolution of H = rho^2/2 + k_rate cos(phi) for duration dtau.

    Evaluates the Jacobi-elliptic solution on the modulus set by the
    conserved pendulum energy (libration or rotation); phi is returned
    wrapped to [-pi, pi).  Every row, the separatrix included, takes the
    same closed form: one ellipj call at rate * dtau and the addition
    theorem.

    Near the separatrix the accuracy depends on u = rate * dtau.  Against
    per-row DOP853 (k = 100, starts at the bottom with |m - 1| from 1e-13
    to 1e-9) rows agree within 1e-13 for u <= 1.3, but only within 5.6e-9
    at u = 12, near K ~ 12.9 at 1 - m = 1e-10, where Cephes ellipj
    switches to its m -> 1 approximation.  The engines' grid steps keep u
    at a few hundredths.
    """
    if np.any(_as_float_array(dtau) < 0):
        raise ValueError("dtau must be >= 0")
    if np.any(_as_float_array(k_rate) < 0):
        raise ValueError("k_rate must be >= 0")
    return _pendulum_step_arrays(phi, rho, k_rate, dtau)
