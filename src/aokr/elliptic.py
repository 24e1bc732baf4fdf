"""The exact pendulum propagator.

The classical rotor inside a pulse obeys H = rho^2/2 + k cos(phi), a
pendulum whose flow has a closed-form solution in Jacobi elliptic
functions.  Librating rows (m = (E + k)/2k < 1, the stable fixed point
at m = 0 included) run on modulus m and rotating rows on 1/m.  A row's
state already is (sn, cn, dn) of its elliptic argument u0, so one step
evaluates sn, cn, dn once, at u = rate * dtau, and the addition theorem
(DLMF 22.8.1-3) gives the state at u0 + u.  The separatrix (m = 1) takes
the same closed form.

_ellipj evaluates sn, cn, dn in numpy, so no run loads scipy.  Each row
picks its method from its own |u|: the Maclaurin series of sn for
|u| <= 1/16 and descending Landen (the arithmetic-geometric mean)
beyond, with tanh and sech at m = 1.  At default settings about 1 in
10^4 engine row-steps take Landen, and 1 in 100 at psi0 = 0 (|u| < 0.1).
Neither method depends on the other rows of the call, so a row's bits
do not depend on which rows share it.
"""

import numpy as np

# sn(u | m)/u - 1 through u^10 (DLMF 22.10.1) is symmetric in x = u^2 and
# y = m u^2, so it is a polynomial in s = x + y and p = x y:
# s P0(s) + p P1(s) + p^2 P2(s), coefficients highest power first
_SN_P0 = (-1.0 / 39916800.0, 1.0 / 362880.0, -1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)
_SN_P1 = (-11064.0 / 39916800.0, 1224.0 / 362880.0, -132.0 / 5040.0, 12.0 / 120.0)
_SN_P2 = (-132624.0 / 39916800.0, 3024.0 / 362880.0)
# up to |u| = 1/16 the dropped u^13 term is below 1e-18 for every m in [0, 1]
_SERIES_MAX_U = 1.0 / 16.0
# the mean of 1 and sqrt(1 - m) converges to double precision within 9
# levels for every float m < 1; converged levels only halve the amplitude
_AGM_LEVELS = 9


def _wrap_angle(phi):
    """Wrap into [-pi, pi)."""
    return np.mod(phi + np.pi, 2.0 * np.pi) - np.pi


def _horner(coefs, x):
    y = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        y = y * x + c
    return y


def _ellipj_series(u, m):
    """sn, cn, dn for |u| <= 1/16 (so cn, dn > 0) from the series of sn."""
    x = u * u
    y = m * x
    s = x + y
    p = x * y
    sn = u + u * (s * _horner(_SN_P0, s) + p * (_horner(_SN_P1, s) + p * _horner(_SN_P2, s)))
    sn2 = sn * sn
    return sn, np.sqrt(1.0 - sn2), np.sqrt(1.0 - m * sn2)


def _ellipj_agm(u, m):
    """sn, cn, dn for 0 <= m < 1 by descending Landen (DLMF 22.20(ii)).

    The Cephes recursion, with two rewrites that keep it accurate as
    m -> 1: asin(c sin(phi) / a) becomes an atan2 whose cosine leg is
    hypot(a cos(phi), b sin(phi)), since a^2 - c^2 = b^2 on the next
    level, and dn = sqrt(1 - m + m cn^2) has no cancellation where
    dn is small.
    """
    a = np.ones_like(u)
    b = np.sqrt(1.0 - m)
    levels = []
    for _ in range(_AGM_LEVELS):
        a, b, c = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        levels.append((a, b, c))
    phi = 2.0**_AGM_LEVELS * a * u
    for a_i, b_i, c_i in reversed(levels):
        sin, cos = np.sin(phi), np.cos(phi)
        phi = 0.5 * (phi + np.arctan2(c_i * sin, np.hypot(a_i * cos, b_i * sin)))
    cn = np.cos(phi)
    return np.sin(phi), cn, np.sqrt((1.0 - m) + m * cn * cn)


def _ellipj_separatrix(u):
    """sn, cn, dn at m = 1: tanh, sech, sech, with sech finite for every u."""
    e = np.exp(-np.abs(u))
    sech = 2.0 * e / (1.0 + e * e)
    return np.tanh(u), sech, sech


def _ellipj(u, m):
    """Jacobi sn, cn, dn of 1-d float arrays u and m, 0 <= m <= 1.

    Rows with |u| <= 1/16 take the series, the others descending Landen
    (m < 1) or tanh and sech (m = 1); the slower two run only when some
    row needs them.
    """
    far = np.abs(u) > _SERIES_MAX_U
    if not far.any():
        return _ellipj_series(u, m)
    out = np.empty((3, u.size))
    near = ~far
    out[:, near] = _ellipj_series(u[near], m[near])
    separatrix = far & (m == 1.0)
    out[:, separatrix] = _ellipj_separatrix(u[separatrix])
    landen = far & (m < 1.0)
    out[:, landen] = _ellipj_agm(u[landen], m[landen])
    return out


def _pendulum_step_arrays(phi, rho, k, dtau):
    """Exact pendulum flow on 1-d float arrays of one length (dtau may be a
    scalar); see pendulum_step for the contract.  phi must lie in
    (-2 pi, 2 pi], as every engine row does ([-pi, pi])."""
    # free rows (k = 0) run through the closed form as inf/nan and are
    # replaced by free streaming at the end
    with np.errstate(divide="ignore", invalid="ignore"):
        # theta/2 in [-pi/2, pi/2], theta = phi - pi wrapped: the angle from
        # the stable minimum; the same bits as np.mod(phi, 2 pi) on (-2 pi, 2 pi)
        half = 0.5 * (np.where(phi < 0.0, phi + 2.0 * np.pi, phi) - np.pi)
        a = np.sin(half)
        cos_h = np.cos(half)
        # m_lib = sin^2(theta/2) + rho^2/(4k) = (E + k)/(2k), cancellation-free
        k4 = 4.0 * k
        m_lib = a * a + rho * rho / k4
        lib = m_lib < 1.0  # the stable fixed point (m = 0) librates in place
        inv_m = 1.0 / m_lib
        # 2 * rate; rate is sqrt(k) librating, sqrt((E + k)/2) with the sign of rho rotating
        rate2 = np.sqrt(k4) * np.where(lib, 1.0, np.copysign(np.sqrt(m_lib), rho))
        # (a, cos_h, c) is (sn, cn, dn) of u0 at modulus 1/m_lib when the row
        # rotates, and (sqrt(m) sn, dn, sqrt(m) cn) at modulus m_lib when it
        # librates: finite at m = 0.  Swapping the step's cn and dn the same
        # way, with mu = 1 in place of m, gives one addition theorem
        # (DLMF 22.8.1-3) for both.
        c = rho / rate2
        sn, cn, dn = _ellipj(rate2 * (0.5 * dtau), np.minimum(m_lib, inv_m))
        cn, dn = np.where(lib, dn, cn), np.where(lib, cn, dn)
        a_sn = a * sn
        mu_a_sn = np.minimum(inv_m, 1.0) * a_sn
        a1 = a * cn * dn + cos_h * c * sn
        b1 = cos_h * cn - a_sn * c * dn
        c1 = c * dn - mu_a_sn * cos_h * cn
        # the state at u0 + rate * dtau; den > 0 scales a1 and b1 alike
        out_phi = np.mod(2.0 * np.arctan2(a1, b1), 2.0 * np.pi) - np.pi
        out_rho = rate2 * c1 / (1.0 - mu_a_sn * a_sn)
        free = k <= 0.0
        if free.any():
            out_phi = np.where(free, _wrap_angle(phi + rho * dtau), out_phi)
            out_rho = np.where(free, rho, out_rho)
    return out_phi, out_rho


def pendulum_step(phi, rho, k_rate, dtau):
    """Exact evolution of H = rho^2/2 + k_rate cos(phi) for duration dtau.

    Evaluates the Jacobi-elliptic solution on the modulus set by the
    conserved pendulum energy (libration or rotation); phi is returned
    wrapped to [-pi, pi).  Every row, the separatrix included, takes the
    same closed form: sn, cn, dn once at u = rate * dtau and the
    addition theorem.  The inputs broadcast; scalar inputs give 0-d
    results.

    _ellipj is within 1e-12 of 40-digit references up to |u| = 1000 for
    every m in [0, 1].  Near the separatrix a step is still ill-conditioned
    once u passes K, because the rounding of m moves K: against the exact
    solution at 50 digits (k = 100, starts at the bottom with |m - 1| from
    1e-13 to 1e-9) rows agree within 1.4e-13 at u = 6, 7e-11 at u = 12
    and 2e-5 at u = 25.  The engines' default steps keep |u| below 0.1.
    """
    phi, rho, k_rate, dtau = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (phi, rho, k_rate, dtau))
    )
    if np.any(dtau < 0):
        raise ValueError("dtau must be >= 0")
    if np.any(k_rate < 0):
        raise ValueError("k_rate must be >= 0")
    # the kernel reads phi in (-2 pi, 2 pi]: wrap the rows outside it
    outside = np.abs(phi) >= 2.0 * np.pi
    if outside.any():
        phi = np.where(outside, np.mod(phi, 2.0 * np.pi), phi)
    out_phi, out_rho = _pendulum_step_arrays(*(x.ravel() for x in (phi, rho, k_rate, dtau)))
    return out_phi.reshape(phi.shape), out_rho.reshape(phi.shape)
