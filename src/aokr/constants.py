"""Physical constants and scaled-unit conversions for caesium atom optics.

Scaled units throughout the package: time tau = t / T1 (T1 the primary
pulsing period), position phi = 2 k_L x, momentum rho such that one
two-photon recoil (2 hbar k_L) equals kbar.  Energies are reported in
two-photon-recoil units, E = <(rho/kbar)^2> / 2.
"""

import math

HBAR = 1.054571817e-34  # J s
BOLTZMANN = 1.380649e-23  # J / K (exact)

CS_MASS = 132.905451961 * 1.66053906892e-27  # kg, caesium-133
CS_D2_WAVELENGTH = 852.34727582e-9  # m
CS_KL = 2.0 * math.pi / CS_D2_WAVELENGTH  # laser wavenumber, 1/m


def kbar_for_period(t1_us: float) -> float:
    """Effective Planck constant kbar = 4 hbar k_L^2 T1 / m for period T1 (in us)."""
    if t1_us <= 0:
        raise ValueError(f"t1_us: must be positive, got {t1_us}")
    return 4.0 * HBAR * CS_KL**2 * (t1_us * 1e-6) / CS_MASS


def thermal_sigma_recoils(temperature_uk: float) -> float:
    """One-dimensional thermal momentum spread in two-photon-recoil units.

    sigma_n = sqrt(m kB T) / (2 hbar k_L); ~2.51 recoils at 5 uK for caesium.
    """
    if temperature_uk < 0:
        raise ValueError(f"temperature_uk must be >= 0, got {temperature_uk}")
    sigma_p = math.sqrt(CS_MASS * BOLTZMANN * temperature_uk * 1e-6)
    return sigma_p / (2.0 * HBAR * CS_KL)
