"""Observables: energies, zero-velocity fractions, lineshape classes, spectra.

Momentum is everywhere in two-photon-recoil units (rho / kbar); energy is
<n^2>/2 in those units.  Both engines hand over per-trajectory momenta: a
sample per classical trajectory, a ladder weighted by its normalised
populations per quantum one.  trajectory_energies reduces them to
energies and MomentumDistribution.from_samples bins them, alike for
both.  This module imports no engine.
"""

import math
from dataclasses import dataclass

import numpy as np

LINESHAPE_EXPONENTIAL = "exponential"
LINESHAPE_GAUSSIAN = "gaussian"
LINESHAPE_UNDETERMINED = "undetermined"

DEFAULT_BIN_WIDTH = 0.5
DEFAULT_EPSILON = 1.0
FIT_MARGIN = 1.2
FIT_FLOOR = 1e-4


def momentum_bin_grid(bin_width: float, half_range: float):
    """Uniform bins with one bin centred on zero covering +-half_range.

    Returns (centers, edges).
    """
    if bin_width <= 0:
        raise ValueError(f"bin_width: must be positive, got {bin_width}")
    n_half = int(math.ceil(half_range / bin_width))
    centers = np.arange(-n_half, n_half + 1) * bin_width
    edges = (np.arange(-n_half, n_half + 2) - 0.5) * bin_width
    return centers, edges


@dataclass(frozen=True)
class MomentumDistribution:
    """Normalised histogram on a uniform momentum grid."""

    bin_centers: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.bin_centers, dtype=float)
        m = np.asarray(self.masses, dtype=float)
        if c.ndim != 1 or c.shape != m.shape or c.size < 2:
            raise ValueError("bin_centers and masses must be matching 1-d arrays")
        steps = np.diff(c)
        if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
            raise ValueError("bin grid must be uniform")
        if np.any(m < -1e-15):
            raise ValueError("masses must be non-negative")
        total = m.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1 within 1e-9, got {total}")
        object.__setattr__(self, "bin_centers", c)
        object.__setattr__(self, "masses", np.clip(m, 0.0, None))

    @property
    def bin_width(self) -> float:
        return float(self.bin_centers[1] - self.bin_centers[0])

    @classmethod
    def from_samples(cls, values, bin_width: float = DEFAULT_BIN_WIDTH, weights=None):
        """Histogram of one row per trajectory: a classical engine's final
        momenta, or a quantum engine's ladders n + q_i/kbar weighted by their
        normalised populations.

        Half-open bins of momentum_bin_grid(bin_width, max|value| +
        bin_width); masses are the summed weights over len(values), the
        trajectory count.  One bincount adds the entries in row order, so
        both tails keep their mass alike; and as no two entries of a ladder
        (one recoil apart) share a bin of width <= 1, each mass is exactly
        what folding the rows' own histograms one at a time would give.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("no samples")
        centers, edges = momentum_bin_grid(bin_width, float(np.max(np.abs(values))) + bin_width)
        idx = np.searchsorted(edges, values.ravel(), side="right")
        idx -= 1
        if weights is not None:
            weights = np.ravel(weights)
        sums = np.bincount(idx, weights, minlength=len(centers))
        return cls(bin_centers=centers, masses=sums / len(values))

    def save_csv(self, path):
        w = self.bin_width
        with open(path, "w") as fh:
            fh.write("# units: momentum=two-photon-recoils density=per-recoil\n")
            fh.write("bin_center,probability_density\n")
            for c, m in zip(self.bin_centers, self.masses):
                fh.write(f"{c:.17g},{m / w:.17g}\n")


def trajectory_energies(momenta, weights=None) -> np.ndarray:
    """Each trajectory's <n^2>/2: a classical sample's n^2/2, or a quantum
    row's mean over its ladder weighted by its normalised populations."""
    e = np.square(np.asarray(momenta, dtype=float))
    if weights is None:
        return 0.5 * e
    e *= weights
    return 0.5 * e.sum(axis=1)


def energy(momenta, weights=None) -> float:
    """Mean kinetic energy <n^2>/2 over the trajectories."""
    e = trajectory_energies(momenta, weights)
    if e.size == 0:
        raise ValueError("energy of an empty sample set is undefined")
    return float(np.mean(e))


def energy_stderr(momenta, weights=None) -> float:
    """Standard error of energy(momenta, weights)."""
    return mean_stderr(trajectory_energies(momenta, weights))


def mean_stderr(per_trajectory_values) -> float:
    values = np.asarray(per_trajectory_values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two trajectories for a standard error")
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def zero_velocity_fraction(dist: MomentumDistribution, epsilon: float = DEFAULT_EPSILON) -> float:
    """Probability mass within [-epsilon, epsilon], partial bins pro-rated."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    w = dist.bin_width
    lo = dist.bin_centers - 0.5 * w
    hi = dist.bin_centers + 0.5 * w
    overlap = np.clip(np.minimum(hi, epsilon) - np.maximum(lo, -epsilon), 0.0, w)
    return float(np.sum(dist.masses * overlap / w))


@dataclass(frozen=True)
class LineshapeReport:
    """Exponential-vs-Gaussian verdict with the fit evidence."""

    lineshape_class: str
    residual_exponential: float
    residual_gaussian: float
    fitted_width: float


def classify_lineshape(dist: MomentumDistribution) -> LineshapeReport:
    """Fit log-density linear in |n| (exponential) and in n^2 (Gaussian).

    Both fits run over bins above FIT_FLOOR of the peak; the class is
    decided only when one RMS residual beats the other by the factor
    FIT_MARGIN.  Scale-invariant: rescaling masses shifts only the intercepts.
    Fewer than 20 nonempty bins fit nothing: the report is undetermined,
    its residuals and width NaN.
    """
    nonempty = dist.masses > 0
    if int(nonempty.sum()) < 20:
        return LineshapeReport(LINESHAPE_UNDETERMINED, math.nan, math.nan, math.nan)
    peak = dist.masses.max()
    mask = nonempty & (dist.masses >= FIT_FLOOR * peak)
    n = dist.bin_centers[mask]
    y = np.log(dist.masses[mask])

    def fit(feature):
        a = np.column_stack([np.ones_like(feature), feature])
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        resid = y - a @ coef
        return coef[1], float(np.sqrt(np.mean(resid**2)))

    slope_exp, resid_exp = fit(np.abs(n))
    slope_gauss, resid_gauss = fit(n**2)

    # the tiny floor keeps machine-noise residuals (both fits "perfect",
    # e.g. a flat distribution) from producing a spurious verdict
    tiny = 1e-12
    if (resid_exp + tiny) * FIT_MARGIN < resid_gauss + tiny:
        cls = LINESHAPE_EXPONENTIAL
    elif (resid_gauss + tiny) * FIT_MARGIN < resid_exp + tiny:
        cls = LINESHAPE_GAUSSIAN
    else:
        cls = LINESHAPE_UNDETERMINED

    if cls == LINESHAPE_GAUSSIAN or (cls == LINESHAPE_UNDETERMINED and resid_gauss < resid_exp):
        width = math.sqrt(-0.5 / slope_gauss) if slope_gauss < 0 else math.inf
    else:
        width = -1.0 / slope_exp if slope_exp < 0 else math.inf
    return LineshapeReport(
        lineshape_class=cls,
        residual_exponential=resid_exp,
        residual_gaussian=resid_gauss,
        fitted_width=width,
    )


def dominant_phase_frequency(psi0_grid_deg, energies):
    """Strongest nonzero frequency of E(psi0), in cycles per degree.

    The grid must be uniform with at least 16 points.  Returns None when
    the detrended spectrum has no peak above the numerical floor (flat
    signal).
    """
    grid = np.asarray(psi0_grid_deg, dtype=float)
    e = np.asarray(energies, dtype=float)
    if grid.ndim != 1 or grid.shape != e.shape:
        raise ValueError("grid and energies must be matching 1-d arrays")
    if grid.size < 16:
        raise ValueError("need at least 16 sweep points")
    steps = np.diff(grid)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * abs(steps[0])):
        raise ValueError("psi0 grid must be uniform")
    spectrum = np.fft.rfft(e - e.mean())
    mags = np.abs(spectrum[1:])
    floor = 1e-10 * max(1.0, float(np.max(np.abs(e))))
    if mags.size == 0 or mags.max() <= floor:
        return None
    k = int(np.argmax(mags)) + 1
    return k / (grid.size * float(steps[0]))
