import math

import numpy as np
import pytest

from aokr.analysis import (
    LINESHAPE_EXPONENTIAL,
    LINESHAPE_GAUSSIAN,
    LINESHAPE_UNDETERMINED,
    MomentumDistribution,
    classify_lineshape,
    dominant_phase_frequency,
    energy,
    energy_stderr,
    mean_stderr,
    momentum_bin_grid,
    zero_velocity_fraction,
)
from oracles import dist_energy, load_dist_csv


def dist_from_masses(centers, masses):
    masses = np.asarray(masses, dtype=float)
    return MomentumDistribution(bin_centers=np.asarray(centers, float), masses=masses / masses.sum())


class TestDistribution:
    def test_normalisation_enforced(self):
        with pytest.raises(ValueError):
            MomentumDistribution(np.array([0.0, 0.5]), np.array([0.7, 0.2]))

    def test_uniform_grid_enforced(self):
        with pytest.raises(ValueError):
            MomentumDistribution(np.array([0.0, 0.5, 1.7]), np.array([0.3, 0.3, 0.4]))

    def test_from_samples_covers_all(self):
        rng = np.random.default_rng(0)
        # bin edges lie at odd multiples of 0.25; include some of them exactly
        edges_hit = np.array([-7.25, -0.25, 0.25, 0.75, 4.75])
        values = np.concatenate([rng.normal(0, 3, 1000), edges_hit])
        dist = MomentumDistribution.from_samples(values, 0.5)
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)
        _, edges = momentum_bin_grid(0.5, dist.bin_centers[-1])
        counts, _ = np.histogram(values, bins=edges)
        assert np.array_equal(dist.masses, counts / values.size)

    def test_csv_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        dist = MomentumDistribution.from_samples(rng.normal(0, 2, 500), 0.5)
        path = tmp_path / "dist.csv"
        dist.save_csv(path)
        back = load_dist_csv(path)
        assert np.allclose(back.bin_centers, dist.bin_centers)
        assert np.allclose(back.masses, dist.masses, atol=1e-15)

    def test_bin_grid_symmetric(self):
        centers, edges = momentum_bin_grid(0.5, 3.0)
        assert centers[0] == -centers[-1]
        assert 0.0 in centers
        assert len(edges) == len(centers) + 1


class TestEnergy:
    def test_all_mass_at_zero(self):
        d = dist_from_masses([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
        assert dist_energy(d) == 0.0

    def test_equal_masses_at_unit(self):
        d = dist_from_masses([-1.0, 0.0, 1.0], [0.5, 0.0, 0.5])
        assert dist_energy(d) == pytest.approx(0.5)

    def test_gaussian_samples(self):
        rng = np.random.default_rng(2)
        sigma = 2.51
        values = rng.normal(0, sigma, 200000)
        assert energy(values) == pytest.approx(sigma**2 / 2, rel=0.01)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            energy(np.array([]))

    def test_histogram_energy_close_to_sample_energy(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 4, 100000)
        w = 0.5
        d = MomentumDistribution.from_samples(values, w)
        assert abs(dist_energy(d) - energy(values)) <= w**2 / 24 + 0.05

    def test_sample_energy_is_half_the_mean_square_bitwise(self):
        # classical rows reduce as np.mean(n^2)/2 and mean_stderr(n^2/2)
        # did before energy() served them, so their outputs keep every bit
        rng = np.random.default_rng(5)
        for size in (2, 3, 64, 1000, 10001):
            m = rng.normal(0, 7, size)
            assert energy(m) == np.mean(m**2) / 2
            assert energy_stderr(m) == mean_stderr(m**2 / 2.0)

    def test_weighted_ladder_rows_by_hand(self):
        # row 0 sits at integer momenta, row 1 is offset by q/kbar = 0.3:
        # <n^2>/2 = 0.5 (0.25 + 0.25) = 0.25 and
        # 0.5 (0.1 * 0.49 + 0.6 * 0.09 + 0.3 * 1.69) = 0.305
        momenta = np.array([[-1.0, 0.0, 1.0], [-0.7, 0.3, 1.3]])
        weights = np.array([[0.25, 0.5, 0.25], [0.1, 0.6, 0.3]])
        assert energy(momenta, weights) == pytest.approx(0.2775, rel=1e-14)
        # two rows: the standard error is half their difference
        assert energy_stderr(momenta, weights) == pytest.approx(0.0275, rel=1e-12)

    def test_stderr_scaling(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, 10000)
        se = energy_stderr(values)
        # var(n^2/2) = 1/2 for unit normal
        assert se == pytest.approx(math.sqrt(0.5 / 10000), rel=0.1)


class TestZeroVelocityFraction:
    def test_uniform_distribution(self):
        # uniform on [-W/2, W/2]: fraction = 2 eps / W
        centers, _ = momentum_bin_grid(0.5, 10.0)
        masses = np.where(np.abs(centers) <= 9.75, 1.0, 0.0)
        d = dist_from_masses(centers, masses)
        width = len(masses[masses > 0]) * 0.5
        eps = 2.0
        assert zero_velocity_fraction(d, eps) == pytest.approx(2 * eps / width, rel=1e-9)

    def test_epsilon_covers_support(self):
        d = dist_from_masses([-0.5, 0.0, 0.5], [0.2, 0.6, 0.2])
        assert zero_velocity_fraction(d, 5.0) == pytest.approx(1.0)

    def test_exponential_closed_form(self):
        scale = 5.0
        rng = np.random.default_rng(5)
        d = MomentumDistribution.from_samples(rng.laplace(0, scale, 400000), 0.25)
        assert zero_velocity_fraction(d, scale) == pytest.approx(1 - math.exp(-1), abs=0.01)

    def test_monotone_in_epsilon(self):
        rng = np.random.default_rng(6)
        d = MomentumDistribution.from_samples(rng.normal(0, 3, 20000), 0.5)
        eps = np.linspace(0.1, 20, 40)
        fracs = [zero_velocity_fraction(d, e) for e in eps]
        assert np.all(np.diff(fracs) >= -1e-12)
        assert fracs[-1] == pytest.approx(1.0, abs=1e-9)

    def test_epsilon_validation(self):
        d = dist_from_masses([-0.5, 0.0, 0.5], [0.2, 0.6, 0.2])
        with pytest.raises(ValueError):
            zero_velocity_fraction(d, 0.0)


class TestLineshape:
    def test_synthetic_exponential(self):
        rng = np.random.default_rng(7)
        d = MomentumDistribution.from_samples(rng.laplace(0, 5, 100000), 0.5)
        assert classify_lineshape(d).lineshape_class == LINESHAPE_EXPONENTIAL

    def test_synthetic_gaussian(self):
        rng = np.random.default_rng(8)
        d = MomentumDistribution.from_samples(rng.normal(0, 12, 100000), 0.5)
        assert classify_lineshape(d).lineshape_class == LINESHAPE_GAUSSIAN

    def test_flat_is_undetermined(self):
        centers, _ = momentum_bin_grid(0.5, 8.0)
        masses = np.ones_like(centers)
        d = dist_from_masses(centers, masses)
        assert classify_lineshape(d).lineshape_class == LINESHAPE_UNDETERMINED

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        values = rng.laplace(0, 4, 50000)
        d1 = MomentumDistribution.from_samples(values, 0.5)
        report1 = classify_lineshape(d1)
        # same masses scaled before renormalisation give the same class
        scaled = MomentumDistribution(d1.bin_centers, (d1.masses * 7.3) / (d1.masses * 7.3).sum())
        report2 = classify_lineshape(scaled)
        assert report1.lineshape_class == report2.lineshape_class
        assert report1.fitted_width == pytest.approx(report2.fitted_width, rel=1e-9)

    def test_width_estimates(self):
        rng = np.random.default_rng(10)
        d = MomentumDistribution.from_samples(rng.normal(0, 12, 300000), 0.5)
        report = classify_lineshape(d)
        assert report.fitted_width == pytest.approx(12.0, rel=0.1)

    def test_too_few_bins_is_undetermined(self):
        d = dist_from_masses([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
        report = classify_lineshape(d)
        assert report.lineshape_class == LINESHAPE_UNDETERMINED
        assert math.isnan(report.residual_exponential)
        assert math.isnan(report.residual_gaussian)
        assert math.isnan(report.fitted_width)


class TestDominantPhaseFrequency:
    def test_synthetic_sinusoid(self):
        grid = np.arange(0.0, 360.0, 5.0)
        energies = np.sin(2 * np.pi * grid / 70.0)
        freq = dominant_phase_frequency(grid, energies)
        # nearest representable grid frequency to 1/70 per degree
        k = round(len(grid) * 5.0 / 70.0)
        assert freq == pytest.approx(k / (len(grid) * 5.0))
        assert freq == pytest.approx(1 / 70.0, rel=0.08)

    def test_constant_signal_flagged(self):
        grid = np.arange(0.0, 360.0, 5.0)
        assert dominant_phase_frequency(grid, np.full_like(grid, 3.7)) is None

    def test_non_uniform_grid_rejected(self):
        grid = np.array([0.0, 5.0, 11.0, 15.0] + list(np.arange(20.0, 80.0, 5.0)))
        with pytest.raises(ValueError):
            dominant_phase_frequency(grid, np.zeros_like(grid))

    def test_needs_sixteen_points(self):
        grid = np.arange(0.0, 50.0, 5.0)
        with pytest.raises(ValueError):
            dominant_phase_frequency(grid, np.zeros_like(grid))
