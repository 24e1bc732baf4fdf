import math

import numpy as np
import pytest

from aokr.classical_sim import (
    EnsembleParams,
    run_classical_ensemble,
    sample_initial_classical,
)
from aokr.constants import kbar_for_period, thermal_sigma_recoils
from aokr.elliptic import _wrap_angle, pendulum_step
from aokr.pulse_train import PulseShapeParams, ResultantPulse, build_train_spec, resolve_timeline
from aokr.streams import ENGINE_CLASSICAL, trajectory_stream
from oracles import evolve_pulse, single_train_spec

KBAR = 3.12


def params_with(**kw):
    defaults = dict(kbar=KBAR, temperature_uk=5.0, cloud_sigma_mm=0.0, rng_seed=0)
    defaults.update(kw)
    return EnsembleParams(**defaults)


class TestUnits:
    def test_kbar_at_thirty_microseconds(self):
        assert abs(kbar_for_period(30.0) - 3.12) < 0.01

    def test_thermal_spread_at_five_microkelvin(self):
        assert thermal_sigma_recoils(5.0) == pytest.approx(2.51, abs=0.01)


class TestInitialSampling:
    def test_thermal_width(self):
        params = params_with()
        rng = np.random.default_rng(1)
        _, rho, _ = np.array([sample_initial_classical(params, rng) for _ in range(20000)]).T
        sigma = np.std(rho / KBAR)
        assert sigma == pytest.approx(params.sigma_n, rel=0.03)

    def test_point_cloud_gives_unit_kick_factor(self):
        params = params_with(cloud_sigma_mm=0.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            _, _, kick_factor = sample_initial_classical(params, rng)
            assert kick_factor == 1.0

    def test_zero_temperature_starts_at_rest(self):
        params = params_with(temperature_uk=0.0)
        rng = np.random.default_rng(3)
        for _ in range(100):
            _, rho, _ = sample_initial_classical(params, rng)
            assert rho == 0.0

    def test_phi_uniform_in_principal_interval(self):
        params = params_with()
        rng = np.random.default_rng(4)
        phis, _, _ = np.array([sample_initial_classical(params, rng) for _ in range(5000)]).T
        assert np.all((phis >= -np.pi) & (phis < np.pi))
        assert abs(np.mean(phis)) < 0.1

    def test_beam_average_kick_factor(self):
        # <f> = 1/sqrt(1 + sigma_c^2/sigma_b^2) for f = exp(-x^2/(2 sb^2))
        params = params_with(cloud_sigma_mm=0.5, beam_sigma_mm=0.72)
        rng = np.random.default_rng(5)
        _, _, f = np.array([sample_initial_classical(params, rng) for _ in range(40000)]).T
        expected = 1.0 / math.sqrt(1.0 + (0.5 / 0.72) ** 2)
        assert np.mean(f) == pytest.approx(expected, rel=0.02)
        assert np.all((f > 0) & (f <= 1))

    def test_sublevel_factors_drawn(self):
        params = params_with(sublevel_factors=((0.5, 1.0), (1.0, 3.0)))
        rng = np.random.default_rng(6)
        _, _, f = np.array([sample_initial_classical(params, rng) for _ in range(8000)]).T
        frac_half = np.mean(f == 0.5)
        assert frac_half == pytest.approx(0.25, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            params_with(eta_per_pulse=1.0)
        with pytest.raises(ValueError):
            params_with(temperature_uk=-1.0)
        with pytest.raises(ValueError):
            params_with(cloud_sigma_mm=0.5, beam_sigma_mm=0.0)
        with pytest.raises(ValueError):
            params_with(sublevel_factors=((1.5, 1.0),))


def zero_height_pulse(n_steps=16, n_constituents=1):
    return ResultantPulse(
        start=0.0,
        end=0.016,
        k_mid=np.zeros(n_steps),
        step=0.016 / n_steps,
        area=0.0,
        constituents=tuple((train, 0.008) for train in range(1, n_constituents + 1)),
    )


class TestEvolvePulse:
    def test_zero_height_is_free_evolution(self):
        params = params_with()
        rng = np.random.default_rng(0)
        phi, rho = evolve_pulse(0.2, 3.0, 1.0, zero_height_pulse(), rng, params)
        assert phi == pytest.approx(0.2 + 3.0 * 0.016, abs=1e-12)
        assert rho == 3.0

    @pytest.mark.parametrize("n_constituents", [1, 2])
    def test_one_emission_check_per_constituent(self, n_constituents):
        # each constituent pulse adds a recoil uniform in [-kbar/2, kbar/2)
        # with probability eta, so an overlapped pulse spreads rho twice
        # as much as a single one
        params = params_with(eta_per_pulse=0.999)
        rng = np.random.default_rng(3)
        pulse = zero_height_pulse(n_steps=2, n_constituents=n_constituents)
        d_rho = np.array(
            [evolve_pulse(0.0, 0.0, 1.0, pulse, rng, params)[1] for _ in range(4000)]
        )
        assert np.all(np.abs(d_rho) < n_constituents * KBAR / 2)
        assert np.var(d_rho) == pytest.approx(n_constituents * KBAR**2 / 12, rel=0.05)

    def test_impulse_limit(self):
        # narrow weak square pulse: delta rho ~ kick_factor * kappa * sin(phi)
        kappa = 0.01
        spec = single_train_spec(1, kappa, PulseShapeParams.square(0.002), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(eta_per_pulse=0.0)
        rng = np.random.default_rng(1)
        for phi0 in [-2.0, -0.5, 0.7, 2.5]:
            for kf in [1.0, 0.6]:
                _, rho = evolve_pulse(phi0, 0.0, kf, tl.pulses[0], rng, params)
                expected = kf * kappa * math.sin(phi0)
                assert rho - 0.0 == pytest.approx(expected, rel=0.01)

    def test_grid_refinement_converges(self):
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        spec = single_train_spec(1, 10.1, shape, KBAR)
        params = params_with(eta_per_pulse=0.0)
        rng = np.random.default_rng(2)
        tl16 = resolve_timeline(spec, 16)
        tl64 = resolve_timeline(spec, 64)
        for phi0, rho0 in [(0.3, 1.0), (-1.2, 8.0), (2.0, -15.0)]:
            _, rho16 = evolve_pulse(phi0, rho0, 1.0, tl16.pulses[0], rng, params)
            _, rho64 = evolve_pulse(phi0, rho0, 1.0, tl64.pulses[0], rng, params)
            assert abs(rho16 - rho64) < 1e-3 * 10.1


class TestEnsemble:
    def test_zero_kick_strength_preserves_momentum(self):
        spec = single_train_spec(5, 0.0, PulseShapeParams.square(0.016), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(rng_seed=9)
        samples = run_classical_ensemble(tl, params, 10)
        stream = trajectory_stream(9, 0, ENGINE_CLASSICAL, 3)
        _, rho, _ = sample_initial_classical(params, stream)
        assert samples[3] == rho / KBAR

    def test_energy_conserved_with_zero_kappa_and_eta(self):
        spec = single_train_spec(5, 0.0, PulseShapeParams.square(0.016), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(rng_seed=2)
        s1 = run_classical_ensemble(tl, params, 64)
        _, rho, _ = np.array(
            [
                sample_initial_classical(params, trajectory_stream(2, 0, ENGINE_CLASSICAL, i))
                for i in range(64)
            ]
        ).T
        assert np.array_equal(s1, rho / KBAR)

    def test_matches_per_trajectory_route_on_overlapped_timeline(self):
        # r = 1, psi0 = 0: every resultant pulse has two constituents.
        # Each trajectory's own stream through sample_initial_classical,
        # the free gaps and evolve_pulse reproduces the ensemble bit for bit.
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        tl = resolve_timeline(build_train_spec(1.0, 0.0, 6, 10.1, 10.1, shape, KBAR))
        assert all(p.n_constituents == 2 for p in tl.pulses)
        params = params_with(eta_per_pulse=0.3, rng_seed=1)
        samples = run_classical_ensemble(tl, params, 8, chunk_size=3)
        for i in range(8):
            stream = trajectory_stream(1, 0, ENGINE_CLASSICAL, i)
            phi, rho, kick_factor = sample_initial_classical(params, stream)
            prev_end = None
            for pulse in tl.pulses:
                if prev_end is not None:
                    phi = float(_wrap_angle(phi + (pulse.start - prev_end) * rho))
                phi, rho = evolve_pulse(phi, rho, kick_factor, pulse, stream, params)
                prev_end = pulse.end
            assert samples[i] == rho / KBAR

    def test_worker_count_invariance(self):
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        spec = single_train_spec(6, 10.1, shape, KBAR)
        tl = resolve_timeline(spec)
        params = params_with(eta_per_pulse=0.028, rng_seed=5)
        a = run_classical_ensemble(tl, params, 700, n_workers=1, chunk_size=256)
        b = run_classical_ensemble(tl, params, 700, n_workers=4, chunk_size=256)
        assert np.array_equal(a, b)
        # a row's result does not depend on which rows share its chunk
        ref = run_classical_ensemble(tl, params, 2048, n_workers=2)
        for chunk_size in (1, 7, 256, 2048):
            c = run_classical_ensemble(tl, params, 2048, n_workers=2, chunk_size=chunk_size)
            assert np.array_equal(c, ref), f"chunk_size={chunk_size}"

    def test_time_reversal_recovers_start(self):
        # volume preservation: forward pulses, then the reversed pulse
        # sequence with negated momentum, returns to the start
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        spec = single_train_spec(4, 10.1, shape, KBAR)
        tl = resolve_timeline(spec)
        phi, rho = 0.37, 2.1
        phi0, rho0 = phi, rho
        track = []
        prev_end = None
        for pulse in tl.pulses:
            if prev_end is not None:
                gap = pulse.start - prev_end
                phi = float((phi + gap * rho + np.pi) % (2 * np.pi) - np.pi)
                track.append(("gap", gap))
            for k in pulse.k_mid:
                phi, rho = pendulum_step(phi, rho, k, pulse.step)
                track.append(("kick", (k, pulse.step)))
            prev_end = pulse.end
        rho = -rho
        for kind, payload in reversed(track):
            if kind == "gap":
                phi = float((phi + payload * rho + np.pi) % (2 * np.pi) - np.pi)
            else:
                k, h = payload
                phi, rho = pendulum_step(phi, rho, k, h)
        rho = -rho
        assert abs(np.angle(np.exp(1j * (phi - phi0)))) < 1e-8
        assert abs(rho - rho0) < 1e-8

    def test_kam_double_pulse_suppression_small(self):
        # near-coincident pulse pairs throttle diffusion relative to the
        # evenly spaced train
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        params = params_with(rng_seed=7)
        tl_kam = resolve_timeline(
            build_train_spec(1.0, 34.3 / 360.0, 30, 10.1, 10.1, shape, KBAR)
        )
        tl_mid = resolve_timeline(
            build_train_spec(1.0, 0.5, 30, 10.1, 10.1, shape, KBAR)
        )
        e_kam = np.mean(run_classical_ensemble(tl_kam, params, 1500)**2) / 2
        e_mid = np.mean(run_classical_ensemble(tl_mid, params, 1500)**2) / 2
        assert e_kam < e_mid
