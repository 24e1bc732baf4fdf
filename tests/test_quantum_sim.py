import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aokr.analysis import energy
from aokr.classical_sim import EnsembleParams, draw_momentum_and_kick_factor, run_classical_ensemble
from aokr.pulse_train import (
    PulseShapeParams,
    build_train_spec,
    resolve_timeline,
    single_train_spec,
)
from aokr.quantum_sim import (
    GridOverflowError,
    Wavefunction,
    _jump,
    free_propagate,
    init_wavefunction,
    kick_step,
    mcwf_check_jump,
    run_mcwf_trajectories,
)
from aokr.streams import ENGINE_QUANTUM, trajectory_stream
from oracles import dense_kick_propagator, to_natural_order

KBAR = 3.12


def params_with(**kw):
    defaults = dict(kbar=KBAR, temperature_uk=5.0, cloud_sigma_mm=0.0, rng_seed=0)
    defaults.update(kw)
    return EnsembleParams(**defaults)


def scalar_run(psi, timeline):
    """Evolve one wavefunction through the timeline with kick_step and
    free_propagate, eta = 0."""
    prev_end = None
    for pulse in timeline.pulses:
        if prev_end is not None:
            psi = free_propagate(psi, pulse.start - prev_end)
        for k in pulse.k_mid:
            psi = kick_step(psi, k, 0.0, pulse.step)
        prev_end = pulse.end
    return psi


class FixedUniform:
    """rng stub returning a preset value from uniform()."""

    def __init__(self, value):
        self.value = value

    def uniform(self, lo, hi):
        return self.value


class TestInit:
    def test_ground_state(self):
        psi = init_wavefunction(256, 0.0, KBAR)
        assert psi.c[0] == 1.0
        assert psi.q == 0.0
        assert psi.norm_sq() == 1.0

    def test_nearest_state_rounding(self):
        psi = init_wavefunction(256, 0.6 * KBAR, KBAR)
        assert psi.c[1] == 1.0
        assert psi.q == pytest.approx(-0.4 * KBAR)

    def test_negative_momentum(self):
        psi = init_wavefunction(256, -2.3 * KBAR, KBAR)
        assert psi.c[-2] == 1.0
        assert psi.q == pytest.approx(-0.3 * KBAR)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            init_wavefunction(100, 0.0, KBAR)
        with pytest.raises(ValueError):
            init_wavefunction(32, 0.0, KBAR)

    def test_momentum_too_large(self):
        with pytest.raises(ValueError):
            init_wavefunction(128, 200 * KBAR, KBAR)


class TestFreePropagate:
    def test_zero_duration_identity(self):
        psi = init_wavefunction(128, 0.4 * KBAR, KBAR)
        out = free_propagate(psi, 0.0)
        assert np.array_equal(out.c, psi.c)

    def test_moduli_invariant(self):
        psi = kick_step(init_wavefunction(128, 0.0, KBAR), 50.0, 0.0, 0.01)
        out = free_propagate(psi, 0.73)
        assert np.allclose(np.abs(out.c), np.abs(psi.c), atol=1e-14)

    def test_revival_phase(self):
        # at q=0 and dtau = 4 pi / kbar every phase is a multiple of 2 pi
        psi = kick_step(init_wavefunction(128, 0.0, KBAR), 80.0, 0.0, 0.005)
        out = free_propagate(psi, 4 * np.pi / KBAR)
        assert np.max(np.abs(out.c - psi.c)) < 1e-9

    def test_energy_invariant(self):
        psi = kick_step(init_wavefunction(128, 0.3 * KBAR, KBAR), 60.0, 0.0, 0.01)
        out = free_propagate(psi, 1.7)
        assert out.energy_recoils() == pytest.approx(psi.energy_recoils(), rel=1e-13)


class TestKickStep:
    def test_unitary_without_decay(self):
        psi = init_wavefunction(256, 0.2 * KBAR, KBAR)
        for _ in range(20):
            psi = kick_step(psi, 631.25, 0.0, 0.001)
        assert abs(psi.norm_sq() - 1.0) < 1e-12

    def test_zero_rate_is_free_propagation(self):
        psi = kick_step(init_wavefunction(128, 0.0, KBAR), 40.0, 0.0, 0.01)
        a = kick_step(psi, 0.0, 0.0, 0.25)
        b = free_propagate(psi, 0.25)
        assert np.max(np.abs(a.c - b.c)) < 1e-13

    def test_norm_decay_matches_eta(self):
        # weak pulse: norm^2 after a full pulse of area kappa is ~ 1 - eta
        kappa, eta = 0.3, 0.04
        spec = single_train_spec(1, kappa, PulseShapeParams.square(0.016), KBAR)
        pulse = resolve_timeline(spec).pulses[0]
        psi = init_wavefunction(256, 0.0, KBAR)
        for k in pulse.k_mid:
            psi = kick_step(psi, k, eta / kappa, pulse.step)
        assert 1.0 - psi.norm_sq() == pytest.approx(eta, rel=0.10)

    def test_norm_never_increases(self):
        psi = init_wavefunction(128, 0.0, KBAR)
        last = 1.0
        for _ in range(30):
            psi = kick_step(psi, 200.0, 0.01, 0.002)
            now = psi.norm_sq()
            assert now <= last + 1e-14
            last = now


class TestJump:
    def test_no_jump_above_threshold(self):
        psi = init_wavefunction(128, 0.0, KBAR)
        out, record = mcwf_check_jump(psi, 0.3, FixedUniform(0.0))
        assert record is None
        assert out is psi

    def test_fold_and_expectation_shift(self):
        base = kick_step(init_wavefunction(256, 0.4 * KBAR, KBAR), 100.0, 0.0, 0.01)
        shrunk = Wavefunction(c=base.c * 0.6, q=base.q, kbar=KBAR)
        u = 0.3 * KBAR  # q + u = 0.7 kbar folds to -0.3 kbar with ladder shift +1
        before = shrunk.momentum_expectation()
        out, record = mcwf_check_jump(shrunk, 0.5, FixedUniform(u), pulse_index=4)
        assert record is not None
        assert record.pulse_index == 4
        assert record.recoil == u
        assert out.q == pytest.approx(-0.3 * KBAR)
        assert -KBAR / 2 <= out.q < KBAR / 2
        assert out.momentum_expectation() - before == pytest.approx(u, abs=1e-10)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        q=st.floats(-KBAR / 2, KBAR / 2, exclude_max=True),
        u=st.floats(-KBAR / 2, KBAR / 2, exclude_max=True),
    )
    @example(q=0.4 * KBAR, u=0.3 * KBAR)  # ladder shift +1
    @example(q=-0.4 * KBAR, u=-0.3 * KBAR)  # ladder shift -1
    @example(q=-KBAR / 2, u=-np.spacing(KBAR / 2))  # np.mod rounds up to kbar
    def test_jump_moves_mean_momentum_by_recoil(self, q, u):
        kicked = kick_step(init_wavefunction(256, 0.0, KBAR), 100.0, 0.0, 0.01)
        before = Wavefunction(c=0.6 * kicked.c, q=q, kbar=KBAR)
        c, q_new = _jump(before.c, q, u, KBAR)
        after = Wavefunction(c=c, q=q_new, kbar=KBAR)
        assert -KBAR / 2 <= q_new < KBAR / 2
        assert after.momentum_expectation() - before.momentum_expectation() == pytest.approx(
            u, abs=1e-10
        )
        assert after.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_no_jumps_without_decay(self):
        spec = single_train_spec(10, 5.0, PulseShapeParams.square(0.016), KBAR)
        tl = resolve_timeline(spec)
        result = run_mcwf_trajectories(tl, params_with(eta_per_pulse=0.0), 8, n_max=128)
        assert np.all(result.jump_counts == 0)


class TestSplitStepOracle:
    def test_matches_dense_propagator(self):
        # square pulses: the dense route is one exact matrix exponential
        # per pulse; the split step must converge to it on a fine grid
        rng = np.random.default_rng(12)
        n_max = 128
        width = 0.016
        kappa = float(rng.uniform(1.0, 5.0))
        eta_rate = 0.02 / kappa
        k_rate = kappa / width
        steps = 4096

        psi = init_wavefunction(n_max, 0.4 * KBAR, KBAR)
        q = psi.q
        vec = to_natural_order(psi.c)
        u_pulse = dense_kick_propagator(n_max, q, KBAR, k_rate, eta_rate, width)
        n = np.arange(-n_max, n_max)
        u_free = np.exp(-0.5j * (n * KBAR + q) ** 2 * (1.0 - width) / KBAR)
        for _ in range(3):
            vec = u_free * (u_pulse @ vec)

        h = width / steps
        for _ in range(3):
            for _ in range(steps):
                psi = kick_step(psi, k_rate, eta_rate, h)
            psi = free_propagate(psi, 1.0 - width)
        assert np.linalg.norm(to_natural_order(psi.c) - vec) < 1e-8


class TestBatchKernel:
    def test_matches_scalar_path_on_two_frequency_timeline(self):
        # kick_step and free_propagate are one-row calls into the kernels
        # run_mcwf_trajectories uses, so this checks the rest of the
        # ensemble path: start states from the shared sampler, the gaps
        # between pulses and the chunk assembly.  eta = 0, r = sqrt(2),
        # psi0 = 30 deg, with the measured erf pulse shape.
        shape = PulseShapeParams.from_physical_ns(104.0, 121.0, 396.0, 30.0)
        spec = build_train_spec(np.sqrt(2.0), 30.0 / 360.0, 30, 10.1, 10.1, shape, KBAR)
        tl = resolve_timeline(spec)
        params = params_with(eta_per_pulse=0.0, rng_seed=7007)
        n_traj, n_max = 3, 512
        result = run_mcwf_trajectories(tl, params, n_traj, n_max=n_max)
        assert np.all(result.jump_counts == 0)
        for i in range(n_traj):
            stream = trajectory_stream(params.rng_seed, 0, ENGINE_QUANTUM, i)
            rho0, _ = draw_momentum_and_kick_factor(params, stream)
            psi = scalar_run(init_wavefunction(n_max, rho0, KBAR), tl)
            assert abs(result.energies[i] - psi.energy_recoils()) < 1e-10


class TestEnsemble:
    def test_zero_kappa_returns_initial_thermal(self):
        spec = single_train_spec(5, 0.0, PulseShapeParams.square(0.016), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(rng_seed=21)
        result = run_mcwf_trajectories(tl, params, 400, n_max=128)
        # energies must match the rounded initial thermal draw
        sigma = params.sigma_n
        assert np.mean(result.energies) == pytest.approx(sigma**2 / 2, rel=0.15)
        assert energy(result.distribution) == pytest.approx(sigma**2 / 2, rel=0.15)

    def test_worker_count_invariance(self):
        spec = single_train_spec(4, 10.1, PulseShapeParams.square(0.016), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(eta_per_pulse=0.028, rng_seed=8)
        a = run_mcwf_trajectories(tl, params, 96, n_max=128, n_workers=1, chunk_size=32)
        b = run_mcwf_trajectories(tl, params, 96, n_max=128, n_workers=3, chunk_size=32)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.distribution.masses, b.distribution.masses)
        assert np.array_equal(a.jump_counts, b.jump_counts)
        # a row's result does not depend on which rows share its chunk; the
        # masses sum chunk histograms in chunk order, so they move in the
        # last bits
        for chunk_size in (1, 7, 96):
            c = run_mcwf_trajectories(tl, params, 96, n_max=128, chunk_size=chunk_size)
            assert np.array_equal(c.energies, a.energies), f"chunk_size={chunk_size}"
            assert np.array_equal(c.jump_counts, a.jump_counts), f"chunk_size={chunk_size}"
            np.testing.assert_allclose(
                c.distribution.masses, a.distribution.masses, rtol=0, atol=1e-15
            )

    def test_both_histogram_tails_keep_their_mass(self):
        # the populations far out on either side are ~1e-31; binning must
        # not round them away on one side only
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        tl = resolve_timeline(single_train_spec(3, 10.1, shape, KBAR))
        params = params_with(eta_per_pulse=0.028, rng_seed=7)
        dist = run_mcwf_trajectories(tl, params, 8, n_max=64).distribution
        far = 32.0
        low = dist.masses[dist.bin_centers < -far].sum()
        high = dist.masses[dist.bin_centers > far].sum()
        assert low > 0
        assert high > 0

    def test_emission_rate_is_eta_per_constituent_pulse(self):
        # eta is the emission probability per constituent pulse, as in the
        # classical engine: doubling train 2's kick strength must not make
        # its pulses emit more often
        shape = PulseShapeParams.from_physical_ns(104.0, 121.0, 396.0, 30.0)
        params = params_with(eta_per_pulse=0.1, rng_seed=3)
        jumps = []
        for kappa2 in (10.1, 20.2):
            spec = build_train_spec(np.sqrt(2.0), 30.0 / 360.0, 10, 10.1, kappa2, shape, KBAR)
            tl = resolve_timeline(spec)
            jumps.append(run_mcwf_trajectories(tl, params, 400, n_max=128).jump_counts)
        same, doubled = jumps
        se = np.hypot(*(j.std(ddof=1) / np.sqrt(j.size) for j in jumps))
        assert abs(doubled.mean() - same.mean()) < 3 * se

    def test_grid_overflow_detected(self):
        # small-kbar diffusion on a deliberately tight grid must trip the
        # boundary guard instead of aliasing silently
        spec = single_train_spec(10, 3.0, PulseShapeParams.square(0.016), 0.3)
        tl = resolve_timeline(spec)
        params = EnsembleParams(kbar=0.3, temperature_uk=1.0, cloud_sigma_mm=0.0, rng_seed=1)
        with pytest.raises(GridOverflowError) as info:
            run_mcwf_trajectories(tl, params, 2, n_max=64)
        assert "trajectory" in str(info.value)

    def test_unitary_norm_drift_100_kicks(self):
        spec = single_train_spec(100, 10.1, PulseShapeParams.square(0.016), KBAR)
        tl = resolve_timeline(spec)
        psi = scalar_run(init_wavefunction(1024, 0.1 * KBAR, KBAR), tl)
        assert abs(psi.norm_sq() - 1.0) < 1e-10

    def test_quantum_classical_correspondence_small_kbar(self):
        # kbar = 0.2, five kicks in the strongly chaotic regime:
        # <rho^2> agrees between the engines to 5%
        kbar = 0.2
        kappa = 4.0
        spec = single_train_spec(5, kappa, PulseShapeParams.square(0.016), kbar)
        tl = resolve_timeline(spec)
        cl = EnsembleParams(kbar=kbar, temperature_uk=0.5, cloud_sigma_mm=0.0, rng_seed=3)
        samples = run_classical_ensemble(tl, cl, 40000)
        rho2_classical = np.mean((samples * kbar) ** 2)
        result = run_mcwf_trajectories(tl, cl, 600, n_max=512)
        rho2_quantum = np.mean(result.energies) * 2 * kbar**2
        assert rho2_quantum == pytest.approx(rho2_classical, rel=0.05)
