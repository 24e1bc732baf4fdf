import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aokr import quantum_sim
from aokr.analysis import MomentumDistribution, energy, momentum_bin_grid, trajectory_energies
from aokr.classical_sim import EnsembleParams, draw_momentum_and_kick_factor, run_classical_ensemble
from aokr.pulse_train import PulseShapeParams, build_train_spec, resolve_timeline
from aokr.quantum_sim import (
    BOUNDARY_OCCUPATION_LIMIT,
    GridOverflowError,
    _grids,
    _jump,
    _pulse_rows,
    _quantum_chunk,
    run_mcwf_trajectories,
)
from aokr.streams import ENGINE_QUANTUM, trajectory_stream
from oracles import (
    Wavefunction,
    dense_kick_propagator,
    dist_energy,
    free_propagate,
    init_wavefunction,
    kick_step,
    mcwf_check_jump,
    per_row_fold,
    single_train_spec,
    to_natural_order,
)

KBAR = 3.12


def params_with(**kw):
    defaults = dict(kbar=KBAR, temperature_uk=5.0, cloud_sigma_mm=0.0, rng_seed=0)
    defaults.update(kw)
    return EnsembleParams(**defaults)


def scalar_run(psi, timeline, eta=0.0, stream=None):
    """Evolve one wavefunction through the timeline with kick_step,
    free_propagate and mcwf_check_jump, eta per constituent pulse.

    Jumps read stream lazily, in the order the engine reads its up-front
    pairs: a threshold, then per jump its recoil and the next threshold.
    Without a stream nothing jumps.  Returns (psi, jumps).
    """
    threshold = stream.random() if stream is not None else 0.0
    jumps = 0
    prev_end = None
    for pulse in timeline.pulses:
        if prev_end is not None:
            psi = free_propagate(psi, pulse.start - prev_end)
        eta_rate = eta * pulse.n_constituents / pulse.area
        for k in pulse.k_mid:
            psi = kick_step(psi, k, eta_rate, pulse.step)
        if psi.norm_sq() < threshold:  # the recoil is drawn only on a jump
            psi, jumped = mcwf_check_jump(psi, threshold, stream.uniform(-KBAR / 2, KBAR / 2))
            assert jumped
            threshold, jumps = stream.random(), jumps + 1
        prev_end = pulse.end
    return psi, jumps


class TestInit:
    def test_ground_state(self):
        psi = init_wavefunction(256, 0.0, KBAR)
        assert psi.c[0] == 1.0
        assert psi.q == 0.0
        assert psi.norm_sq() == 1.0

    @pytest.mark.parametrize("p0_in_kbar", [0.6, -2.3, 200.0], ids=["0.6", "-2.3", "200"])
    def test_starts_at_ladder_origin_with_q_at_start_momentum(self, p0_in_kbar):
        # the ladder window follows p0, so a start far outside +-n_max kbar
        # evolves like any other
        p0 = p0_in_kbar * KBAR
        psi = init_wavefunction(128, p0, KBAR)
        assert psi.c[0] == 1.0
        assert psi.norm_sq() == 1.0
        assert psi.q == p0
        assert psi.momentum_expectation() == p0
        for _ in range(10):
            psi = kick_step(psi, 631.25, 0.0, 0.001)
        assert abs(psi.norm_sq() - 1.0) < 1e-12


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
        spec = single_train_spec(1, kappa, PulseShapeParams(0.0, 0.0, 0.016), KBAR)
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


class TestQuarterGridMultiplier:
    @pytest.mark.parametrize("size", [128 << i for i in range(8)])
    def test_cos_grid_symmetries_are_exact(self, size):
        cos_phi = _grids(size)[1]
        g = np.arange(size)
        assert np.array_equal(cos_phi[(size - g) % size], cos_phi)
        assert np.array_equal(cos_phi[(size // 2 - g) % size], -cos_phi)
        assert cos_phi[size // 4] == 0.0
        assert np.max(np.abs(cos_phi - np.cos(2.0 * np.pi * g / size))) <= 1e-15

    def test_steps_match_the_full_grid_multiplier(self):
        # distinct kick factors and decay > 0, against the multiplier
        # written out on the full np.cos grid, steps applied one by one
        rng = np.random.default_rng(24)
        rows, size, h, decay_scale = 8, 256, 0.002, 0.05
        k_mid = np.array([900.0, 2500.0, 1700.0])
        psi = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
        psi /= np.sqrt(np.sum(np.abs(psi) ** 2, axis=1))[:, None]
        q = rng.uniform(-KBAR / 2, KBAR / 2, rows)
        kf = rng.uniform(0.3, 1.0, rows)
        cos_phi = np.cos(2.0 * np.pi * np.arange(size) / size)
        n = np.fft.fftfreq(size, 1.0 / size)
        half = np.exp(-0.5j * (n * KBAR + q[:, None]) ** 2 * (0.5 * h) / KBAR)
        ref = psi.copy()
        for k in k_mid:
            mult = np.exp(
                -1j * h * k * kf[:, None] * cos_phi / KBAR - h * k * decay_scale * (1.0 + cos_phi)
            )
            ref = np.fft.fft(np.fft.ifft(ref * half, axis=1) * mult, axis=1) * half
        out = psi.copy()
        _pulse_rows(out, q, kf, decay_scale, k_mid, h, KBAR)
        assert np.max(np.abs(out - ref)) < 1e-13
        assert np.all(np.sum(np.abs(out) ** 2, axis=1) < 0.9)  # the decay acted


class TestJump:
    def test_no_jump_above_threshold(self):
        psi = init_wavefunction(128, 0.0, KBAR)
        out, jumped = mcwf_check_jump(psi, 0.3, 0.0)
        assert not jumped
        assert out is psi

    def test_fold_and_expectation_shift(self):
        base = kick_step(init_wavefunction(256, 0.4 * KBAR, KBAR), 100.0, 0.0, 0.01)
        shrunk = Wavefunction(c=base.c * 0.6, q=base.q, kbar=KBAR)
        u = 0.3 * KBAR  # q + u = 0.7 kbar lies outside the first zone
        before = shrunk.momentum_expectation()
        out, jumped = mcwf_check_jump(shrunk, 0.5, u)
        assert jumped
        assert out.q == base.q + u
        assert out.momentum_expectation() - before == pytest.approx(u, abs=1e-10)
        assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        q=st.floats(-5 * KBAR, 5 * KBAR),
        u=st.floats(-KBAR / 2, KBAR / 2, exclude_max=True),
    )
    @example(q=0.4 * KBAR, u=0.3 * KBAR)  # leaves the first zone upwards
    @example(q=-0.4 * KBAR, u=-0.3 * KBAR)  # and downwards
    def test_jump_moves_mean_momentum_by_recoil(self, q, u):
        kicked = kick_step(init_wavefunction(256, 0.0, KBAR), 100.0, 0.0, 0.01)
        before = Wavefunction(c=0.6 * kicked.c, q=q, kbar=KBAR)
        c, q_new = _jump(before.c, q, u)
        after = Wavefunction(c=c, q=q_new, kbar=KBAR)
        assert q_new == q + u
        assert after.momentum_expectation() - before.momentum_expectation() == pytest.approx(
            u, abs=1e-10
        )
        assert after.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # no amplitude moves along the ladder: only the norm changes
        np.testing.assert_allclose(
            np.abs(c), np.abs(before.c) / np.sqrt(before.norm_sq()), rtol=1e-14, atol=0
        )

    def test_no_jumps_without_decay(self):
        spec = single_train_spec(10, 5.0, PulseShapeParams(0.0, 0.0, 0.016), KBAR)
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
        energies = trajectory_energies(result.momenta, result.weights)
        for i in range(n_traj):
            stream = trajectory_stream(params.rng_seed, 0, ENGINE_QUANTUM, i)
            rho0, _ = draw_momentum_and_kick_factor(params, stream)
            psi, _ = scalar_run(init_wavefunction(n_max, rho0, KBAR), tl)
            assert abs(energies[i] - psi.energy_recoils()) < 1e-10

    def test_matches_lazy_stream_route_with_jumps_on_overlapped_timeline(self):
        # r = 1, psi0 = 0: every resultant pulse has two constituents, and
        # at eta = 0.3 the rows jump.  Each trajectory's own stream read
        # lazily, as the jumps come, must give the ensemble's up-front
        # pairs: pair k is the threshold after k jumps and the recoil of
        # jump k + 1.  Chunks of 3 put jumping rows beside others.
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        tl = resolve_timeline(build_train_spec(1.0, 0.0, 6, 10.1, 10.1, shape, KBAR))
        assert all(p.n_constituents == 2 for p in tl.pulses)
        eta, n_traj, n_max = 0.3, 8, 128
        params = params_with(eta_per_pulse=eta, rng_seed=1)
        result = run_mcwf_trajectories(tl, params, n_traj, n_max=n_max, chunk_size=3)
        assert result.jump_counts.max() >= 2  # pairs past the first are read
        energies = trajectory_energies(result.momenta, result.weights)
        for i in range(n_traj):
            stream = trajectory_stream(params.rng_seed, 0, ENGINE_QUANTUM, i)
            rho0, _ = draw_momentum_and_kick_factor(params, stream)
            psi, jumps = scalar_run(init_wavefunction(n_max, rho0, KBAR), tl, eta, stream)
            assert result.jump_counts[i] == jumps
            assert abs(energies[i] - psi.energy_recoils()) < 1e-10


class TestEnsemble:
    def test_zero_kappa_returns_initial_thermal(self):
        spec = single_train_spec(5, 0.0, PulseShapeParams(0.0, 0.0, 0.016), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(rng_seed=21)
        result = run_mcwf_trajectories(tl, params, 400, n_max=128)
        # energies must match the initial thermal draw
        sigma = params.sigma_n
        assert energy(result.momenta, result.weights) == pytest.approx(sigma**2 / 2, rel=0.15)
        dist = MomentumDistribution.from_samples(result.momenta, 0.5, result.weights)
        assert dist_energy(dist) == pytest.approx(sigma**2 / 2, rel=0.15)

    def test_worker_count_invariance(self):
        spec = single_train_spec(4, 10.1, PulseShapeParams(0.0, 0.0, 0.016), KBAR)
        tl = resolve_timeline(spec)
        params = params_with(eta_per_pulse=0.028, rng_seed=8)
        a = run_mcwf_trajectories(tl, params, 96, n_max=128, n_workers=1, chunk_size=32)
        b = run_mcwf_trajectories(tl, params, 96, n_max=128, n_workers=3, chunk_size=32)
        for field in ("momenta", "weights", "jump_counts"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        # a row's result does not depend on which rows share its chunk
        for chunk_size in (1, 7, 96):
            c = run_mcwf_trajectories(tl, params, 96, n_max=128, chunk_size=chunk_size)
            for field in ("momenta", "weights", "jump_counts"):
                assert np.array_equal(getattr(c, field), getattr(a, field)), (field, chunk_size)
        # rows of one block that jump at the same pulse: one kick, all rows in one chunk
        tl = resolve_timeline(single_train_spec(1, 10.1, PulseShapeParams(0.0, 0.0, 0.016), KBAR))
        params = params_with(eta_per_pulse=0.9, rng_seed=8)
        block = run_mcwf_trajectories(tl, params, 96, n_max=128, chunk_size=96)
        assert block.jump_counts.sum() >= 2
        rows = run_mcwf_trajectories(tl, params, 96, n_max=128, chunk_size=1)
        for field in ("momenta", "weights", "jump_counts"):
            assert np.array_equal(getattr(rows, field), getattr(block, field)), field

    def test_both_histogram_tails_keep_their_mass(self):
        # the populations far out on either side are ~1e-31; binning must
        # not round them away on one side only
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        tl = resolve_timeline(single_train_spec(3, 10.1, shape, KBAR))
        params = params_with(eta_per_pulse=0.028, rng_seed=7)
        result = run_mcwf_trajectories(tl, params, 8, n_max=64)
        dist = MomentumDistribution.from_samples(result.momenta, 0.5, result.weights)
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

    @pytest.mark.xfail(
        strict=True,
        reason="the quantum engine emits below eta per constituent pulse (ROADMAP Direction K)",
    )
    def test_quantum_emission_rate_equals_eta(self):
        # at a kick too weak to move the atoms, jumps per constituent pulse
        # must be eta itself, the probability the classical engine fires with;
        # 1024 trajectories x 30 pulses give 30 720 constituent-pulse checks
        eta, n_traj = 0.1, 1024
        shape = PulseShapeParams.from_physical_ns(104.0, 121.0, 396.0, 30.0)
        spec = build_train_spec(np.sqrt(2.0), 30.0 / 360.0, 30, 0.01, 0.01, shape, KBAR)
        tl = resolve_timeline(spec, min_steps_per_pulse=4)
        params = params_with(eta_per_pulse=eta, rng_seed=11)
        jumps = run_mcwf_trajectories(tl, params, n_traj, n_max=64).jump_counts
        n_constituents = sum(p.n_constituents for p in tl.pulses)
        rate = jumps.mean() / n_constituents
        se = jumps.std(ddof=1) / np.sqrt(n_traj) / n_constituents
        assert abs(rate - eta) < 2 * se

    def test_histogram_grid_covers_every_row_offset(self):
        # a row's momenta are n + q/kbar with q its own final offset, so the
        # grid widens by max |q|/kbar; at q = 0 the ladder n in [-64, 64)
        # spans 64 + one bin width
        shape = PulseShapeParams.from_physical_ns(104, 121, 396, 30.0)
        tl = resolve_timeline(build_train_spec(1.0, 0.0, 6, 10.1, 10.1, shape, KBAR))
        cold = dict(temperature_uk=0.0, rng_seed=2)
        at_rest = run_mcwf_trajectories(tl, params_with(eta_per_pulse=0.0, **cold), 4, n_max=64)
        dist = MomentumDistribution.from_samples(at_rest.momenta, 0.5, at_rest.weights)
        assert np.array_equal(dist.bin_centers, momentum_bin_grid(0.5, 64.5)[0])

        # at T = 0 only jumps move q
        n_traj, n_max = 16, 64
        params = params_with(eta_per_pulse=0.6, **cold)
        q = _quantum_chunk((tl, params, 0, n_traj, n_max, BOUNDARY_OCCUPATION_LIMIT))[2]
        assert np.abs(q).max() > KBAR / 2
        result = run_mcwf_trajectories(tl, params, n_traj, n_max=n_max)
        dist = MomentumDistribution.from_samples(result.momenta, 0.5, result.weights)
        momenta = _grids(2 * n_max)[0][None, :] + q[:, None] / KBAR
        half_bin = 0.25
        assert dist.bin_centers[0] - half_bin <= momenta.min()
        assert momenta.max() < dist.bin_centers[-1] + half_bin
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_grid_overflow_detected(self):
        # small-kbar diffusion on a deliberately tight grid must trip the
        # boundary guard instead of aliasing silently
        spec = single_train_spec(10, 3.0, PulseShapeParams(0.0, 0.0, 0.016), 0.3)
        tl = resolve_timeline(spec)
        params = EnsembleParams(kbar=0.3, temperature_uk=1.0, cloud_sigma_mm=0.0, rng_seed=1)
        with pytest.raises(GridOverflowError) as info:
            run_mcwf_trajectories(tl, params, 2, n_max=64)
        assert "trajectory" in str(info.value)

    def test_unitary_norm_drift_100_kicks(self):
        spec = single_train_spec(100, 10.1, PulseShapeParams(0.0, 0.0, 0.016), KBAR)
        tl = resolve_timeline(spec)
        psi, _ = scalar_run(init_wavefunction(1024, 0.1 * KBAR, KBAR), tl)
        assert abs(psi.norm_sq() - 1.0) < 1e-10

    def test_quantum_classical_correspondence_small_kbar(self):
        # kbar = 0.2, five kicks in the strongly chaotic regime:
        # <rho^2> agrees between the engines to 5%
        kbar = 0.2
        kappa = 4.0
        spec = single_train_spec(5, kappa, PulseShapeParams(0.0, 0.0, 0.016), kbar)
        tl = resolve_timeline(spec)
        cl = EnsembleParams(kbar=kbar, temperature_uk=0.5, cloud_sigma_mm=0.0, rng_seed=3)
        samples = run_classical_ensemble(tl, cl, 40000)
        rho2_classical = np.mean((samples * kbar) ** 2)
        result = run_mcwf_trajectories(tl, cl, 600)
        rho2_quantum = energy(result.momenta, result.weights) * 2 * kbar**2
        assert rho2_quantum == pytest.approx(rho2_classical, rel=0.05)


def root2_timeline(n_tot):
    """r = sqrt(2), psi0 = 30 deg with the measured shape, and the ensemble
    parameters the grid tests use.  At 30 kicks every row outgrows
    n_max = 64 and fits 128; at 17 kicks 9 of the first 24 rows do."""
    shape = PulseShapeParams.from_physical_ns(104.0, 121.0, 396.0, 30.0)
    spec = build_train_spec(np.sqrt(2.0), 30.0 / 360.0, n_tot, 10.1, 10.1, shape, KBAR)
    return resolve_timeline(spec), params_with(eta_per_pulse=0.028, rng_seed=7007)


class TestGridChoice:
    N_TRAJ = 24

    def test_settles_on_smallest_grid_that_holds_the_ensemble(self):
        tl, params = root2_timeline(30)
        chosen = run_mcwf_trajectories(tl, params, self.N_TRAJ)
        wide = run_mcwf_trajectories(tl, params, self.N_TRAJ, n_max=1024)
        assert chosen.n_max == 128
        assert wide.n_max == 1024
        assert chosen.jump_counts.sum() > 0
        assert np.array_equal(chosen.jump_counts, wide.jump_counts)
        np.testing.assert_allclose(
            trajectory_energies(chosen.momenta, chosen.weights),
            trajectory_energies(wide.momenta, wide.weights),
            rtol=1e-12,
            atol=0,
        )

    def test_chosen_grid_is_chunk_and_worker_invariant(self):
        # only some rows outgrow n_max = 64, yet every row moves to 128,
        # whichever rows share its chunk
        tl, params = root2_timeline(17)
        outgrow = []
        for i in range(self.N_TRAJ):
            try:
                _quantum_chunk((tl, params, i, i + 1, 64, quantum_sim.SETTLE_OCCUPATION_LIMIT))
            except GridOverflowError:
                outgrow.append(i)
        assert 0 < len(outgrow) < self.N_TRAJ
        a = run_mcwf_trajectories(tl, params, self.N_TRAJ, chunk_size=8)
        for kw in (dict(chunk_size=1), dict(chunk_size=7), dict(chunk_size=96),
                   dict(chunk_size=8, n_workers=3)):
            b = run_mcwf_trajectories(tl, params, self.N_TRAJ, **kw)
            assert b.n_max == a.n_max == 128, kw
            for field in ("momenta", "weights", "jump_counts"):
                assert np.array_equal(getattr(b, field), getattr(a, field)), (field, kw)

    def test_one_bincount_matches_the_per_row_fold(self):
        # binning every ladder in one call adds the same entries in the same
        # order as folding the rows one at a time: at bin width 0.5 no two
        # entries of a row share a bin.  The fold's wider grid adds only
        # empty edge bins.
        tl, params = root2_timeline(17)
        result = run_mcwf_trajectories(tl, params, self.N_TRAJ)
        assert result.jump_counts.sum() > 0
        assert np.ptp(result.momenta[:, 0]) > 1.0  # the rows' offsets q/kbar spread
        dist = MomentumDistribution.from_samples(result.momenta, 0.5, result.weights)
        centers, masses = per_row_fold(result.momenta, result.weights, 0.5)
        extra = (len(centers) - len(dist.bin_centers)) // 2
        assert extra > 0
        shared = slice(extra, len(centers) - extra)
        assert np.array_equal(centers[shared], dist.bin_centers)
        assert np.array_equal(masses[shared], dist.masses)
        assert np.all(masses[:extra] == 0.0)
        assert np.all(masses[shared.stop:] == 0.0)

    def test_explicit_n_max_is_the_only_grid_tried(self):
        # an explicit n_max runs once at the boundary limit, as before the
        # grid could be chosen: n_max = 64 holds this ensemble to 1e-8
        tl, params = root2_timeline(30)
        result = run_mcwf_trajectories(tl, params, self.N_TRAJ, n_max=64, chunk_size=10)
        assert result.n_max == 64
        for lo, hi in ((0, 10), (10, 20), (20, self.N_TRAJ)):
            job = (tl, params, lo, hi, 64, BOUNDARY_OCCUPATION_LIMIT)
            populations, _, jumps = _quantum_chunk(job)
            assert np.array_equal(result.weights[lo:hi], populations)
            assert np.array_equal(result.jump_counts[lo:hi], jumps)
        settled = run_mcwf_trajectories(tl, params, self.N_TRAJ)
        assert settled.n_max == 128
        assert energy(result.momenta, result.weights) != energy(settled.momenta, settled.weights)

    def test_overflow_at_the_ceiling_asks_for_an_explicit_n_max(self, monkeypatch):
        # twice test_grid_overflow_detected's kick outgrows n_max = 64 and,
        # at the boundary limit, a ceiling lowered to 128
        monkeypatch.setattr(quantum_sim, "N_MAX_CEILING", 128)
        spec = single_train_spec(10, 6.0, PulseShapeParams(0.0, 0.0, 0.016), 0.3)
        tl = resolve_timeline(spec)
        params = EnsembleParams(kbar=0.3, temperature_uk=1.0, cloud_sigma_mm=0.0, rng_seed=1)
        with pytest.raises(GridOverflowError) as info:
            run_mcwf_trajectories(tl, params, 2)
        message = str(info.value)
        assert "trajectory" in message
        assert "ceiling 128" in message
        assert "explicit --n-max" in message
