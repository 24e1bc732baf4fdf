"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Ensembles sizes follow
the criteria; worker counts only affect wall time, never results.
"""

import filecmp
import math
import os

import numpy as np
import pytest
from scipy.special import jv

from aokr.analysis import (
    LINESHAPE_EXPONENTIAL,
    LINESHAPE_GAUSSIAN,
    MomentumDistribution,
    classify_lineshape,
    energy,
    energy_stderr,
    mean_stderr,
    zero_velocity_fraction,
)
from aokr.classical_sim import EnsembleParams, run_classical_ensemble
from aokr.elliptic import _ellipj, pendulum_step
from aokr.pulse_train import PulseShapeParams, build_train_spec, resolve_timeline
from aokr.quantum_sim import run_mcwf_trajectories
from aokr.runner import RunConfig, emit_outputs, run
from oracles import (
    _pendulum_reference_batch,
    dense_kick_propagator,
    free_propagate,
    init_wavefunction,
    kick_step,
    single_train_spec,
    to_natural_order,
)

KBAR = 3.12
T1_US = 30.0
WORKERS = min(4, os.cpu_count() or 1)


def measured_shape():
    return PulseShapeParams.from_physical_ns(104.0, 121.0, 396.0, T1_US)


def ensemble(eta, seed, **kw):
    defaults = dict(
        kbar=KBAR, temperature_uk=5.0, cloud_sigma_mm=0.0, beam_sigma_mm=0.72,
        eta_per_pulse=eta, rng_seed=seed,
    )
    defaults.update(kw)
    return EnsembleParams(**defaults)


def two_freq_timeline(ratio, psi0_deg, n_tot, kappa):
    spec = build_train_spec(ratio, (psi0_deg / 360.0) % 1.0, n_tot, kappa, kappa,
                            measured_shape(), KBAR)
    return resolve_timeline(spec)


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {verdict}  {detail}")
    return ok


def classical_energy(timeline, params, n_traj):
    samples = run_classical_ensemble(timeline, params, n_traj, n_workers=WORKERS)
    return samples, energy(samples), energy_stderr(samples)


def quantum_energy(timeline, params, n_traj):
    result = run_mcwf_trajectories(timeline, params, n_traj, n_workers=WORKERS)
    return result, float(np.mean(result.energies)), mean_stderr(result.energies)


def quantum_distribution(result):
    return MomentumDistribution.from_samples(result.momenta, weights=result.weights)


def test_criterion_1_elliptic_correctness():
    rng = np.random.default_rng(1001)
    u = rng.uniform(-30.0, 30.0, 100000)
    m = rng.uniform(0.0, 1.0, 100000)
    sn, cn, dn = _ellipj(u, m)  # the Jacobi functions the pendulum kernel runs on
    id1 = float(np.max(np.abs(sn**2 + cn**2 - 1.0)))
    id2 = float(np.max(np.abs(dn**2 + m * sn**2 - 1.0)))

    n = 10000
    phi = rng.uniform(-np.pi, np.pi, n)
    rho = rng.uniform(-60.0, 60.0, n)
    k = rng.uniform(0.0, 700.0, n)
    dt = rng.uniform(1e-4, 2e-3, n)
    p_exact, r_exact = pendulum_step(phi, rho, k, dt)
    p_ref, r_ref = _pendulum_reference_batch(phi, rho, k, dt)
    dphi = float(np.max(np.abs(np.angle(np.exp(1j * (p_exact - p_ref))))))
    drho = float(np.max(np.abs(r_exact - r_ref)))

    ok = id1 < 1e-12 and id2 < 1e-12 and dphi < 1e-9 and drho < 1e-9
    assert report(
        1, "elliptic correctness", ok,
        f"identity errors {id1:.2e}/{id2:.2e}; pendulum vs oracle {dphi:.2e}/{drho:.2e}",
    )


def test_criterion_2_quantum_unitarity_and_oracle():
    # norm drift over 100 eta=0 kicks on the production grid
    spec = single_train_spec(100, 10.1, PulseShapeParams.square(0.016), KBAR)
    tl = resolve_timeline(spec)
    psi = init_wavefunction(1024, 0.1 * KBAR, KBAR)
    prev_end = None
    for pulse in tl.pulses:
        if prev_end is not None:
            psi = free_propagate(psi, pulse.start - prev_end)
        for kj in pulse.k_mid:
            psi = kick_step(psi, kj, 0.0, pulse.step)
        prev_end = pulse.end
    drift = abs(psi.norm_sq() - 1.0)

    # split step against dense matrix exponentiation, 3 kicks, random
    # kappa in [1, 5], decay included; piecewise-constant k on both routes
    rng = np.random.default_rng(2002)
    n_max = 128
    width = 0.016
    kappa = float(rng.uniform(1.0, 5.0))
    k_rate = kappa / width
    eta_rate = 0.02 / kappa
    psi2 = init_wavefunction(n_max, 0.4 * KBAR, KBAR)
    q = psi2.q
    vec = to_natural_order(psi2.c)
    u_pulse = dense_kick_propagator(n_max, q, KBAR, k_rate, eta_rate, width)
    n_idx = np.arange(-n_max, n_max)
    u_free = np.exp(-0.5j * (n_idx * KBAR + q) ** 2 * (1.0 - width) / KBAR)
    steps = 4096
    h = width / steps
    for _ in range(3):
        vec = u_free * (u_pulse @ vec)
        for _ in range(steps):
            psi2 = kick_step(psi2, k_rate, eta_rate, h)
        psi2 = free_propagate(psi2, 1.0 - width)
    oracle_err = float(np.linalg.norm(to_natural_order(psi2.c) - vec))

    ok = drift < 1e-10 and oracle_err < 1e-8
    assert report(
        2, "quantum unitarity & oracle", ok,
        f"norm drift {drift:.2e}; dense-propagator error {oracle_err:.2e} (kappa={kappa:.3f})",
    )


def test_criterion_3_quasilinear_diffusion():
    # Ideal ensemble, single train of 30 square pulses, kappa = 10.1.  The
    # periodically kicked map carries kick-to-kick correlations, so the
    # energy is the quasilinear value N kappa^2 / (4 kbar^2) times the
    # Rechester-White factor C = 1 - 2 J2(kappa) + 2 J2(kappa)^2
    # (PRL 44, 1586 (1980)).  kappa = 10.1 sits near a J2 maximum, where
    # C ~ 0.62; the companion test below checks the same formula at a J2
    # zero, where C ~ 1.
    spec = single_train_spec(30, 10.1, PulseShapeParams.square(0.016), KBAR)
    tl = resolve_timeline(spec)
    params = ensemble(0.0, 3003, temperature_uk=0.0)
    _, e, se = classical_energy(tl, params, 10000)
    quasilinear = 30 * 10.1**2 / (4 * KBAR**2)
    corr = 1 - 2 * jv(2, 10.1) + 2 * jv(2, 10.1) ** 2
    target = quasilinear * corr
    ok = abs(e - target) <= 0.10 * target
    assert report(
        3, "correlated quasilinear diffusion", ok,
        f"E = {e:.1f} +- {se:.1f} vs Rechester-White {target:.1f} +- 10% "
        f"(C = {corr:.3f}); quasilinear {quasilinear:.1f} for information",
    )


def test_criterion_3_companion_quasilinear_at_correlation_free_kick():
    # At kappa = 11.62 (a zero of J2) the kick-to-kick correlations
    # cancel and the same pipeline does reproduce N kappa^2/(4 kbar^2).
    kappa = 11.62
    spec = single_train_spec(30, kappa, PulseShapeParams.square(0.0016), KBAR)
    tl = resolve_timeline(spec)
    params = ensemble(0.0, 3103, temperature_uk=0.0)
    _, e, se = classical_energy(tl, params, 10000)
    target = 30 * kappa**2 / (4 * KBAR**2)
    ok = abs(e - target) <= 0.10 * target
    assert report(
        3, "quasilinear at J2 zero (companion, informative)", ok,
        f"E = {e:.1f} +- {se:.1f} vs quasilinear {target:.1f} +- 10%",
    )


@pytest.fixture(scope="module")
def rational_point():
    """Criterion 4's ensembles at r = 1, psi0 = 180 deg, run once per module.

    Criterion 4 asserts dynamical localisation on them; criterion 7 takes
    its yardstick, the DL suppression (E_cl - E_q)/E_cl, from them.
    Returns (classical samples, E_cl, se_cl, quantum result, E_q, se_q).
    """
    tl = two_freq_timeline(1.0, 180.0, 30, 10.1)
    params = ensemble(0.028, 4004)
    samples, e_cl, se_cl = classical_energy(tl, params, 40000)
    q_result, e_q, se_q = quantum_energy(tl, params, 1000)
    return samples, e_cl, se_cl, q_result, e_q, se_q


def test_criterion_4_dynamical_localisation(rational_point):
    samples, e_cl, se_cl, q_result, e_q, se_q = rational_point
    gap_sigmas = (e_cl - e_q) / math.sqrt(se_cl**2 + se_q**2)
    cl_class = classify_lineshape(
        MomentumDistribution.from_samples(samples)
    ).lineshape_class
    q_class = classify_lineshape(quantum_distribution(q_result)).lineshape_class
    ok = (
        gap_sigmas > 3.0
        and q_class == LINESHAPE_EXPONENTIAL
        and cl_class == LINESHAPE_GAUSSIAN
    )
    assert report(
        4, "dynamical localisation", ok,
        f"E_cl = {e_cl:.1f}+-{se_cl:.1f}, E_q = {e_q:.1f}+-{se_q:.1f} "
        f"({gap_sigmas:.0f} sigma); lineshapes quantum={q_class}, classical={cl_class}",
    )


def test_criterion_5_overlap_doubling():
    params = ensemble(0.03, 5005)
    _, e_overlap, _ = classical_energy(two_freq_timeline(1.0, 0.0, 30, 17.7), params, 10000)
    plateau = []
    for psi0 in [150.0, 165.0, 180.0, 195.0, 210.0]:
        _, e, _ = classical_energy(two_freq_timeline(1.0, psi0, 30, 17.7), params, 10000)
        plateau.append(e)
    ratio = e_overlap / float(np.mean(plateau))
    ok = 1.5 <= ratio <= 2.5
    assert report(
        5, "overlap doubling", ok,
        f"E(0 deg) = {e_overlap:.1f}, plateau mean = {np.mean(plateau):.1f}, ratio = {ratio:.2f}",
    )


def test_criterion_6_kam_suppression():
    params = ensemble(0.028, 6006)
    tl_kam = two_freq_timeline(1.0, 34.3, 30, 10.1)
    tl_mid = two_freq_timeline(1.0, 180.0, 30, 10.1)
    _, e_cl_kam, _ = classical_energy(tl_kam, params, 10000)
    _, e_cl_mid, _ = classical_energy(tl_mid, params, 10000)
    _, e_q_kam, _ = quantum_energy(tl_kam, params, 1000)
    ok = e_cl_kam < 0.7 * e_cl_mid and e_q_kam < 0.7 * e_cl_mid
    assert report(
        6, "KAM suppression", ok,
        f"E(34.3 deg): classical {e_cl_kam:.1f}, quantum {e_q_kam:.1f}; "
        f"0.7 x E(180 deg classical) = {0.7 * e_cl_mid:.1f}",
    )


def test_criterion_7_irrational_ratio_flatness(rational_point):
    # "No significant quantum effect" at an irrational ratio means no
    # dynamical localisation, not E_q = E_cl: at kbar = 3.12 the quantum
    # correction to the kick correlations (Shepelyansky, Physica D 28, 103
    # (1987)) moves E_q off E_cl by a few percent, with a sign that depends
    # on psi0.  Bound: at every psi0, (|E_q - E_cl| + 2 sigma)/E_cl stays
    # below half the DL suppression (E_cl - E_q)/E_cl measured at
    # criterion 4's rational point (same kappa, kbar and eta), so the
    # quantum energy lies nearer the classical value than a localised one
    # would; and no quantum lineshape is exponential.
    _, e_cl_dl, _, _, e_q_dl, _ = rational_point
    bound = 0.5 * (e_cl_dl - e_q_dl) / e_cl_dl
    root2 = math.sqrt(2.0)
    params = ensemble(0.028, 7007)
    classes = []
    details = []
    ok = True
    for psi0 in [30.0, 100.0, 170.0, 240.0, 310.0]:
        tl = two_freq_timeline(root2, psi0, 30, 10.1)
        _, e_cl, se_cl = classical_energy(tl, params, 10000)
        q_result, e_q, se_q = quantum_energy(tl, params, 1000)
        combined = math.sqrt(se_cl**2 + se_q**2)
        gap = e_q - e_cl
        rel = (abs(gap) + 2.0 * combined) / e_cl
        q_class = classify_lineshape(quantum_distribution(q_result)).lineshape_class
        classes.append(q_class)
        details.append(
            f"psi0={psi0:.0f}: dE={gap:+.2f} ({gap / combined:+.2f} sigma, rel {rel:.3f})"
        )
        if rel >= bound or q_class == LINESHAPE_EXPONENTIAL:
            ok = False
    assert report(
        7, "irrational-ratio flatness", ok,
        "; ".join(details) + f"; bound {bound:.3f} (half the rational-ratio DL "
        f"suppression); quantum lineshapes {classes}",
    )


def test_criterion_8_zero_velocity_peaks():
    inv_root2 = 1.0 / math.sqrt(2.0)
    epsilon = 1.0

    def zvf_for(engine, r_prime, psi0_prime, seed):
        ratio = 1.0 / r_prime
        psi0 = psi0_prime * ratio
        tl = two_freq_timeline(ratio, psi0, 50, 10.0)
        params = ensemble(0.028, seed)
        if engine == "classical":
            samples, _, _ = classical_energy(tl, params, 10000)
            dist = MomentumDistribution.from_samples(samples)
        else:
            result, _, _ = quantum_energy(tl, params, 1000)
            dist = quantum_distribution(result)
        return zero_velocity_fraction(dist, epsilon)

    cl_rational = zvf_for("classical", 1.0, 52.0, 8008)
    cl_irrational = zvf_for("classical", inv_root2, 52.0, 8008)
    q_rational = zvf_for("quantum", 1.0, 52.0, 8008)
    q_irrational = zvf_for("quantum", inv_root2, 52.0, 8008)
    cl_150 = zvf_for("classical", 1.0, 150.0, 8009)
    q_150 = zvf_for("quantum", 1.0, 150.0, 8009)

    ok = (
        cl_rational > cl_irrational
        and q_rational > q_irrational
        and q_150 > cl_150
    )
    assert report(
        8, "zero-velocity peaks", ok,
        f"psi0'=52: classical {cl_rational:.3f}>{cl_irrational:.3f}, "
        f"quantum {q_rational:.3f}>{q_irrational:.3f}; "
        f"psi0'=150 at r'=1: quantum {q_150:.3f} vs classical {cl_150:.3f}",
    )


def test_criterion_9_determinism_across_workers(tmp_path):
    def emit(workers, out):
        cfg = RunConfig(
            mode="single", engine="both", psi0_deg=52.0, ratio=1.0, n_tot=10,
            n_traj_classical=600, n_traj_quantum=64, n_max=256,
            cloud_sigma_mm=0.5, eta=0.028, seed=99, n_workers=workers,
            output_dir=str(out),
        )
        return emit_outputs(cfg, run(cfg))

    m1 = emit(1, tmp_path / "w1")
    m3 = emit(3, tmp_path / "w3")
    pairs = [(a, b) for a, b in zip(sorted(m1), sorted(m3)) if a.endswith(".csv")]
    identical = all(filecmp.cmp(a, b, shallow=False) for a, b in pairs)
    ok = identical and len(pairs) >= 3
    assert report(
        9, "determinism across workers", ok,
        f"{len(pairs)} CSV files bit-identical between 1 and 3 workers",
    )


def test_criterion_10_soft_calibration_target():
    # Documented, not gating: with beam sigma 0.72 mm and the calibrated
    # cloud sigma 0.82 mm, the irrational-ratio mean energy lands near 41
    # two-photon recoils.
    tl = two_freq_timeline(math.sqrt(2.0), 170.0, 30, 10.1)
    params = ensemble(0.028, 1010, cloud_sigma_mm=0.82)
    _, e, se = classical_energy(tl, params, 10000)
    within = abs(e - 41.0) <= 0.20 * 41.0
    report(
        10, "soft calibration target (non-gating)", within,
        f"E = {e:.1f} +- {se:.1f} vs 41 +- 20% with cloud sigma 0.82 mm",
    )
    # soft target: recorded, never fails the suite
