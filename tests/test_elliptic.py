import numpy as np
import pytest
import scipy

from aokr.elliptic import (
    SEPARATRIX_TOL,
    _pendulum_reference_batch,
    _wrap_angle,
    pendulum_step,
    pendulum_step_reference,
)


class TestPendulumStep:
    def test_free_rotor(self):
        phi, rho = pendulum_step(0.0, 2.0, 0.0, 0.5)
        assert phi == pytest.approx(1.0, abs=1e-15)
        assert rho == 2.0

    def test_wrapping(self):
        phi, rho = pendulum_step(3.0, 1.0, 0.0, 1.0)
        assert phi == pytest.approx(4.0 - 2 * np.pi, abs=1e-14)

    def test_stable_fixed_point(self):
        for k in [0.5, 100.0, 631.0]:
            phi, rho = pendulum_step(-np.pi, 0.0, k, 0.37)
            assert phi == pytest.approx(-np.pi, abs=1e-12)
            assert rho == pytest.approx(0.0, abs=1e-12)

    def test_energy_conserved(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p0 = rng.uniform(-np.pi, np.pi)
            r0 = rng.uniform(-40, 40)
            k = rng.uniform(1e-3, 700)
            p1, r1 = pendulum_step(p0, r0, k, rng.uniform(1e-4, 0.5))
            e0 = r0**2 / 2 + k * np.cos(p0)
            e1 = r1**2 / 2 + k * np.cos(p1)
            assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))

    def test_matches_reference_spot(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            p0 = rng.uniform(-np.pi, np.pi)
            r0 = rng.uniform(-50, 50)
            p1, r1 = pendulum_step(p0, r0, 631.0, 0.001)
            p2, r2 = pendulum_step_reference(p0, r0, 631.0, 0.001)
            assert abs(np.angle(np.exp(1j * (p1 - p2)))) < 1e-9
            assert abs(r1 - r2) < 1e-9

    def test_exact_flow_composition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p0 = rng.uniform(-np.pi, np.pi)
            r0 = rng.uniform(-30, 30)
            k = rng.uniform(0.1, 650)
            dt = rng.uniform(1e-4, 0.01)
            pa, ra = pendulum_step(*pendulum_step(p0, r0, k, dt), k, dt)
            pb, rb = pendulum_step(p0, r0, k, 2 * dt)
            assert abs(np.angle(np.exp(1j * (pa - pb)))) < 1e-9
            assert abs(ra - rb) < 1e-9

    def test_separatrix_delegates_without_blowup(self):
        # exactly on the separatrix energy: rho = 2 sqrt(k) at the bottom
        k = 10.0
        phi, rho = pendulum_step(-np.pi, 2 * np.sqrt(k), k, 0.01)
        assert np.isfinite(phi) and np.isfinite(rho)

    def test_near_separatrix_matches_per_row_oracle(self):
        # |m - 1| log-uniform over both branches and both signs of rho,
        # with the start spread over the orbit.  Cephes ellipj switches
        # to an approximation for m >= 1 - 1e-10 that is wrong near
        # u ~ K; the DOP853 band must cover that window.
        rng = np.random.default_rng(4242)

        def starts(m, s2, k):
            # s2 = sin^2(theta/2) with theta the angle from the stable point
            half = rng.choice([-1.0, 1.0], m.size) * np.arcsin(np.sqrt(s2))
            rho = rng.choice([-1.0, 1.0], m.size) * 2.0 * np.sqrt(k * (m - s2))
            return _wrap_angle(2.0 * half + np.pi), rho

        n = 1000
        gap = 10.0 ** rng.uniform(-13.0, -6.0, n)
        m = np.where(rng.random(n) < 0.5, 1.0 + gap, 1.0 - gap)
        k = rng.uniform(1.0, 700.0, n)
        dt = rng.uniform(1e-4, 2e-3, n)
        phi, rho = starts(m, np.minimum(m, 1.0) * rng.random(n), k)
        # librating rows next to the unstable point, where sn -> 1 and the
        # start amplitude must be inverted without an ill-conditioned arcsin
        lib_gap = 10.0 ** rng.uniform(-9.0, -6.0, n)  # 1 - m
        kinetic = 10.0 ** rng.uniform(-8.0, -1.0, n) * lib_gap  # rho^2/(4k)
        k_lib = rng.uniform(1.0, 700.0, n)
        dt = np.concatenate([dt, rng.uniform(1e-4, 2e-3, n)])
        phi_lib, rho_lib = starts(1.0 - lib_gap, 1.0 - lib_gap - kinetic, k_lib)
        phi, rho, k = np.hstack([[phi, rho, k], [phi_lib, rho_lib, k_lib]])
        n = phi.size

        p1, r1 = pendulum_step(phi, rho, k, dt)
        p2 = np.empty(n)
        r2 = np.empty(n)
        for i in range(n):
            row = slice(i, i + 1)
            (p2[i],), (r2[i],) = _pendulum_reference_batch(phi[row], rho[row], k[row], dt[row])
        dphi = np.max(np.abs(np.angle(np.exp(1j * (p1 - p2)))))
        drho = np.max(np.abs(r1 - r2))
        assert dphi < 1e-9 and drho < 1e-9, (
            f"near-separatrix error phi {dphi:.2e}, rho {drho:.2e} with "
            f"SEPARATRIX_TOL={SEPARATRIX_TOL:g}, scipy {scipy.__version__}: "
            "Cephes ellipj switches to its m -> 1 approximation at "
            "m >= 1 - 1e-10; if this scipy moved that switch, widen the band"
        )
        # a row's result does not depend on which rows share the call
        p3, r3 = pendulum_step(phi[::2], rho[::2], k[::2], dt[::2])
        assert np.array_equal(p3, p1[::2]) and np.array_equal(r3, r1[::2])

    def test_mixed_batch_matches_one_row_calls(self):
        # one call holding every kind of row, each with both signs of rho:
        # free (k = 0), the exact stable fixed point, libration, rotation
        # and both sides of the separatrix band (at phi = -pi, m = rho^2/4k)
        rng = np.random.default_rng(808)
        k = 40.0
        edge = 2.0 * np.sqrt(k)
        rows = []
        for sign in (1.0, -1.0):
            free_starts = zip(rng.uniform(-np.pi, np.pi, 4), rng.uniform(0, 30, 4))
            rows += [(p, sign * r, 0.0) for p, r in free_starts]
            rows += [(-np.pi, sign * 0.0, k), (np.pi, sign * 0.0, k)]
            rows += [(p, sign * 1.0, k) for p in rng.uniform(-np.pi, -2.0, 4)]  # libration
            rows += [(p, sign * 30.0, k) for p in rng.uniform(-np.pi, np.pi, 4)]  # rotation
            rows += [(-np.pi, sign * edge * (1.0 + g), k) for g in (-1e-11, 1e-11, -4e-10, 4e-10)]
        phi, rho, k_rate = np.array(rows).T
        dt = rng.uniform(1e-4, 2e-2, phi.size)
        p, r = pendulum_step(phi, rho, k_rate, dt)
        for i in range(phi.size):
            row = slice(i, i + 1)
            p1, r1 = pendulum_step(phi[row], rho[row], k_rate[row], dt[row])
            assert p[row].tobytes() == p1.tobytes() and r[row].tobytes() == r1.tobytes(), i
        free = k_rate == 0.0
        assert _wrap_angle(phi + rho * dt)[free].tobytes() == p[free].tobytes()
        assert rho[free].tobytes() == r[free].tobytes()
        fixed = (k_rate > 0) & (rho == 0.0)
        assert np.all(p[fixed] == -np.pi) and np.all(r[fixed] == 0.0)
        band = np.abs(np.abs(rho) / edge - 1.0) < 1e-9
        assert np.count_nonzero(band) == 8
        for i in np.flatnonzero(band):
            assert (p[i], r[i]) == pendulum_step_reference(phi[i], rho[i], k_rate[i], dt[i])

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            pendulum_step(0.0, 0.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            pendulum_step(0.0, 0.0, 1.0, -0.1)


class TestPendulumReference:
    def test_free_map(self):
        phi, rho = pendulum_step_reference(0.5, 3.0, 0.0, 0.25)
        assert phi == pytest.approx(0.5 + 0.75, abs=1e-10)
        assert rho == pytest.approx(3.0, abs=1e-12)

    def test_harmonic_frequency(self):
        # small oscillation about the stable minimum at frequency sqrt(k):
        # after one harmonic period the state returns to itself up to the
        # O(theta0^2) anharmonic period shift
        k = 631.0
        theta0 = 1e-3
        phi0 = -np.pi + theta0
        period = 2 * np.pi / np.sqrt(k)
        phi, rho = pendulum_step_reference(phi0, 0.0, k, period)
        assert abs(phi - phi0) < 1e-6 * theta0
        assert abs(rho) < 1e-6 * np.sqrt(k) * theta0

    def test_cross_oracle_batch(self):
        rng = np.random.default_rng(2024)
        n = 2000
        phi = rng.uniform(-np.pi, np.pi, n)
        rho = rng.uniform(-60, 60, n)
        k = rng.uniform(0.0, 700, n)
        dt = rng.uniform(1e-4, 2e-3, n)
        p1, r1 = pendulum_step(phi, rho, k, dt)
        p2, r2 = _pendulum_reference_batch(phi, rho, k, dt)
        assert np.max(np.abs(np.angle(np.exp(1j * (p1 - p2))))) < 1e-9
        assert np.max(np.abs(r1 - r2)) < 1e-9
