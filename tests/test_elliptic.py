import mpmath
import numpy as np
import pytest
from scipy.special import ellipj

from aokr.elliptic import _ellipj, _wrap_angle, pendulum_step
from oracles import _pendulum_reference_batch, pendulum_step_reference


class TestPendulumStep:
    def test_free_rotor(self):
        phi, rho = pendulum_step(0.0, 2.0, 0.0, 0.5)
        assert phi == pytest.approx(1.0, abs=1e-15)
        assert rho == 2.0

    def test_wrapping(self):
        phi, rho = pendulum_step(3.0, 1.0, 0.0, 1.0)
        assert phi == pytest.approx(4.0 - 2 * np.pi, abs=1e-14)

    def test_any_phi_is_wrapped_first(self):
        # the kernel reads phi in (-2 pi, 2 pi]; the public step takes any
        # phi, free rows (k = 0) too.  Engine-sized steps (k h <= 1.4):
        # phi + 100 pi is itself rounded by up to 2.8e-14, which a step
        # scales by about 1 + k h
        rng = np.random.default_rng(24)
        phi = rng.uniform(-np.pi, np.pi, 64)
        rho = rng.uniform(-30, 30, 64)
        k = np.where(np.arange(64) < 8, 0.0, rng.uniform(0.1, 700, 64))
        dt = rng.uniform(1e-4, 2e-3, 64)
        p0, r0 = pendulum_step(phi, rho, k, dt)
        for shift in (4 * np.pi, -4 * np.pi, 100 * np.pi):
            p1, r1 = pendulum_step(phi + shift, rho, k, dt)
            assert np.max(np.abs(np.angle(np.exp(1j * (p1 - p0))))) < 1e-12, shift
            assert np.max(np.abs(r1 - r0)) < 1e-12, shift

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
        # m = 1 exactly (k = 4): sin(theta/2) = tanh(2t) and rho = 4 sech(2t)
        for dt in (1e-3, 0.3, 2.0):
            phi, rho = pendulum_step(-np.pi, 4.0, 4.0, dt)
            assert phi == pytest.approx(2 * np.arcsin(np.tanh(2 * dt)) - np.pi, abs=1e-14)
            assert rho == pytest.approx(4 / np.cosh(2 * dt), abs=1e-14)

    def test_near_separatrix_matches_per_row_oracle(self):
        # |m - 1| log-uniform over both branches and both signs of rho,
        # with the start spread over the orbit: engine-sized steps (u = rate
        # * dt in the series regime), then steps up to 0.05 (u up to about
        # 1.3, most rows in the Landen regime) on fewer rows.
        def starts(rng, m, s2, k):
            # s2 = sin^2(theta/2) with theta the angle from the stable point
            half = rng.choice([-1.0, 1.0], m.size) * np.arcsin(np.sqrt(s2))
            rho = rng.choice([-1.0, 1.0], m.size) * 2.0 * np.sqrt(k * (m - s2))
            return _wrap_angle(2.0 * half + np.pi), rho

        for n, dt_max in [(1000, 2e-3), (150, 0.05)]:
            rng = np.random.default_rng(4242)
            gap = 10.0 ** rng.uniform(-13.0, -6.0, n)
            m = np.where(rng.random(n) < 0.5, 1.0 + gap, 1.0 - gap)
            k = rng.uniform(1.0, 700.0, n)
            dt = rng.uniform(1e-4, dt_max, n)
            phi, rho = starts(rng, m, np.minimum(m, 1.0) * rng.random(n), k)
            # librating rows next to the unstable point, where sn -> 1 and the
            # start state must be read off without an ill-conditioned arcsin
            lib_gap = 10.0 ** rng.uniform(-9.0, -6.0, n)  # 1 - m
            kinetic = 10.0 ** rng.uniform(-8.0, -1.0, n) * lib_gap  # rho^2/(4k)
            k_lib = rng.uniform(1.0, 700.0, n)
            dt = np.concatenate([dt, rng.uniform(1e-4, dt_max, n)])
            phi_lib, rho_lib = starts(rng, 1.0 - lib_gap, 1.0 - lib_gap - kinetic, k_lib)
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
                f"near-separatrix error phi {dphi:.2e}, rho {drho:.2e} at steps up to "
                f"{dt_max:g}: _ellipj(rate * dt, m) or the addition theorem lost "
                "accuracy as m -> 1 (TestEllipj checks _ellipj alone)"
            )
            # a row's result does not depend on which rows share the call
            p3, r3 = pendulum_step(phi[::2], rho[::2], k[::2], dt[::2])
            assert np.array_equal(p3, p1[::2]) and np.array_equal(r3, r1[::2])

    def test_mixed_batch_matches_one_row_calls(self, monkeypatch):
        # one call holding every kind of row, each with both signs of rho:
        # free (k = 0), the exact stable fixed point, libration, rotation
        # and both sides of the separatrix within 1e-9 (at phi = -pi,
        # m = rho^2/4k), all through the closed form: no row reaches DOP853
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
        near = np.abs(np.abs(rho) / edge - 1.0) < 1e-9
        assert np.count_nonzero(near) == 8
        ref = [pendulum_step_reference(phi[i], rho[i], k_rate[i], dt[i]) for i in np.flatnonzero(near)]

        def no_reference(*args, **kwargs):
            raise AssertionError("the kernel reached the DOP853 reference")

        monkeypatch.setattr("scipy.integrate.solve_ivp", no_reference)
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
        for i, (p_ref, r_ref) in zip(np.flatnonzero(near), ref):
            assert abs(np.angle(np.exp(1j * (p[i] - p_ref)))) < 1e-12, i
            assert abs(r[i] - r_ref) < 1e-12, i

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            pendulum_step(0.0, 0.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            pendulum_step(0.0, 0.0, 1.0, -0.1)


class TestEllipj:
    """_ellipj against 40-digit mpmath: the series regime (|u| <= 1/16) to a
    few ulps of 1, the Landen and m = 1 regimes beyond it to 1e-14 absolute
    up to |u| = 13 and 1e-12 out to |u| = 1000; any RuntimeWarning fails
    the test."""

    @staticmethod
    def _reference(u, m):
        with mpmath.workdps(40):
            return np.array(
                [[float(mpmath.ellipfun(f, mpmath.mpf(x), m=mpmath.mpf(m))) for x in u]
                 for f in ("sn", "cn", "dn")]
            )

    @pytest.mark.parametrize("m", [0.0, 1e-300, 1e-9, 0.5, 1.0 - 2.0**-53, 1.0])
    def test_matches_mpmath(self, m):
        rng = np.random.default_rng(1916)
        edge = 1.0 / 16.0
        ranges = [
            (0.0, edge, 3e-16, [0.0, edge]),
            (edge, 2.0, 1e-14, [np.nextafter(edge, 1.0)]),
            (2.0, 13.0, 1e-14, [13.0]),
            (13.0, 1e3, 1e-12, [1e3]),
        ]
        for lo, hi, bound, ends in ranges:
            u = np.concatenate([ends, rng.uniform(lo, hi, 40)])
            u = np.concatenate([u, -u])
            got = np.array(_ellipj(u, np.full(u.size, m)))
            err = np.max(np.abs(got - self._reference(u, m)))
            assert err <= bound, f"|u| in [{lo:g}, {hi:g}], m = {m!r}: error {err:.2e}"

    def test_mixed_batch_matches_one_row_calls(self):
        # both regimes, the separatrix and m = 0 in one call: each row's bits
        # are those of its own one-row call
        rng = np.random.default_rng(77)
        u = np.concatenate([rng.uniform(-0.0625, 0.0625, 12), rng.uniform(-20.0, 20.0, 12)])
        m = rng.choice([0.0, 0.3, 1.0 - 1e-12, 1.0], u.size)
        out = np.array(_ellipj(u, m))
        for i in range(u.size):
            one = np.array(_ellipj(u[i:i + 1], m[i:i + 1]))
            assert out[:, i:i + 1].tobytes() == one.tobytes(), i

    def test_cross_checks_cephes(self):
        # scipy's ellipj wherever Cephes itself is accurate: m below its
        # m -> 1 switch and |u| up to 13
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.uniform(-0.0625, 0.0625, 500), rng.uniform(-13.0, 13.0, 500)])
        m = rng.uniform(0.0, 0.99, u.size)
        ours = np.array(_ellipj(u, m))
        theirs = np.array(ellipj(u, m)[:3])
        assert np.max(np.abs(ours - theirs)) < 1e-13


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
