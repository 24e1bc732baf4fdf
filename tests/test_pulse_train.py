import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aokr import pulse_train
from aokr.pulse_train import (
    PulseShapeParams,
    TwoFreqTrainSpec,
    build_train_spec,
    resolve_timeline,
    unit_pulse_area,
)
from aokr.pulse_train import _edge_bracket, _raw_envelope, _rising_edge, _threshold_window
from oracles import (
    brentq_threshold_window,
    brute_force_split,
    envelope_area_quadrature,
    pulse_envelope,
    single_train_spec,
)

KBAR = 3.12


def measured_shape(t1_us=30.0):
    return PulseShapeParams.from_physical_ns(104.0, 121.0, 396.0, t1_us)


class TestShapeParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            PulseShapeParams(0.001, 0.001, 0.0)
        with pytest.raises(ValueError):
            PulseShapeParams(0.001, 0.001, 0.01, on_threshold_fraction=0.5)
        with pytest.raises(ValueError):
            PulseShapeParams(-0.001, 0.001, 0.01)

    def test_physical_conversion(self):
        shape = measured_shape()
        assert shape.fwhm == pytest.approx(396e-9 / 30e-6)
        assert shape.rise_time == pytest.approx(104e-9 / 30e-6)


class TestEnvelope:
    """The quadrature oracle's envelope, which the step-area tests integrate."""

    def test_zero_far_before(self):
        shape = measured_shape()
        assert pulse_envelope(-1.0, 5.0, shape) == 0.0
        assert pulse_envelope(+1.0, 5.0, shape) == 0.0

    def test_half_maximum_at_leading_edge(self):
        shape = measured_shape()
        assert pulse_envelope(-shape.fwhm / 2, 4.0, shape) == pytest.approx(2.0, rel=1e-4)

    def test_plateau_reaches_k_max(self):
        shape = measured_shape()
        assert pulse_envelope(0.0, 4.0, shape) == pytest.approx(4.0, rel=1e-3)

    def test_clamped_below_threshold(self):
        shape = measured_shape()
        on, off = _threshold_window(shape)
        assert pulse_envelope(on - 1e-6, 1.0, shape) == 0.0
        assert pulse_envelope(on + 1e-6, 1.0, shape) >= 0.1 * (1 - 1e-3)

    def test_square_profile(self):
        shape = PulseShapeParams(0.0, 0.0, 0.016)
        assert pulse_envelope(0.0, 631.25, shape) == 631.25
        assert pulse_envelope(0.0079, 631.25, shape) == 631.25
        assert pulse_envelope(0.0081, 631.25, shape) == 0.0


def random_shapes(seed, n, log_threshold):
    """n shapes whose peak clears the threshold: FWHM log-uniform in [1e-4, 1],
    rise and fall uniform in [0, 5 FWHM] (each exactly 0 one time in five),
    threshold in [1e-6, 0.499], uniform or log-uniform."""
    rng = np.random.default_rng(seed)
    shapes = []
    while len(shapes) < n:
        fwhm = 10 ** rng.uniform(-4, 0)
        rise, fall = np.where(rng.random(2) < 0.2, 0.0, rng.uniform(0, 5 * fwhm, 2))
        if log_threshold:
            thr = 10 ** rng.uniform(-6, math.log10(0.499))
        else:
            thr = rng.uniform(1e-6, 0.499)
        shape = PulseShapeParams(float(rise), float(fall), fwhm, thr)
        if _raw_envelope(0.0, shape) > thr:
            shapes.append(shape)
    return shapes


class TestEdges:
    def test_edges_match_brentq_oracle(self):
        for shape in random_shapes(11, 300, log_threshold=False):
            on, off = _threshold_window(shape)
            ref_on, ref_off = brentq_threshold_window(
                shape.rise_time, shape.fall_time, shape.fwhm, shape.on_threshold_fraction
            )
            assert abs(on - ref_on) <= 1e-14 and abs(off - ref_off) <= 1e-14, shape
            if shape.rise_time == 0:
                assert on == -0.5 * shape.fwhm
            if shape.fall_time == 0:
                assert off == 0.5 * shape.fwhm

    def test_edges_are_the_envelopes_threshold_crossings(self):
        # Down to thresholds of 1e-6 the computed envelope rounds in steps
        # of about 1e-16, so its crossing is only defined to the float: the
        # edge is on, and the next float outward is off.
        for shape in random_shapes(12, 300, log_threshold=True):
            if shape.rise_time == 0 or shape.fall_time == 0:
                continue
            thr = shape.on_threshold_fraction
            on, off = _threshold_window(shape)
            assert _raw_envelope(on, shape) > thr and _raw_envelope(off, shape) > thr, shape
            assert _raw_envelope(np.nextafter(on, -np.inf), shape) <= thr, shape
            assert _raw_envelope(np.nextafter(off, np.inf), shape) <= thr, shape

    def test_edge_sharper_than_float_resolution(self):
        shape = PulseShapeParams(1e-20, 1e-3, 0.01)
        on, off = _threshold_window(shape)
        assert on == -0.005
        assert _raw_envelope(np.nextafter(off, np.inf), shape) <= 0.1 < _raw_envelope(off, shape)
        sharp = PulseShapeParams(1e-320, 0.0, 0.01)
        assert unit_pulse_area(sharp) == unit_pulse_area(PulseShapeParams(0.0, 0.0, 0.01))

    def test_tiny_edges_evaluate_without_warnings(self):
        # the erf arguments overflow to +-inf, which gives the right values;
        # numpy must not warn about it on every evaluation
        square = PulseShapeParams(0.0, 0.0, 0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for edge in (1e-300, 1e-310):
                shape = PulseShapeParams(edge, edge, 0.01)
                assert unit_pulse_area(shape) == unit_pulse_area(square)
                ours, ref = (
                    resolve_timeline(single_train_spec(1, 0.02, s, KBAR)).pulses[0]
                    for s in (shape, square)
                )
                assert ours.k_mid.tolist() == ref.k_mid.tolist() and ours.step == ref.step


class TestMathErf:
    """The timeline takes erf from math.erf, elementwise, and brackets the
    rising edge in closed form; scipy's Cephes erf is the reference."""

    def test_envelope_and_area_match_scipy_erf(self, monkeypatch):
        shapes = random_shapes(13, 200, log_threshold=True) + [measured_shape()]
        offsets = np.linspace(-1.5, 1.5, 601)  # in units of FWHM plus both edges

        def evaluate():
            _threshold_window.cache_clear()
            return [
                (_raw_envelope(offsets * (s.fwhm + s.rise_time + s.fall_time), s), unit_pulse_area(s))
                for s in shapes
            ]

        ours = evaluate()
        monkeypatch.setattr(pulse_train, "_erf", scipy.special.erf)
        try:
            ref = evaluate()
        finally:
            monkeypatch.undo()
            _threshold_window.cache_clear()
        for shape, (env, area), (env_ref, area_ref) in zip(shapes, ours, ref):
            assert np.max(np.abs(env - env_ref)) <= 1e-15, shape
            assert abs(area - area_ref) <= 1e-15 * area_ref, shape

    def bracket_shapes(self):
        for thr in (1e-6, 0.1, 0.49):
            for rise in np.logspace(-12, 1, 27).tolist():
                yield PulseShapeParams(rise, 1.2 * rise, 0.0132 + 4.0 * rise, thr)

    def test_closed_form_bracket_lies_below_the_crossing(self):
        for shape in self.bracket_shapes():
            lo = _edge_bracket(shape)
            assert _raw_envelope(lo, shape) <= shape.on_threshold_fraction / 2, shape
            assert lo < _rising_edge(shape), shape

    def test_edge_does_not_depend_on_the_bracket(self, monkeypatch):
        # holds on these shapes and the measured one; where the rounded
        # envelope crosses a small threshold at several floats a few ulps
        # apart, another bracket may stop at another of them
        shapes = list(self.bracket_shapes()) + [measured_shape(t1) for t1 in (15.0, 30.0, 60.0)]
        edges = [_rising_edge(s) for s in shapes]
        closed_form = pulse_train._edge_bracket

        def widened(shape):
            return -0.5 * shape.fwhm + 10.0 * (closed_form(shape) + 0.5 * shape.fwhm)

        monkeypatch.setattr(pulse_train, "_edge_bracket", widened)
        for shape, edge in zip(shapes, edges):
            assert _rising_edge(shape) == edge, shape


class TestNormalizeHeight:
    """A train's peak height is its kappa over the shape's unit pulse area."""

    def test_square_pulse_arithmetic(self):
        shape = PulseShapeParams(0.0, 0.0, 0.016)
        assert unit_pulse_area(shape) == pytest.approx(0.016, rel=1e-12)
        (pulse,) = resolve_timeline(single_train_spec(1, 10.1, shape, KBAR)).pulses
        assert pulse.k_mid.max() == pytest.approx(631.25, rel=1e-12)

    def test_negative_kappa_rejected(self):
        with pytest.raises(ValueError, match="kappa1"):
            single_train_spec(5, -1.0, measured_shape(), KBAR)
        with pytest.raises(ValueError, match="kappa1"):
            build_train_spec(1.0, 0.0, 30, -1.0, 1.0, measured_shape(), KBAR)
        with pytest.raises(ValueError, match="kappa2"):
            build_train_spec(1.0, 0.0, 30, 1.0, -1.0, measured_shape(), KBAR)


class TestBuildTrainSpec:
    def test_half_phase_split(self):
        spec = build_train_spec(1.0, 0.5, 30, 10.1, 10.1, measured_shape(), KBAR)
        assert (spec.n_first, spec.n_second) == (15, 15)

    def test_full_overlap_split(self):
        spec = build_train_spec(1.0, 0.0, 30, 10.1, 10.1, measured_shape(), KBAR)
        assert (spec.n_first, spec.n_second) == (15, 15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        shape = measured_shape()
        for _ in range(50):
            r = rng.uniform(0.3, 3.0)
            alpha0 = rng.uniform(0.0, 1.0 - 1e-9)
            n_tot = int(rng.integers(1, 80))
            spec = build_train_spec(r, alpha0, n_tot, 1.0, 1.0, shape, KBAR)
            assert (spec.n_first, spec.n_second) == brute_force_split(r, alpha0, n_tot)

    # n_tot = 3 is the psi0 = 0 point of a 3-kick phase sweep at r = 1
    @pytest.mark.parametrize("n_tot", [1, 3, 5])
    def test_ties_go_to_the_larger_first_train(self, n_tot):
        # at r = 1, alpha0 = 0 two splits share the shortest duration
        splits = range(n_tot + 1)
        durations = [pulse_train._train_duration(n, n_tot - n, 1.0, 0.0) for n in splits]
        assert durations.count(min(durations)) == 2
        spec = build_train_spec(1.0, 0.0, n_tot, 1.0, 1.0, measured_shape(), KBAR)
        assert (spec.n_first, spec.n_second) == brute_force_split(1.0, 0.0, n_tot)

    def test_specific_derived_case(self):
        spec = build_train_spec(1.4, 0.2, 30, 10.1, 10.1, measured_shape(), KBAR)
        assert (spec.n_first, spec.n_second) == brute_force_split(1.4, 0.2, 30)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            build_train_spec(-1.0, 0.0, 30, 1.0, 1.0, measured_shape(), KBAR)
        with pytest.raises(ValueError):
            build_train_spec(1.0, 0.0, 0, 1.0, 1.0, measured_shape(), KBAR)
        with pytest.raises(ValueError):
            build_train_spec(1.0, 1.2, 30, 1.0, 1.0, measured_shape(), KBAR)


class TestResolveTimeline:
    def test_full_overlap_halves_pulse_count_and_doubles_area(self):
        spec = build_train_spec(1.0, 0.0, 30, 10.1, 10.1, measured_shape(), KBAR)
        tl = resolve_timeline(spec)
        assert tl.n_res == 15
        for pulse in tl.pulses:
            assert pulse.area == pytest.approx(20.2, rel=1e-12)
            assert pulse.n_constituents == 2

    def test_half_phase_is_periodic(self):
        spec = build_train_spec(1.0, 0.5, 30, 10.1, 10.1, measured_shape(), KBAR)
        tl = resolve_timeline(spec)
        assert tl.n_res == 30
        starts = np.array([p.start for p in tl.pulses])
        assert np.allclose(np.diff(starts), 0.5, atol=1e-12)
        gaps = np.array([b.start - a.end for a, b in zip(tl.pulses, tl.pulses[1:])])
        assert np.allclose(gaps, gaps[0], atol=1e-12)

    def test_single_train_square_grid(self):
        spec = single_train_spec(8, 10.1, PulseShapeParams(0.0, 0.0, 0.016), KBAR)
        tl = resolve_timeline(spec)
        assert tl.n_res == 8
        for pulse in tl.pulses:
            assert pulse.n_steps == 16
            assert np.allclose(pulse.k_mid, 631.25, rtol=1e-12, atol=0.0)

    def test_zero_kappa_train_resolves_to_no_pulses(self):
        assert resolve_timeline(single_train_spec(5, 0.0, measured_shape(), KBAR)).n_res == 0
        spec = build_train_spec(1.0, 0.5, 6, 0.0, 10.1, measured_shape(), KBAR)
        tl = resolve_timeline(spec)
        assert tl.n_res == spec.n_second
        assert all(train == 2 for p in tl.pulses for train, _ in p.constituents)

    def test_peak_height_against_quadrature_oracle(self):
        shape = measured_shape()
        k_max = 10.1 / unit_pulse_area(shape)
        on, off = _threshold_window(shape)
        area = envelope_area_quadrature(lambda t: pulse_envelope(t, k_max, shape), on, off)
        assert abs(area - 10.1) < 1e-8

    def test_area_conservation_random_configs(self):
        rng = np.random.default_rng(4)
        shape = measured_shape()
        for _ in range(25):
            r = rng.uniform(0.4, 2.5)
            alpha0 = rng.uniform(0.0, 1.0 - 1e-9)
            k1 = rng.uniform(0.0, 20.0)
            k2 = rng.uniform(0.1, 20.0)
            spec = build_train_spec(r, alpha0, int(rng.integers(2, 40)), k1, k2, shape, KBAR)
            tl = resolve_timeline(spec)
            expected = spec.n_first * k1 + spec.n_second * k2
            if expected == 0:
                assert tl.n_res == 0
            else:
                assert sum(p.area for p in tl.pulses) == pytest.approx(expected, rel=1e-6)

    def test_overlap_area_against_quadrature(self):
        spec = build_train_spec(1.0, 0.0, 4, 10.1, 10.1, measured_shape(), KBAR)
        tl = resolve_timeline(spec)
        pulse = tl.pulses[0]
        shape = spec.shape
        k_max = 10.1 / unit_pulse_area(shape)
        area = envelope_area_quadrature(
            lambda t: sum(pulse_envelope(t - c, k_max, shape) for _, c in pulse.constituents),
            pulse.start,
            pulse.end,
        )
        assert area == pytest.approx(pulse.area, rel=1e-9)

    # isolated pulses at 180 degrees, full overlap at 0 and partial overlap at 1
    @pytest.mark.parametrize("psi0_deg", [180.0, 0.0, 1.0])
    def test_step_areas_against_quadrature(self, psi0_deg):
        spec = build_train_spec(1.0, psi0_deg / 360.0, 4, 10.1, 10.1, measured_shape(), KBAR)
        shape = spec.shape
        k_max = 10.1 / unit_pulse_area(shape)
        on, off = _threshold_window(shape)
        for pulse in resolve_timeline(spec).pulses:
            centres = [c for _, c in pulse.constituents]
            breaks = [c + edge for c in centres for edge in (on, off)]
            for j, k_j in enumerate(pulse.k_mid):
                ref = envelope_area_quadrature(
                    lambda t: sum(pulse_envelope(t - c, k_max, shape) for c in centres),
                    pulse.start + j * pulse.step,
                    pulse.start + (j + 1) * pulse.step,
                    breaks,
                )
                assert pulse.step * k_j == pytest.approx(ref, rel=1e-10), (pulse.start, j)

    def test_overlap_lengthened_pulse_keeps_step_size(self):
        # alpha0 small enough that windows overlap partially
        shape = measured_shape()
        on, off = _threshold_window(shape)
        width = off - on
        alpha0 = width / 2
        spec = build_train_spec(1.0, alpha0, 10, 10.1, 10.1, shape, KBAR)
        tl = resolve_timeline(spec, 16)
        base = width / 16
        for pulse in tl.pulses:
            assert pulse.n_steps >= 16
            assert pulse.step <= base * (1 + 1e-12)

    def test_refined_grid_has_shorter_steps(self):
        spec = single_train_spec(3, 10.1, measured_shape(), KBAR)
        tl16 = resolve_timeline(spec, 16)
        tl32 = resolve_timeline(spec, 32)
        assert tl32.pulses[0].n_steps == 2 * tl16.pulses[0].n_steps

    def test_envelope_nonnegative(self):
        spec = build_train_spec(1.37, 0.41, 12, 8.0, 11.0, measured_shape(), KBAR)
        tl = resolve_timeline(spec)
        for pulse in tl.pulses:
            assert np.all(pulse.k_mid >= 0)

    def test_pulses_disjoint_and_ordered(self):
        spec = build_train_spec(1.21, 0.13, 25, 10.0, 10.0, measured_shape(), KBAR)
        tl = resolve_timeline(spec)
        assert tl.n_res <= spec.n_first + spec.n_second
        for a, b in zip(tl.pulses, tl.pulses[1:]):
            assert a.end <= b.start


shapes = st.one_of(
    st.floats(1e-3, 0.5).map(lambda w: PulseShapeParams(0.0, 0.0, w)),
    st.builds(
        lambda rise, fall, fwhm, thr: PulseShapeParams(rise * fwhm, fall * fwhm, fwhm, thr),
        st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        st.floats(1e-3, 0.5),
        st.floats(1e-3, 0.45),
    ).filter(lambda s: _raw_envelope(0.0, s) > s.on_threshold_fraction),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    r=st.floats(0.3, 3.0),
    psi0_deg=st.floats(0.0, 359.9),
    n_tot=st.integers(1, 40),
    kappa1=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    kappa2=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    shape=shapes,
    min_steps=st.integers(1, 40),
)
# near-coincident pairs: centres 24 and 24 + 4e-15, and 0 and 2.8e-11
@example(1.3, 216.0, 100, 1.0, 1.0, PulseShapeParams(0.0, 0.0, 0.0016), 8)
@example(1.0, 1e-8, 2, 1.0, 1.0, PulseShapeParams(0.0, 0.0, 0.5), 1)
# square windows as wide as train 2's period: the two resultant pulses lie one
# ulp apart, so an end derived as start + n_steps * step can round onto the next start
@example(0.30177486690346206, 0.0, 7, 0.0, 1.0, PulseShapeParams(0.0, 0.0, 0.30177486690346206), 1)
def test_resolved_timeline_properties(r, psi0_deg, n_tot, kappa1, kappa2, shape, min_steps):
    spec = build_train_spec(r, psi0_deg / 360.0, n_tot, kappa1, kappa2, shape, KBAR)
    tl = resolve_timeline(spec, min_steps)
    on, off = _threshold_window(shape)
    for a, b in zip(tl.pulses, tl.pulses[1:]):
        assert a.start < a.end < b.start
    expected = spec.n_first * kappa1 + spec.n_second * kappa2
    assert sum(p.area for p in tl.pulses) == pytest.approx(expected, rel=1e-12)
    for pulse in tl.pulses:
        assert pulse.n_steps >= min_steps
        if pulse.n_constituents == 1:
            assert pulse.n_steps == min_steps
        assert pulse.step <= (off - on) / min_steps * (1 + 1e-12)
        # a subnormal kappa such as 5e-324 underflows to an all-zero table
        if pulse.area > 1e-300:
            assert pulse.step * pulse.k_mid.sum() == pytest.approx(pulse.area, rel=1e-12)
    for train in (1, 2):
        isolated = [p for p in tl.pulses if p.n_constituents == 1 and p.constituents[0][0] == train]
        assert len({(p.k_mid.tobytes(), p.step) for p in isolated}) <= 1


class TestSpecValidation:
    def test_alpha0_range(self):
        with pytest.raises(ValueError):
            TwoFreqTrainSpec(1.0, 1.0, 5, 5, 1.0, 1.0, measured_shape(), KBAR)

    def test_kbar_positive(self):
        with pytest.raises(ValueError):
            TwoFreqTrainSpec(1.0, 0.0, 5, 5, 1.0, 1.0, measured_shape(), 0.0)
