"""Two-frequency pulse trains and their overlap-resolved timeline.

A run consists of two interleaved trains of optical pulses: train 1 kicks
at scaled times tau = 0, 1, ..., N-1 and train 2 at tau = alpha0 + r*m for
m = 0, ..., M-1.  Each pulse carries the same empirical envelope

    k(t) = (k_max/2) [erf((t - t1) sqrt(pi)/dt1) - erf((t - t2) sqrt(pi)/dt2)]

with t2 - t1 the FWHM; the pulse is deemed on only where the envelope
exceeds a threshold fraction of k_max (10% by default) and is zero
elsewhere.  Both edges of that on window come from one bisection (the
falling edge is the rising edge of the mirrored shape), bracketed in
closed form.  erf is math.erf applied elementwise, so building a
timeline, or validating a config, loads no scipy.  k_max is
normalised so that the on-window area equals the kick strength kappa.
Overlapping pulses add pointwise, so a resolved timeline can contain
fewer, taller or longer resultant pulses than the two trains supplied;
it holds only those pulses, each with the step grid the engines run on.
One closed-form antiderivative of the envelope gives both k_max and each
step's mean strength, so a pulse's steps deliver its kappa to rounding.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

DEFAULT_ON_THRESHOLD = 0.10
DEFAULT_MIN_STEPS = 16

# elementwise math.erf: the timeline's erf without loading scipy
_erf = np.vectorize(math.erf, otypes=[float])


@dataclass(frozen=True)
class PulseShapeParams:
    """Envelope parameters in scaled time (physical time / T1).

    rise_time and fall_time follow the tangent-at-half-maximum convention:
    a straight line from 0 to 100% of the height over rise_time matches
    the slope of the edge at its half-maximum point.  Zero rise/fall time
    gives an ideal square pulse of width fwhm.
    """

    rise_time: float
    fall_time: float
    fwhm: float
    on_threshold_fraction: float = DEFAULT_ON_THRESHOLD

    def __post_init__(self):
        if self.fwhm <= 0:
            raise ValueError("fwhm: must be positive")
        for name in ("rise_time", "fall_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if not (0.0 < self.on_threshold_fraction < 0.5):
            raise ValueError(
                f"on_threshold_fraction: must lie in (0, 0.5), got {self.on_threshold_fraction}"
            )

    @classmethod
    def square(cls, width: float, on_threshold_fraction: float = DEFAULT_ON_THRESHOLD):
        """Ideal square pulse of the given scaled width."""
        return cls(0.0, 0.0, width, on_threshold_fraction)

    @classmethod
    def from_physical_ns(
        cls,
        rise_ns: float,
        fall_ns: float,
        fwhm_ns: float,
        t1_us: float,
        on_threshold_fraction: float = DEFAULT_ON_THRESHOLD,
    ):
        if t1_us <= 0:
            raise ValueError(f"t1_us: must be positive, got {t1_us}")
        scale = 1.0 / (t1_us * 1000.0)
        return cls(rise_ns * scale, fall_ns * scale, fwhm_ns * scale, on_threshold_fraction)


@dataclass(frozen=True)
class TwoFreqTrainSpec:
    """Parameters of the two pulse trains (Hamiltonian level, pre-resolution).

    ratio is the period of train 2 in units of train 1's period; alpha0 is
    the scaled delay of train 2's first pulse (psi0 = alpha0 * 360 degrees).
    """

    ratio: float
    alpha0: float
    n_first: int
    n_second: int
    kappa1: float
    kappa2: float
    shape: PulseShapeParams
    kbar: float

    def __post_init__(self):
        if self.ratio <= 0:
            raise ValueError(f"ratio: must be positive, got {self.ratio}")
        if not (0.0 <= self.alpha0 < 1.0):
            raise ValueError(f"alpha0: must lie in [0, 1), got {self.alpha0}")
        if self.n_first < 0 or self.n_second < 0 or self.n_first + self.n_second < 1:
            raise ValueError("n_first, n_second: must be >= 0 with at least one pulse in total")
        for name in ("kappa1", "kappa2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0, got {getattr(self, name)}")
        if self.kbar <= 0:
            raise ValueError(f"kbar: must be positive, got {self.kbar}")

    def pulse_centers(self):
        """(centers, train_ids) of all constituent pulses, time-ordered."""
        c1 = np.arange(self.n_first, dtype=float)
        c2 = self.alpha0 + self.ratio * np.arange(self.n_second, dtype=float)
        centers = np.concatenate([c1, c2])
        trains = np.concatenate([np.ones(self.n_first, int), np.full(self.n_second, 2)])
        order = np.argsort(centers, kind="stable")
        return centers[order], trains[order]


def _train_duration(n_first: int, n_second: int, ratio: float, alpha0: float) -> float:
    spans = []
    if n_first > 0:
        spans.append(float(n_first - 1))
    if n_second > 0:
        spans.append(alpha0 + ratio * (n_second - 1))
    return max(spans)


def build_train_spec(
    r: float,
    alpha0: float,
    n_total: int,
    kappa1: float,
    kappa2: float,
    shape: PulseShapeParams,
    kbar: float,
) -> TwoFreqTrainSpec:
    """Split n_total kicks between the trains so the run is as short as possible.

    Scans every split N + M = n_total and keeps the one minimising the
    later of the two train end times, max((N-1), alpha0 + (M-1) r).  The
    scan runs from N = n_total down and min keeps the first of equal
    durations, so ties go to the larger N and the split is deterministic.
    The spec checks r, alpha0 and the kick strengths.
    """
    if n_total < 1:  # the scan needs a kick
        raise ValueError(f"n_total: must be >= 1, got {n_total}")
    n = min(range(n_total, -1, -1), key=lambda n: _train_duration(n, n_total - n, r, alpha0))
    return TwoFreqTrainSpec(r, alpha0, n, n_total - n, kappa1, kappa2, shape, kbar)


def _raw_envelope(t_rel, shape: PulseShapeParams):
    """Unclamped unit-height envelope; t_rel measured from the pulse centre."""
    t_rel = np.asarray(t_rel, dtype=float)
    t1 = -0.5 * shape.fwhm
    t2 = 0.5 * shape.fwhm
    # a tiny rise or fall time sends the erf argument to +-inf: erf is then +-1
    with np.errstate(over="ignore", divide="ignore"):
        if shape.rise_time > 0:
            up = _erf((t_rel - t1) * math.sqrt(math.pi) / shape.rise_time)
        else:
            up = np.sign(t_rel - t1)
        if shape.fall_time > 0:
            down = _erf((t_rel - t2) * math.sqrt(math.pi) / shape.fall_time)
        else:
            down = np.sign(t_rel - t2)
    return 0.5 * (up - down)


def _erf_antiderivative(x, delta):
    """Antiderivative of erf(sqrt(pi) x / delta); reduces to |x| for delta = 0
    and for a delta so small that sqrt(pi)/delta overflows."""
    x = np.asarray(x, dtype=float)
    c = math.sqrt(math.pi) / delta if delta > 0 else math.inf
    if c == math.inf:
        return np.abs(x)
    with np.errstate(over="ignore", divide="ignore"):  # exp(-inf) = 0
        return x * _erf(c * x) + (delta / math.pi) * np.exp(-((c * x) ** 2))


def _edge_bracket(shape: PulseShapeParams) -> float:
    """Lower bracket of the rising edge: the envelope there is at most half the threshold.

    The falling erf only lowers the envelope, so it is at most erfc(x)/2
    with x the rising erf's argument counted back from its half-maximum
    point.  erfc(x) <= exp(-x^2) for x >= 0, so x = sqrt(ln(1/thr)) gives
    at most thr/2 in closed form (the factor two clears rounding).
    """
    thr = shape.on_threshold_fraction
    lo = -0.5 * shape.fwhm - shape.rise_time / math.sqrt(math.pi) * math.sqrt(math.log(1.0 / thr))
    return math.nextafter(lo, -math.inf)


def _rising_edge(shape: PulseShapeParams) -> float:
    """Offset from the pulse centre where the envelope first exceeds the on threshold.

    Bisects from _edge_bracket to the centre until the midpoint equals an
    end, which leaves the envelope above threshold at the edge, and not a
    float before.  Where the rounded envelope crosses the threshold at
    several floats a few ulps apart (small thresholds, long edges), the
    bracket decides which of them the bisection stops at.
    """
    if shape.rise_time == 0:
        return -0.5 * shape.fwhm
    thr = shape.on_threshold_fraction
    lo = _edge_bracket(shape)
    hi = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if _raw_envelope(mid, shape) > thr:
            hi = mid
        else:
            lo = mid


@lru_cache(maxsize=64)
def _threshold_window(shape: PulseShapeParams):
    """(on, off) offsets from the pulse centre where the envelope crosses
    the on-threshold; the pulse is defined to be zero outside.

    erf is odd, so the falling edge is exactly the mirror image of the
    rising edge of the shape with rise and fall times swapped.
    """
    peak = float(_raw_envelope(0.0, shape))
    if peak <= shape.on_threshold_fraction:
        raise ValueError(
            f"fwhm: must give a peak above the on threshold, but with rise time "
            f"{shape.rise_time:.4g} and fall time {shape.fall_time:.4g} (units of T1) "
            f"the envelope peaks at {peak:.3g} against threshold {shape.on_threshold_fraction:g}"
        )
    mirrored = replace(shape, rise_time=shape.fall_time, fall_time=shape.rise_time)
    return _rising_edge(shape), -_rising_edge(mirrored)


def _envelope_antiderivative(t_rel, shape: PulseShapeParams):
    """Antiderivative of the unclamped unit-height envelope, t_rel measured
    from the pulse centre: the area of a pulse or a step is its difference."""
    up = _erf_antiderivative(t_rel + 0.5 * shape.fwhm, shape.rise_time)
    down = _erf_antiderivative(t_rel - 0.5 * shape.fwhm, shape.fall_time)
    return 0.5 * (up - down)


def unit_pulse_area(shape: PulseShapeParams) -> float:
    """Area of the clamped unit-height envelope: the closed-form integral
    of the unclamped envelope over the on window (relative error at
    machine level).  A train of strength kappa has peak kappa / area."""
    on, off = _threshold_window(shape)
    at_on, at_off = _envelope_antiderivative(np.array([on, off]), shape)
    return float(at_off - at_on)


@dataclass(frozen=True)
class ResultantPulse:
    """One maximal on interval [start, end] (absolute times) of the summed
    envelope, with its grid of n_steps steps of length step.  k_mid[j] is
    step j's mean strength: the constituents' exact integral over the
    step, each clipped to its own on window, divided by step.  area is
    their summed kappa, which step * k_mid.sum() equals to rounding;
    constituents lists (train_id, centre) of every pulse in the interval.
    """

    start: float
    end: float
    k_mid: np.ndarray  # once midpoint samples; the name stays for bench/probes.py
    step: float
    area: float
    constituents: tuple

    @property
    def n_steps(self) -> int:
        return len(self.k_mid)

    @property
    def n_constituents(self) -> int:
        return len(self.constituents)


@dataclass(frozen=True)
class ResolvedTimeline:
    """The two trains as time-ordered, disjoint resultant pulses with step grids."""

    pulses: tuple

    @property
    def n_res(self) -> int:
        return len(self.pulses)


def resolve_timeline(
    spec: TwoFreqTrainSpec, min_steps_per_pulse: int = DEFAULT_MIN_STEPS
) -> ResolvedTimeline:
    """Merge the two trains into disjoint resultant pulses with step grids.

    The summed envelope is on exactly on the union of the constituent on
    windows (each constituent is clamped to its own window), so resultant
    pulses are the connected components of that union.  Every component
    gets a uniform grid of min_steps_per_pulse steps plus one step per
    single-pulse step, or part of one, that its constituents' centres
    spread over.  An isolated or exactly coincident pulse thus has
    min_steps_per_pulse steps, and no step exceeds the single-pulse step,
    so overlap-lengthened pulses are sampled at least as finely.  Steps are
    laid from the first constituent's centre, so pulses of one layout (the
    isolated pulses of a train) share bitwise-equal k_mid and step.  Each
    train's peak height is its kappa over the one unit pulse area of the
    shape; a kappa = 0 train contributes no pulses.
    """
    if min_steps_per_pulse < 1:
        raise ValueError(f"min_steps_per_pulse: must be >= 1, got {min_steps_per_pulse}")
    kappa = {1: spec.kappa1, 2: spec.kappa2}
    area = unit_pulse_area(spec.shape)
    kmax = {tr: k / area for tr, k in kappa.items()}
    on, off = _threshold_window(spec.shape)
    base_step = (off - on) / min_steps_per_pulse

    centers, trains = spec.pulse_centers()
    live = [(c, int(tr)) for c, tr in zip(centers, trains) if kmax[int(tr)] > 0]

    groups = []
    for c, tr in live:
        w_start, w_end = c + on, c + off
        if groups and w_start <= groups[-1][1]:
            prev_start, prev_end, members = groups[-1]
            groups[-1] = (prev_start, max(prev_end, w_end), members + [(tr, c)])
        else:
            groups.append((w_start, w_end, [(tr, c)]))

    pulses = []
    shape = spec.shape
    for start, end, members in groups:
        offsets = [c - members[0][1] for _, c in members]
        n_steps = min_steps_per_pulse + math.ceil(offsets[-1] / base_step)
        step = float(offsets[-1] + off - on) / n_steps
        edges = on + step * np.arange(n_steps + 1)
        k_mid = np.zeros(n_steps)
        for (tr, _), d in zip(members, offsets):
            steps_area = np.diff(_envelope_antiderivative(np.clip(edges - d, on, off), shape))
            k_mid += kmax[tr] * (steps_area / step)
        pulses.append(
            ResultantPulse(
                start=float(start),
                end=float(end),
                k_mid=k_mid,
                step=step,
                area=float(sum(kappa[tr] for tr, _ in members)),
                constituents=tuple(members),
            )
        )

    return ResolvedTimeline(pulses=tuple(pulses))

