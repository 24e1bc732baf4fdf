"""Two-frequency pulse trains and their overlap-resolved timeline.

A run consists of two interleaved trains of optical pulses: train 1 kicks
at scaled times tau = 0, 1, ..., N-1 and train 2 at tau = alpha0 + r*m for
m = 0, ..., M-1.  Each pulse carries the same empirical envelope

    k(t) = (k_max/2) [erf((t - t1) sqrt(pi)/dt1) - erf((t - t2) sqrt(pi)/dt2)]

with t2 - t1 the FWHM; the pulse is deemed on only where the envelope
exceeds a threshold fraction of k_max (10% by default) and is zero
elsewhere.  Both edges of that on window come from one bisection (the
falling edge is the rising edge of the mirrored shape).  k_max is
normalised so that the on-window area equals the kick strength kappa.
Overlapping pulses add pointwise, so a resolved timeline can contain
fewer, taller or longer resultant pulses than the two trains supplied;
it holds only those pulses, each with the step grid the engines run on.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import erf, erfcinv

DEFAULT_ON_THRESHOLD = 0.10
DEFAULT_MIN_STEPS = 16


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
            raise ValueError(f"fwhm must be positive, got {self.fwhm}")
        if self.rise_time < 0 or self.fall_time < 0:
            raise ValueError("rise_time and fall_time must be >= 0")
        if not (0.0 < self.on_threshold_fraction < 0.5):
            raise ValueError(
                f"on_threshold_fraction must lie in (0, 0.5), got {self.on_threshold_fraction}"
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
            raise ValueError(f"ratio must be positive, got {self.ratio}")
        if not (0.0 <= self.alpha0 < 1.0):
            raise ValueError(f"alpha0 must lie in [0, 1), got {self.alpha0}")
        if self.n_first < 0 or self.n_second < 0 or self.n_first + self.n_second < 1:
            raise ValueError("pulse counts must be >= 0 with at least one pulse in total")
        if self.kappa1 < 0 or self.kappa2 < 0:
            raise ValueError("kick strengths must be >= 0")
        if self.kbar <= 0:
            raise ValueError(f"kbar must be positive, got {self.kbar}")

    @property
    def n_total(self) -> int:
        return self.n_first + self.n_second

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
    later of the two train end times, max((N-1), alpha0 + (M-1) r).
    Ties go to the larger N so the split is deterministic.
    """
    if r <= 0:
        raise ValueError(f"r must be positive, got {r}")
    if n_total < 1:
        raise ValueError(f"n_total must be >= 1, got {n_total}")
    if not (0.0 <= alpha0 < 1.0):
        raise ValueError(f"alpha0 must lie in [0, 1), got {alpha0}")
    best = None
    for n in range(n_total + 1):
        m = n_total - n
        dur = _train_duration(n, m, r, alpha0)
        if best is None or dur <= best[0]:
            best = (dur, n, m)
    _, n, m = best
    return TwoFreqTrainSpec(r, alpha0, n, m, kappa1, kappa2, shape, kbar)


def _raw_envelope(t_rel, shape: PulseShapeParams):
    """Unclamped unit-height envelope; t_rel measured from the pulse centre."""
    t_rel = np.asarray(t_rel, dtype=float)
    t1 = -0.5 * shape.fwhm
    t2 = 0.5 * shape.fwhm
    # a tiny rise or fall time sends the erf argument to +-inf: erf is then +-1
    with np.errstate(over="ignore", divide="ignore"):
        if shape.rise_time > 0:
            up = erf((t_rel - t1) * math.sqrt(math.pi) / shape.rise_time)
        else:
            up = np.sign(t_rel - t1)
        if shape.fall_time > 0:
            down = erf((t_rel - t2) * math.sqrt(math.pi) / shape.fall_time)
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
        return x * erf(c * x) + (delta / math.pi) * np.exp(-((c * x) ** 2))


def _window_area(shape: PulseShapeParams, a: float, b: float) -> float:
    """Closed-form integral of the unclamped unit envelope over [a, b]."""
    t1 = -0.5 * shape.fwhm
    t2 = 0.5 * shape.fwhm
    up = _erf_antiderivative(b - t1, shape.rise_time) - _erf_antiderivative(a - t1, shape.rise_time)
    down = _erf_antiderivative(b - t2, shape.fall_time) - _erf_antiderivative(a - t2, shape.fall_time)
    return 0.5 * float(up - down)


def _rising_edge(shape: PulseShapeParams) -> float:
    """Offset from the pulse centre where the envelope first exceeds the on threshold.

    The falling erf only lowers the envelope, so the lower bracket is just
    below where the rising erf alone reaches half the threshold (erfcinv
    keeps a small threshold's precision; the factor two clears rounding);
    the upper is the centre.  Bisecting until the midpoint equals an end
    leaves the envelope above threshold at the edge, and not a float before.
    """
    if shape.rise_time == 0:
        return -0.5 * shape.fwhm
    thr = shape.on_threshold_fraction
    lo = -0.5 * shape.fwhm - shape.rise_time / math.sqrt(math.pi) * float(erfcinv(thr))
    lo = math.nextafter(lo, -math.inf)
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
    if float(_raw_envelope(0.0, shape)) <= shape.on_threshold_fraction:
        raise ValueError("degenerate pulse shape: peak height is below the on threshold")
    mirrored = replace(shape, rise_time=shape.fall_time, fall_time=shape.rise_time)
    return _rising_edge(shape), -_rising_edge(mirrored)


def pulse_envelope(t_rel, k_max: float, shape: PulseShapeParams):
    """Envelope height at time t_rel from the pulse centre.

    The erf profile scaled to peak k_max, clamped to zero outside the
    window where it exceeds on_threshold_fraction * k_max.  Total
    function; accepts arrays.
    """
    on, off = _threshold_window(shape)
    t_rel = np.asarray(t_rel, dtype=float)
    inside = (t_rel >= on) & (t_rel <= off)
    vals = np.where(inside, k_max * _raw_envelope(t_rel, shape), 0.0)
    if np.ndim(t_rel) == 0:
        return float(vals)
    return vals


def unit_pulse_area(shape: PulseShapeParams) -> float:
    """Area of the clamped unit-height envelope."""
    on, off = _threshold_window(shape)
    return _window_area(shape, on, off)


def normalize_height(kappa: float, shape: PulseShapeParams) -> float:
    """Peak height k_max giving the clamped envelope a time integral of kappa.

    Square pulses reduce to k_max = kappa / width; shaped pulses use the
    closed-form erf antiderivative over the on window (relative error at
    machine level, well inside 1e-10).
    """
    if kappa < 0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0:
        return 0.0
    area = unit_pulse_area(shape)
    if not (area > 0):
        raise ValueError("degenerate pulse shape: zero envelope area")
    return kappa / area


@dataclass(frozen=True)
class ResultantPulse:
    """One maximal on interval of the summed envelope, with its step grid.

    k_mid holds the envelope at the midpoints of n_steps uniform steps;
    area is the exact envelope integral over [start, end]; constituents
    lists (train_id, centre) for every pulse contributing to the interval.
    """

    start: float
    end: float
    n_steps: int
    k_mid: np.ndarray
    area: float
    constituents: tuple

    @property
    def step(self) -> float:
        return (self.end - self.start) / self.n_steps

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
    gets a uniform grid of at least min_steps_per_pulse steps, with the
    step size never exceeding the single-pulse step size, so
    overlap-lengthened pulses are sampled at least as finely.
    """
    if min_steps_per_pulse < 1:
        raise ValueError("min_steps_per_pulse must be >= 1")
    kappa = {1: spec.kappa1, 2: spec.kappa2}
    kmax = {tr: normalize_height(k, spec.shape) for tr, k in kappa.items()}
    on, off = _threshold_window(spec.shape)
    width = off - on
    base_step = width / min_steps_per_pulse

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
        length = end - start
        n_steps = max(min_steps_per_pulse, int(math.ceil(length / base_step - 1e-9)))
        tau_mid = start + (np.arange(n_steps) + 0.5) * (length / n_steps)
        k_mid = np.zeros(n_steps)
        for tr, c in members:
            k_mid += pulse_envelope(tau_mid - c, kmax[tr], shape)
        area = sum(kappa[tr] for tr, _ in members)
        pulses.append(
            ResultantPulse(
                start=float(start),
                end=float(end),
                n_steps=int(n_steps),
                k_mid=k_mid,
                area=float(area),
                constituents=tuple(members),
            )
        )

    return ResolvedTimeline(pulses=tuple(pulses))


def single_train_spec(
    n_pulses: int, kappa: float, shape: PulseShapeParams, kbar: float
) -> TwoFreqTrainSpec:
    """Convenience constructor for a single periodic train (M = 0)."""
    return TwoFreqTrainSpec(1.0, 0.0, n_pulses, 0, kappa, 0.0, shape, kbar)
