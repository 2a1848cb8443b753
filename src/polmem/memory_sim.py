"""Monte Carlo generator of photon-arrival histograms for dual-rail storage.

Each trial stores a weak pulse in two rails (H and V components), retrieves
it into the region of interest, and adds control-induced background spread
uniformly from the retrieval window to the end of the record.  Only aggregate
histograms are returned.  A Poisson number of photons with i.i.d. arrival
times, binned, gives independent Poisson counts per bin whose means are the
photon mean times each bin's probability; sums over pulses stay Poisson.  So
a histogram is one Poisson draw per bin, of mean pulses * sum over the
sources of mean * P(bin), and no arrival time is ever drawn.

All entry points are deterministic functions of their seed, independent of
worker count (see streams.py).
"""

import json
import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .data import ArrivalHistogram, SweepSeries, Window, is_finite_number, read_json, write_text
from .errors import ConfigError, named
from .histogram_analysis import roi_counts, storage_efficiency
from .polarization import (
    MIN_PLATE_ANGLES,
    QubitAngles,
    StokesVector,
    qwp_polarimeter_intensity,
    stokes_from_qubit,
)
from .streams import check_poisson_mean, check_trials, chunk_rng, point_rng

RETRIEVAL_TIME_CONSTANT_US = 0.3
RETRIEVAL_SHAPES = ("exponential", "flat")
INPUT_PULSE_US = 1.0
# largest t_max / bin_width: one histogram of it holds 8 MB of int64 counts
MAX_BINS = 1_000_000

# state used for storage-time scans; equal weight on both rails
DECAY_SCAN_STATE = QubitAngles(math.pi / 4, 0.0)


def _is_multiple(x: float, step: float) -> bool:
    r = x / step
    return math.isfinite(r) and abs(r - round(r)) < 1e-9


@dataclass(frozen=True)
class MemoryConfig:
    """Simulator parameters; times in microseconds, rates per pulse.

    eta_h/eta_v are per-rail storage efficiencies; p_in the mean photon
    number of the input pulse; chain the detection-chain factor taking
    stored photons to detected counts.  bg_rate and tech_rate are the
    *detected* background and technical-leakage means inside the retrieval
    window at unit control power (the background sweep scales them as
    sqrt(power) and power respectively).
    """

    eta_h: float = 0.079
    eta_v: float = 0.053
    p_in: float = 1.6
    chain: float = 1.0
    bg_rate: float = 0.005
    tech_rate: float = 0.0
    roi_start: float = 2.4
    roi_end: float = 3.4
    bg_window_start: float = 6.0
    bg_window_end: float = 7.0
    bin_width: float = 0.05
    t_max: float = 8.0
    tau_coherence: float = 19.3
    retrieval_shape: str = "exponential"
    dephasing: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(f.default, float) and not is_finite_number(v):
                raise ConfigError(f"{f.name} must be a finite number, got {v!r}")
        for name in ("eta_h", "eta_v"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        for name in ("p_in", "chain", "bg_rate", "tech_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not 0.0 <= self.dephasing <= 1.0:
            raise ConfigError(f"dephasing must lie in [0, 1], got {self.dephasing}")
        if self.bin_width <= 0 or self.t_max <= 0:
            raise ConfigError("bin_width and t_max must be positive")
        if not _is_multiple(self.t_max, self.bin_width):
            raise ConfigError("bin_width must divide t_max")
        if not 1 <= self.n_bins <= MAX_BINS:
            raise ConfigError(
                f"t_max / bin_width gives {self.n_bins} bins; need 1 to the cap of {MAX_BINS}"
            )
        if self.tau_coherence <= 0:
            raise ConfigError("tau_coherence must be positive")
        if self.retrieval_shape not in RETRIEVAL_SHAPES:
            raise ConfigError(
                f"retrieval_shape must be one of {RETRIEVAL_SHAPES}, got {self.retrieval_shape!r}"
            )
        for a, b in ((self.roi_start, self.roi_end), (self.bg_window_start, self.bg_window_end)):
            if not 0 <= a < b <= self.t_max:
                raise ConfigError(f"window [{a}, {b}] must be ordered and inside [0, {self.t_max}]")
            for edge in (a, b):
                if not _is_multiple(edge, self.bin_width):
                    raise ConfigError(f"window edge {edge} is not aligned to bin_width")
        roi_dur = self.roi_end - self.roi_start
        bg_dur = self.bg_window_end - self.bg_window_start
        if abs(roi_dur - bg_dur) > 1e-9:
            raise ConfigError("retrieval and background windows must have equal duration")
        if self.bg_window_start < self.roi_end:
            raise ConfigError("background window must come after the retrieval window")

    @property
    def roi_duration(self) -> float:
        return self.roi_end - self.roi_start

    @property
    def n_bins(self) -> int:
        return round(self.t_max / self.bin_width)

    def signal_mean(self, state: QubitAngles) -> float:
        """Mean detected signal photons per pulse for the given input state."""
        ct, st = math.cos(state.theta), math.sin(state.theta)
        return self.chain * (self.eta_h * ct * ct + self.eta_v * st * st) * self.p_in

    def background_mean(self) -> float:
        """Mean detected background photons per pulse inside the retrieval window."""
        return self.bg_rate + self.tech_rate

    def to_json(self) -> dict:
        return asdict(self)

    def save(self, path) -> None:
        write_text(path, json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def from_json(cls, data: dict) -> "MemoryConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "MemoryConfig":
        data = read_json(path, ConfigError)  # its errors name the file already
        with named(path):
            return cls.from_json(data)


def _increasing(what: str, values) -> np.ndarray:
    """A sweep's abscissas as floats, refused unless finite, >= 0 and strictly increasing."""
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0) or np.any(np.diff(x) <= 0):
        raise ConfigError(f"{what} must be finite, >= 0 and strictly increasing")
    return x


def retrieved_stokes(config: MemoryConfig, state: QubitAngles) -> StokesVector:
    """Normalized Stokes vector of the retrieved signal field.

    Per-rail efficiencies rescale the two amplitudes (a state stored with
    unequal rails comes back tilted); dephasing shrinks the inter-rail
    coherences s2 and s3.
    """
    a_h = math.sqrt(config.eta_h) * math.cos(state.theta)
    a_v = math.sqrt(config.eta_v) * math.sin(state.theta)
    norm = a_h * a_h + a_v * a_v
    if norm == 0.0:
        return stokes_from_qubit(state)
    keep = 1.0 - config.dephasing
    return StokesVector(
        1.0,
        (a_h * a_h - a_v * a_v) / norm,
        keep * 2.0 * a_h * a_v * math.cos(state.phi) / norm,
        keep * 2.0 * a_h * a_v * math.sin(state.phi) / norm,
    )


def _bin_mass(config: MemoryConfig, a: float, b: float, tc: float | None = None) -> np.ndarray:
    """Probability of each histogram bin for an arrival uniform on [a, b] or,
    given tc, exponential from a with time constant tc, truncated at b."""
    x = np.clip(np.linspace(0.0, config.t_max, config.n_bins + 1), a, b) - a
    cdf = x / (b - a) if tc is None else np.expm1(-x / tc) / math.expm1(-(b - a) / tc)
    return np.diff(cdf)


def _polarimeter_means(config, state, analyzer, signal_scale=1.0) -> tuple[float, float]:
    """Per-pulse means of detected signal and ROI background.  A polarimeter
    at plate angle `analyzer` (rad; None for none) thins the signal by its
    transmission, floored at zero as rounding can leave a dark angle a hair
    below it, and the unpolarized background by 1/2."""
    sig_mean = config.signal_mean(state) * signal_scale
    if analyzer is None:
        return sig_mean, config.background_mean()
    transmission = qwp_polarimeter_intensity(retrieved_stokes(config, state), analyzer)
    return sig_mean * max(0.0, transmission), 0.5 * config.background_mean()


def _simulate_arrivals(config, sources, trials, seed, label) -> ArrivalHistogram:
    """Histogram of `trials` pulses from independent Poisson sources.

    Each source is (what, mean per pulse, probability of each bin).  One
    generator, chunk_rng(seed, 0), draws one Poisson count per bin, of mean
    trials * sum over the sources of mean * mass, so the cost does not grow
    with trials.  The Poisson limit is checked for the whole run, source by
    source and summed, so neither a bin nor the total can wrap.
    """
    check_trials(trials)
    for what, mean, _ in sources:
        check_poisson_mean(what, mean, trials)
    check_poisson_mean("total mean", sum(mean for _, mean, _ in sources), trials)
    lam = sum(mean * mass for _, mean, mass in sources)
    counts = chunk_rng(seed, 0).poisson(trials * lam)
    return ArrivalHistogram(0.0, config.bin_width, counts, trials, label)


def _simulate_points(x, x_name, sources, trials, seed) -> list[SweepSeries]:
    """Counts per pulse over x, one SweepSeries per independent Poisson source.

    Each source is (what, its mean per pulse at every point).  At point i
    the sources draw their totals from point_rng(seed, i) in list order."""
    check_trials(trials)
    rngs = [point_rng(seed, i) for i in range(len(x))]
    sweeps = []
    for what, means in sources:  # source-major: each point's stream still serves them in list order
        check_poisson_mean(what, max(means, default=0.0), trials)
        c = np.array([rng.poisson(m * trials) for rng, m in zip(rngs, means)], dtype=np.int64)
        sweeps.append(SweepSeries(x, c / trials, np.sqrt(c) / trials, x_name, "counts_per_pulse"))
    return sweeps


def simulate_histogram(
    config: MemoryConfig,
    state: QubitAngles,
    analyzer: float | None,
    trials: int,
    seed,
    workers: int = 1,
    label: str = "storage",
    signal_scale: float = 1.0,
) -> ArrivalHistogram:
    """Photon-arrival histogram of a storage experiment, seen through the
    polarimeter at plate angle `analyzer` (rad; None for none).  signal_scale
    multiplies the retrieved-signal mean (used for storage-time scans).

    The histogram is one draw, the same for any `workers`; the keyword has
    no effect and is kept so that callers passing it keep working."""
    sig_mean, bg_roi_mean = _polarimeter_means(config, state, analyzer, signal_scale)
    tc = RETRIEVAL_TIME_CONSTANT_US if config.retrieval_shape == "exponential" else None
    # background is uniform over the control-on span [roi_start, t_max]
    bg_total_mean = bg_roi_mean * (config.t_max - config.roi_start) / config.roi_duration
    sources = [
        ("signal mean (chain * eta * p_in)", sig_mean,
         _bin_mass(config, config.roi_start, config.roi_end, tc)),
        ("background mean (bg_rate + tech_rate)", bg_total_mean,
         _bin_mass(config, config.roi_start, config.t_max)),
    ]
    return _simulate_arrivals(config, sources, trials, seed, label)


def simulate_reference(config: MemoryConfig, trials: int, seed) -> ArrivalHistogram:
    """Transmitted-probe histogram: the input pulse, clipped to the record,
    with no storage and no background."""
    source = ("input mean (chain * p_in)", config.chain * config.p_in,
              _bin_mass(config, 0.0, min(INPUT_PULSE_US, config.t_max)))
    return _simulate_arrivals(config, [source], trials, seed, "reference")


def simulate_polarimetry_sweep(
    config: MemoryConfig,
    state: QubitAngles,
    qwp_angles,
    trials_per_angle: int,
    seed,
    noiseless: bool = False,
) -> SweepSeries:
    """ROI counts per pulse versus analyzer plate angle.

    The retrieved (possibly shortened) signal follows the polarimeter
    oscillation; background adds a flat 1/2 floor.  noiseless=True returns
    the exact expectations instead of Poisson draws.
    """
    angles = np.asarray(qwp_angles, dtype=float)
    if len(angles) < MIN_PLATE_ANGLES:
        raise ConfigError(f"need at least {MIN_PLATE_ANGLES} analyzer angles, got {len(angles)}")
    check_trials(trials_per_angle)
    means = [sum(_polarimeter_means(config, state, ang)) for ang in angles]
    if noiseless:
        return SweepSeries(angles, means, np.zeros(len(means)), "qwp_angle_rad", "counts_per_pulse")
    sources = [("ROI mean (signal + background)", means)]
    return _simulate_points(angles, "qwp_angle_rad", sources, trials_per_angle, seed)[0]


def simulate_decay_series(
    config: MemoryConfig, storage_times, trials: int, seed
) -> SweepSeries:
    """Estimated storage efficiency versus storage time.

    The retrieved-signal mean decays as exp(-t/tau_coherence); every point
    is analyzed with the standard window procedure against a simulated
    reference run of `trials` pulses from seed (seed, len(storage_times)).
    """
    times = _increasing("storage times", storage_times)

    roi = Window(config.roi_start, config.roi_end)
    bg = Window(config.bg_window_start, config.bg_window_end)
    reference = simulate_reference(config, trials, (seed, len(times)))
    ref_total = reference.total()

    y = np.empty(len(times))
    y_err = np.empty(len(times))
    for i, t in enumerate(times):
        hist = simulate_histogram(
            config,
            DECAY_SCAN_STATE,
            None,
            trials,
            (seed, i),
            label=f"decay t={t:g}us",
            signal_scale=math.exp(-t / config.tau_coherence),
        )
        y[i] = storage_efficiency(hist, reference, roi, bg)
        n_roi = roi_counts(hist, roi)
        n_bg = roi_counts(hist, bg)
        y_err[i] = math.sqrt(max(n_roi + n_bg, 1) + y[i] ** 2 * ref_total) / ref_total
    return SweepSeries(times, y, y_err, "storage_time_us", "efficiency")


def simulate_background_sweep(
    config: MemoryConfig, powers, trials: int, seed
) -> tuple[SweepSeries, SweepSeries]:
    """(background, technical) ROI counts per pulse versus control power.

    Background combines technical leakage (linear in power) and a component
    growing as sqrt(power); the technical series is measured cell-out, with
    leakage only.  Coefficients come from tech_rate and bg_rate.
    """
    p = _increasing("powers", powers)
    tech = [config.tech_rate * w for w in p]
    sources = [("background mean", [t + config.bg_rate * math.sqrt(w) for t, w in zip(tech, p)]),
               ("technical mean", tech)]
    return tuple(_simulate_points(p, "control_power", sources, trials, seed))
