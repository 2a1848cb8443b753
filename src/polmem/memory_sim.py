"""Monte Carlo generator of photon-arrival histograms for dual-rail storage.

Each trial stores a weak pulse in two rails (H and V components), retrieves
it into the region of interest, and adds control-induced background spread
uniformly from the retrieval window to the end of the record.  Only aggregate
histograms are returned, so chunks draw Poisson *totals* (a sum of
independent Poisson trials is Poisson in the summed mean) plus individual
arrival times; the per-trial statistics are unchanged.

All entry points are deterministic functions of their seed, independent of
worker count (see streams.py).
"""

import json
import math
from dataclasses import dataclass, asdict, fields

import numpy as np

from .data import ArrivalHistogram, SweepSeries, Window, is_finite_number, read_json, write_text
from .errors import ConfigError
from .histogram_analysis import roi_counts, storage_efficiency
from .polarization import (
    QubitAngles,
    StokesVector,
    qwp_polarimeter_intensity,
    stokes_from_qubit,
)
from .streams import map_chunks, point_rng

RETRIEVAL_TIME_CONSTANT_US = 0.3
RETRIEVAL_SHAPES = ("exponential", "flat")
INPUT_PULSE_US = 1.0

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
        return cls.from_json(read_json(path, ConfigError))


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


def _signal_times(rng, n: int, config: MemoryConfig) -> np.ndarray:
    """Arrival times of retrieved photons inside the region of interest."""
    span = config.roi_duration
    if config.retrieval_shape == "flat":
        return config.roi_start + span * rng.random(n)
    tc = RETRIEVAL_TIME_CONSTANT_US
    u = rng.random(n)
    return config.roi_start - tc * np.log1p(-u * (1.0 - math.exp(-span / tc)))


def _histogram(times: np.ndarray, config: MemoryConfig) -> np.ndarray:
    counts, _ = np.histogram(times, bins=config.n_bins, range=(0.0, config.t_max))
    return counts.astype(np.int64)


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
    """Photon-arrival histogram of a storage experiment.

    analyzer is the quarter-wave-plate angle (rad) of the polarimeter, or
    None for no analyzer in the path.  With the analyzer in place the signal
    is thinned by its transmission through plate + horizontal polarizer and
    the (unpolarized) background by 1/2.  signal_scale is an extra
    multiplier on the retrieved-signal mean (used for storage-time scans).
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    sig_mean = config.signal_mean(state) * signal_scale
    bg_roi_mean = config.background_mean()
    if analyzer is not None:
        sig_mean *= qwp_polarimeter_intensity(retrieved_stokes(config, state), analyzer)
        bg_roi_mean *= 0.5
    # background is uniform over the control-on span [roi_start, t_max]
    bg_span = config.t_max - config.roi_start
    bg_total_mean = bg_roi_mean * bg_span / config.roi_duration

    def run(rng, size):
        n_sig = rng.poisson(sig_mean * size) if sig_mean > 0 else 0
        t_sig = _signal_times(rng, n_sig, config)
        n_bg = rng.poisson(bg_total_mean * size) if bg_total_mean > 0 else 0
        t_bg = config.roi_start + bg_span * rng.random(n_bg)
        return _histogram(t_sig, config) + _histogram(t_bg, config)

    parts = map_chunks(run, trials, seed, workers)
    counts = np.sum(parts, axis=0)
    return ArrivalHistogram(0.0, config.bin_width, counts, trials, label)


def simulate_reference(
    config: MemoryConfig, trials: int, seed, workers: int = 1
) -> ArrivalHistogram:
    """Transmitted-probe histogram: the input pulse with no storage, no background."""
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    mean = config.chain * config.p_in
    width = min(INPUT_PULSE_US, config.t_max)

    def run(rng, size):
        n = rng.poisson(mean * size) if mean > 0 else 0
        return _histogram(width * rng.random(n), config)

    parts = map_chunks(run, trials, seed, workers)
    return ArrivalHistogram(0.0, config.bin_width, np.sum(parts, axis=0), trials, "reference")


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
    if len(angles) < 8:
        raise ConfigError(f"need at least 8 analyzer angles, got {len(angles)}")
    if trials_per_angle < 1:
        raise ConfigError("trials_per_angle must be >= 1")
    s_ret = retrieved_stokes(config, state)
    sig_mean = config.signal_mean(state)
    bg_mean = 0.5 * config.background_mean()

    y = np.empty(len(angles))
    y_err = np.zeros(len(angles))
    for i, ang in enumerate(angles):
        mean = sig_mean * qwp_polarimeter_intensity(s_ret, ang) + bg_mean
        if noiseless:
            y[i] = mean
        else:
            counts = point_rng(seed, i).poisson(mean * trials_per_angle)
            y[i] = counts / trials_per_angle
            y_err[i] = math.sqrt(counts) / trials_per_angle
    return SweepSeries(angles, y, y_err, "qwp_angle_rad", "counts_per_pulse")


def simulate_decay_series(
    config: MemoryConfig, storage_times, trials: int, seed
) -> SweepSeries:
    """Estimated storage efficiency versus storage time.

    The retrieved-signal mean decays as exp(-t/tau_coherence); every point
    is analyzed with the standard window procedure against a simulated
    reference run.
    """
    times = np.asarray(storage_times, dtype=float)
    if np.any(times < 0):
        raise ConfigError("storage times must be >= 0")
    if len(times) > 1 and np.any(np.diff(times) <= 0):
        raise ConfigError("storage times must be strictly increasing")

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
        y_err[i] = math.sqrt(max(n_roi + n_bg, 1)) / ref_total
    return SweepSeries(times, y, y_err, "storage_time_us", "efficiency")


def simulate_background_sweep(
    config: MemoryConfig, powers, trials: int, seed
) -> tuple[SweepSeries, SweepSeries]:
    """(background, technical) ROI counts per pulse versus control power.

    Background combines technical leakage (linear in power) and a component
    growing as sqrt(power); the technical series is measured cell-out, with
    leakage only.  Coefficients come from tech_rate and bg_rate.
    """
    p = np.asarray(powers, dtype=float)
    if np.any(p < 0):
        raise ConfigError("powers must be >= 0")
    if len(p) > 1 and np.any(np.diff(p) <= 0):
        raise ConfigError("powers must be strictly increasing")
    if trials < 1:
        raise ConfigError("trials must be >= 1")

    bg_y = np.empty(len(p))
    bg_err = np.empty(len(p))
    tech_y = np.empty(len(p))
    tech_err = np.empty(len(p))
    for i, power in enumerate(p):
        rng = point_rng(seed, i)
        bg_mean = config.tech_rate * power + config.bg_rate * math.sqrt(power)
        tech_mean = config.tech_rate * power
        c_bg = rng.poisson(bg_mean * trials) if bg_mean > 0 else 0
        c_tech = rng.poisson(tech_mean * trials) if tech_mean > 0 else 0
        bg_y[i] = c_bg / trials
        bg_err[i] = math.sqrt(c_bg) / trials
        tech_y[i] = c_tech / trials
        tech_err[i] = math.sqrt(c_tech) / trials
    background = SweepSeries(p, bg_y, bg_err, "control_power", "counts_per_pulse")
    technical = SweepSeries(p, tech_y, tech_err, "control_power", "counts_per_pulse")
    return background, technical
