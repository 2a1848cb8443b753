"""Simulator tests: closed-form means, determinism, serialization.

Aggregate counts are compared against analytic Poisson means (the noise
model's closed forms) at three standard errors with fixed seeds.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from polmem import memory_sim, streams
from polmem.errors import ConfigError, DataError
from polmem.memory_sim import (
    DECAY_SCAN_STATE,
    INPUT_PULSE_US,
    MAX_BINS,
    ArrivalHistogram,
    MemoryConfig,
    SweepSeries,
    retrieved_stokes,
    simulate_background_sweep,
    simulate_decay_series,
    simulate_histogram,
    simulate_polarimetry_sweep,
    simulate_reference,
)
from polmem.polarization import (
    CANONICAL_STATES,
    QubitAngles,
    fit_stokes,
    qwp_polarimeter_intensity,
    stokes_from_qubit,
)
from polmem.histogram_analysis import Window, roi_counts, storage_efficiency
from polmem.streams import CHUNK_TRIALS, POISSON_MEAN_MAX, check_poisson_mean

H = CANONICAL_STATES["H"]
V = CANONICAL_STATES["V"]
D = CANONICAL_STATES["D"]


def windows(config):
    return (
        Window(config.roi_start, config.roi_end),
        Window(config.bg_window_start, config.bg_window_end),
    )


def amplitude_stokes_oracle(eta_h, eta_v, state):
    """Retrieved Stokes from the two-rail field amplitudes, via the density matrix."""
    psi = np.array(
        [
            math.sqrt(eta_h) * math.cos(state.theta),
            math.sqrt(eta_v) * np.exp(1j * state.phi) * math.sin(state.theta),
        ]
    )
    psi = psi / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    s1 = (rho[0, 0] - rho[1, 1]).real
    s2 = 2 * rho[1, 0].real
    s3 = 2 * rho[1, 0].imag
    return np.array([1.0, s1, s2, s3])


# ---------------------------------------------------------------- config


def test_config_defaults_are_valid():
    cfg = MemoryConfig()
    assert cfg.roi_duration == pytest.approx(1.0)
    assert cfg.n_bins == 160
    assert cfg.signal_mean(H) == pytest.approx(0.079 * 1.6)
    assert cfg.signal_mean(V) == pytest.approx(0.053 * 1.6)
    assert cfg.background_mean() == pytest.approx(0.005)
    assert MemoryConfig(t_max=MAX_BINS * 0.05).n_bins == MAX_BINS  # the cap itself is allowed


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(eta_h=1.2),
        dict(eta_v=-0.1),
        dict(p_in=-1),
        dict(bg_rate=-0.001),
        dict(dephasing=1.5),
        dict(bin_width=0.0),
        dict(bin_width=0.07),  # does not divide t_max
        dict(roi_start=3.4, roi_end=2.4),
        dict(roi_end=9.0),  # beyond t_max
        dict(roi_start=2.41),  # not bin aligned
        dict(bg_window_end=6.5),  # unequal window durations
        dict(bg_window_start=3.0, bg_window_end=4.0),  # overlaps ROI
        dict(tau_coherence=0.0),
        dict(retrieval_shape="gaussian"),
        dict(t_max=50_000.05),  # one bin above MAX_BINS
        dict(bin_width=1e10),  # t_max / bin_width rounds to no bin at all
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        MemoryConfig(**kwargs)


def test_config_json_round_trip(tmp_path):
    cfg = MemoryConfig(eta_h=0.06, tech_rate=0.001, retrieval_shape="flat")
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert MemoryConfig.load(path) == cfg
    data = json.loads(path.read_text())
    assert set(data) == set(MemoryConfig().to_json())


def test_config_rejects_unknown_keys(tmp_path):
    data = MemoryConfig().to_json()
    data["detector_jitter"] = 0.1
    with pytest.raises(ConfigError, match="unknown config keys"):
        MemoryConfig.from_json(data)
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError):
        MemoryConfig.load(path)


# ---------------------------------------------------------- retrieved state


def test_retrieved_stokes_symmetric_rails_preserve_state():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    rng = np.random.default_rng(21)
    for _ in range(50):
        st = QubitAngles(rng.random() * math.pi / 2, rng.uniform(-math.pi, math.pi))
        assert_allclose(
            retrieved_stokes(cfg, st).as_array(),
            stokes_from_qubit(st).as_array(),
            atol=1e-12,
        )


def test_retrieved_stokes_matches_amplitude_oracle():
    cfg = MemoryConfig(eta_h=0.079, eta_v=0.053)
    rng = np.random.default_rng(22)
    for _ in range(50):
        st = QubitAngles(rng.random() * math.pi / 2, rng.uniform(-math.pi, math.pi))
        assert_allclose(
            retrieved_stokes(cfg, st).as_array(),
            amplitude_stokes_oracle(0.079, 0.053, st),
            atol=1e-12,
        )


def test_retrieved_stokes_dephasing_shrinks_coherences():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055, dephasing=0.3)
    d = retrieved_stokes(cfg, D)
    assert_allclose(d.as_array(), [1.0, 0.0, 0.7, 0.0], atol=1e-12)
    # populations carry no coherence: H unaffected
    assert_allclose(retrieved_stokes(cfg, H).as_array(), [1, 1, 0, 0], atol=1e-12)


# ------------------------------------------------------------- histograms


def test_zero_config_gives_empty_histogram():
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.0, tech_rate=0.0)
    hist = simulate_histogram(cfg, H, None, 10_000, 1)
    assert hist.total() == 0
    assert hist.n_trials == 10_000
    assert len(hist.counts) == cfg.n_bins


def test_histogram_means_match_closed_form(base=31):
    cfg = MemoryConfig()
    trials = 400_000
    hist = simulate_histogram(cfg, H, None, trials, base)
    roi, bg = windows(cfg)
    mean_sig = cfg.signal_mean(H) * trials
    mean_bg_roi = cfg.background_mean() * trials
    # ROI holds all the signal plus one window's worth of background
    n_roi = roi_counts(hist, roi)
    assert abs(n_roi - (mean_sig + mean_bg_roi)) <= 3 * math.sqrt(mean_sig + mean_bg_roi)
    n_bg = roi_counts(hist, bg)
    assert abs(n_bg - mean_bg_roi) <= 3 * math.sqrt(mean_bg_roi)
    # nothing before the retrieval window
    assert roi_counts(hist, Window(0.0, cfg.roi_start)) == 0


def test_histogram_flat_shape_fills_roi_uniformly(base=32):
    cfg = MemoryConfig(retrieval_shape="flat", bg_rate=0.0)
    hist = simulate_histogram(cfg, H, None, 400_000, base)
    roi, _ = windows(cfg)
    i0 = round((roi.start - hist.t_start) / hist.bin_width)
    i1 = round((roi.end - hist.t_start) / hist.bin_width)
    bins = hist.counts[i0:i1]
    expected = bins.sum() / len(bins)
    # each bin within 4 sigma of the uniform expectation
    assert np.all(np.abs(bins - expected) <= 4 * math.sqrt(expected))


def test_analyzer_thins_signal_and_halves_background(base=33):
    """An analyzer at 0 passes H fully, blocks V and halves the background.
    At 1e12 pulses each of the three counts is held to its Poisson mean
    within norm.isf(1e-6 / 6) sigma (about 5.10, a relative 2e-5), so the
    test fails by chance with probability at most 1e-6, and a transmission
    or background factor off by 1e-4 fails it."""
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055, bg_rate=0.02)
    trials = 10**12
    z = stats.norm.isf(1e-6 / 6)
    roi, bg = windows(cfg)
    h_pass = simulate_histogram(cfg, H, 0.0, trials, base)
    v_block = simulate_histogram(cfg, V, 0.0, trials, base + 1)
    mean_sig = cfg.signal_mean(H) * trials
    mean_bg = 0.5 * cfg.background_mean() * trials
    n_h = roi_counts(h_pass, roi)
    assert abs(n_h - (mean_sig + mean_bg)) <= z * math.sqrt(mean_sig + mean_bg)
    n_v = roi_counts(v_block, roi)
    assert abs(n_v - mean_bg) <= z * math.sqrt(mean_bg)
    n_bgw = roi_counts(h_pass, bg)
    assert abs(n_bgw - mean_bg) <= z * math.sqrt(mean_bg)


def test_histogram_deterministic_across_workers_and_reruns():
    cfg = MemoryConfig()
    a = simulate_histogram(cfg, D, None, 600_000, 7, workers=1)
    b = simulate_histogram(cfg, D, None, 600_000, 7, workers=8)
    c = simulate_histogram(cfg, D, None, 600_000, 7, workers=3)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.counts, c.counts)
    other = simulate_histogram(cfg, D, None, 600_000, 8)
    assert not np.array_equal(a.counts, other.counts)


@pytest.mark.parametrize("kind", ["histogram", "reference"])
def test_histogram_is_one_draw_from_one_generator(kind, monkeypatch):
    """A histogram makes one generator at any pulse count, so its cost does
    not grow with trials.  A second generator raises at once, and the
    two-chunk count runs before 1e15, so a per-chunk loop fails fast."""
    make = streams.chunk_rng
    for trials in (1, CHUNK_TRIALS + 1, 10**15):
        made = []

        def once(seed, index):
            if made:
                raise AssertionError(f"second generator at {trials} trials: {seed}, {index}")
            made.append(index)
            return make(seed, index)

        monkeypatch.setattr(streams, "chunk_rng", once)
        monkeypatch.setattr(memory_sim, "chunk_rng", once, raising=False)
        if kind == "histogram":
            hist = simulate_histogram(MemoryConfig(), D, None, trials, 3)
        else:
            hist = simulate_reference(MemoryConfig(), trials, 3)
        assert made == [0]
        assert hist.n_trials == trials


def test_serial_chunks_make_their_generator_when_they_run(monkeypatch):
    """Only the running chunk holds a generator: chunk i+1's is made after
    chunk i's kernel returns, so a long run does not build them all first."""
    events = []
    make = streams.chunk_rng

    def logged(seed, index):
        events.append(f"rng {index}")
        return make(seed, index)

    def kernel(rng, size):
        events.append("ran")
        return size

    monkeypatch.setattr(streams, "chunk_rng", logged)
    sizes = streams.map_chunks(kernel, 3 * CHUNK_TRIALS + 5, 9)
    assert sizes == [CHUNK_TRIALS] * 3 + [5]
    assert events == [e for i in range(4) for e in (f"rng {i}", "ran")]


def test_thread_pool_is_kept_per_worker_count():
    assert streams._pool(2) is streams._pool(2)
    assert streams._pool(3) is not streams._pool(2)


def test_parallel_chunk_error_is_raised_and_pool_stays_usable(monkeypatch):
    """A chunk that raises on a pool thread raises from map_chunks, and the
    kept pool runs the next call's chunks in order."""
    monkeypatch.setattr(streams, "chunk_rng", lambda seed, index: (seed, index))

    def kernel(label, size):
        if label == ("fail", 1):
            raise ValueError("chunk 1")
        return label[1], size

    with pytest.raises(ValueError, match="chunk 1"):
        streams.map_chunks(kernel, 3 * CHUNK_TRIALS + 5, "fail", workers=2)
    got = streams.map_chunks(kernel, 3 * CHUNK_TRIALS + 5, "ok", workers=2)
    assert got == [(0, CHUNK_TRIALS), (1, CHUNK_TRIALS), (2, CHUNK_TRIALS), (3, 5)]


def test_background_split_between_rails_indistinguishable(base=41):
    # one source at q vs. the sum of two independent sources at q/2
    q = 0.02
    trials = 500_000
    single_cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=q)
    half_cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=q / 2)
    single = simulate_histogram(single_cfg, H, None, trials, base)
    rail_a = simulate_histogram(half_cfg, H, None, trials, base + 1)
    rail_b = simulate_histogram(half_cfg, H, None, trials, base + 2)
    roi, _ = windows(single_cfg)
    n1 = roi_counts(single, roi)
    n2 = roi_counts(rail_a, roi) + roi_counts(rail_b, roi)
    z = (n1 - n2) / math.sqrt(n1 + n2)
    assert abs(z) <= 3


def test_simulate_histogram_rejects_bad_trials():
    with pytest.raises(ConfigError):
        simulate_histogram(MemoryConfig(), H, None, 0, 1)


def test_poisson_mean_limit_is_numpys():
    rng = np.random.default_rng(0)
    rng.poisson(POISSON_MEAN_MAX)
    check_poisson_mean("mean", POISSON_MEAN_MAX, 1)
    above = float(np.nextafter(POISSON_MEAN_MAX, math.inf))
    with pytest.raises(ValueError, match="lam value too large"):
        rng.poisson(above)
    for rate, pulses in ((above, 1), (float("nan"), 1), (0.5, 10**400)):
        with pytest.raises(ConfigError, match="mean of"):
            check_poisson_mean("mean", rate, pulses)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def _hist_digest(hist):
    return _digest(hist.counts, np.array([hist.t_start, hist.bin_width, hist.n_trials]))


def _sweeps_digest(*sweeps):
    return _digest(*(a for s in sweeps for a in (s.x, s.y, s.y_err)))


_ANGLES = np.linspace(0, math.pi, 12)
_CLIPPED = MemoryConfig(retrieval_shape="flat", t_max=0.5, bin_width=0.05, roi_start=0.1,
                        roi_end=0.2, bg_window_start=0.3, bg_window_end=0.4)
_POWERS = [0.0, 0.5, 1.0, 4.0]
# each case maps workers to a digest of every array the simulator returns;
# the sweeps take no worker count and must give the same bytes regardless
_SIMULATOR_CASES = {
    "histogram_no_background": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(bg_rate=0.0, tech_rate=0.0), H, None, 600_000, 5, workers=w)),
    "histogram_no_signal": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(eta_h=0.0, eta_v=0.0, tech_rate=0.003), V, None, 600_000, 6, workers=w)),
    "histogram_flat": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(retrieval_shape="flat", tech_rate=0.002), D, None, 600_000, 7, workers=w)),
    "histogram_analyzer": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(dephasing=0.1), D, 0.7, 600_000, 8, workers=w, signal_scale=0.8)),
    # V at a vertical analyzer rounds to a transmission a hair below zero
    "histogram_analyzer_dark": lambda w: _hist_digest(simulate_histogram(
        MemoryConfig(), V, math.pi / 2, 600_000, 15, workers=w)),
    "reference": lambda w: _hist_digest(simulate_reference(MemoryConfig(), 600_000, 9)),
    "decay_series": lambda w: _sweeps_digest(
        simulate_decay_series(MemoryConfig(), [0.0, 5.0, 20.0], 300_000, 10)),
    # the reference pulse is clipped to t_max
    "decay_series_flat_clipped": lambda w: _sweeps_digest(
        simulate_decay_series(_CLIPPED, [0.0, 5.0, 20.0], 1_000_001, 17)),
    "background_sweep": lambda w: _sweeps_digest(
        *simulate_background_sweep(MemoryConfig(), _POWERS, 100_000, 11)),
    "background_sweep_technical": lambda w: _sweeps_digest(
        *simulate_background_sweep(MemoryConfig(tech_rate=0.01), _POWERS, 100_000, 12)),
    "background_sweep_no_powers": lambda w: _sweeps_digest(
        *simulate_background_sweep(MemoryConfig(), [], 100_000, 13)),
    "polarimetry_sweep": lambda w: _sweeps_digest(simulate_polarimetry_sweep(
        MemoryConfig(bg_rate=0.02, dephasing=0.2), D, _ANGLES, 100_000, 14)),
    "polarimetry_noiseless": lambda w: _sweeps_digest(simulate_polarimetry_sweep(
        MemoryConfig(dephasing=0.2, tech_rate=0.01), D, _ANGLES, 100_000, 16, noiseless=True)),
}
_SIMULATOR_DIGESTS = {
    "background_sweep": "91c8785333c6110a",
    "background_sweep_no_powers": "578f4ddfb8158283",
    "background_sweep_technical": "a4324623ca48109f",
    "decay_series": "a31703e8f6cdf97d",
    "decay_series_flat_clipped": "fb3ad6c1e4fd8794",
    "histogram_analyzer": "7ca686512b14176d",
    "histogram_analyzer_dark": "80b749eab34fe922",
    "histogram_flat": "6abd2263187cdd5d",
    "histogram_no_background": "2603ff765a9bb630",
    "histogram_no_signal": "3094b81dfffc31f2",
    "polarimetry_noiseless": "9759743a253fb864",
    "polarimetry_sweep": "ccaaa8bc42540b88",
    "reference": "0f56c9a3ae41051b",
}


def test_one_chunk_histogram_keeps_its_bytes():
    """A histogram of at most CHUNK_TRIALS pulses draws from chunk_rng(seed, 0),
    as the per-chunk draw it replaced did, so it keeps those bytes."""
    hist = simulate_histogram(MemoryConfig(tech_rate=0.002), D, 0.7, 200_000, 12)
    assert _hist_digest(hist) == "cbc5f8f40a81d3f6"


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("case", sorted(_SIMULATOR_CASES))
def test_simulator_bytes_pinned(case, workers):
    """Every simulator's output bytes.  A new digest means new random
    streams, which the determinism contract forbids without notice."""
    assert _SIMULATOR_CASES[case](workers) == _SIMULATOR_DIGESTS[case]


# ------------------------------------------------------- bin probabilities


def _scipy_mass(config, dist):
    """Probability of each histogram bin under a scipy.stats law."""
    return np.diff(dist.cdf(np.linspace(0.0, config.t_max, config.n_bins + 1)))


def _source_laws(config):
    """The scipy.stats law of each source's arrival time."""
    span = config.roi_end - config.roi_start
    tc = memory_sim.RETRIEVAL_TIME_CONSTANT_US
    if config.retrieval_shape == "flat":
        retrieval = stats.uniform(config.roi_start, span)
    else:
        retrieval = stats.truncexpon(span / tc, loc=config.roi_start, scale=tc)
    return {
        "retrieval": retrieval,
        "background": stats.uniform(config.roi_start, config.t_max - config.roi_start),
        "reference": stats.uniform(0.0, min(INPUT_PULSE_US, config.t_max)),
    }


_MASS_CONFIGS = {"default": MemoryConfig(), "flat": MemoryConfig(retrieval_shape="flat"),
                 "clipped": _CLIPPED}


@pytest.mark.parametrize("name", sorted(_MASS_CONFIGS))
def test_bin_mass_matches_scipy(name):
    cfg = _MASS_CONFIGS[name]
    tc = memory_sim.RETRIEVAL_TIME_CONSTANT_US if cfg.retrieval_shape == "exponential" else None
    ours = {
        "retrieval": memory_sim._bin_mass(cfg, cfg.roi_start, cfg.roi_end, tc),
        "background": memory_sim._bin_mass(cfg, cfg.roi_start, cfg.t_max),
        "reference": memory_sim._bin_mass(cfg, 0.0, min(INPUT_PULSE_US, cfg.t_max)),
    }
    for source, law in _source_laws(cfg).items():
        assert_allclose(ours[source], _scipy_mass(cfg, law), rtol=0, atol=1e-12, err_msg=source)
        assert abs(ours[source].sum() - 1.0) <= 1e-12, source


_NO_BG = dict(bg_rate=0.0, tech_rate=0.0)
# (config, kind, seed): one large histogram per source shape, and their sum
_CHI2_CASES = {
    "exponential": (MemoryConfig(**_NO_BG), "histogram", 101),
    "flat": (MemoryConfig(retrieval_shape="flat", **_NO_BG), "histogram", 102),
    "background": (MemoryConfig(eta_h=0.0, eta_v=0.0), "histogram", 103),
    "signal_and_background": (MemoryConfig(tech_rate=0.002), "histogram", 104),
    "reference": (MemoryConfig(), "reference", 105),
    "reference_clipped": (_CLIPPED, "reference", 106),
}


@pytest.mark.parametrize("case", sorted(_CHI2_CASES))
def test_histogram_counts_match_expected_means(case):
    """Pearson chi-square of every bin's count against trials * sum of
    mean * P(bin), with P from scipy.  The counts are independent Poisson,
    so with k bins of positive mean the statistic is chi-square with k
    degrees of freedom; each case fails by chance with probability 1e-6.
    A few bins hold a sliver of a source (one ulp of a bin edge), so their
    expected count is about 1e-8; they keep that rate below about 1e-6."""
    cfg, kind, seed = _CHI2_CASES[case]
    trials = 10_000_000
    laws = _source_laws(cfg)
    if kind == "reference":
        hist = simulate_reference(cfg, trials, seed)
        parts = [(cfg.chain * cfg.p_in, laws["reference"])]
    else:
        hist = simulate_histogram(cfg, H, None, trials, seed)
        bg = cfg.background_mean() * (cfg.t_max - cfg.roi_start) / cfg.roi_duration
        parts = [(cfg.signal_mean(H), laws["retrieval"]), (bg, laws["background"])]
    expected = trials * sum(mean * _scipy_mass(cfg, law) for mean, law in parts)
    live = expected > 0
    assert np.all(hist.counts[~live] == 0)
    chi2 = float(np.sum((hist.counts[live] - expected[live]) ** 2 / expected[live]))
    assert chi2 < stats.chi2.isf(1e-6, np.count_nonzero(live))


# -------------------------------------------------------------- reference


def test_reference_total_and_support(base=51):
    cfg = MemoryConfig()
    trials = 300_000
    ref = simulate_reference(cfg, trials, base)
    mean = cfg.chain * cfg.p_in * trials
    assert abs(ref.total() - mean) <= 3 * math.sqrt(mean)
    assert roi_counts(ref, Window(INPUT_PULSE_US, cfg.t_max)) == 0
    assert ref.label == "reference"
    again = simulate_reference(cfg, trials, base)
    assert np.array_equal(ref.counts, again.counts)


# ------------------------------------------------------ polarimetry sweep


def test_noiseless_sweep_reproduces_intensity_curve():
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    angles = np.linspace(0, math.pi, 16)
    sweep = simulate_polarimetry_sweep(cfg, D, angles, 1000, 61, noiseless=True)
    sig = cfg.signal_mean(D)
    s_ret = retrieved_stokes(cfg, D)
    expected = [
        sig * qwp_polarimeter_intensity(s_ret, a) + 0.5 * cfg.background_mean()
        for a in angles
    ]
    assert_allclose(sweep.y, expected, rtol=1e-12)
    assert np.all(sweep.y_err == 0)


def test_unpolarized_sweep_is_flat(base=62):
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.05)
    angles = np.linspace(0, math.pi, 12)
    sweep = simulate_polarimetry_sweep(cfg, D, angles, 200_000, base)
    level = 0.5 * cfg.background_mean()
    sigma = math.sqrt(level / 200_000)
    assert np.all(np.abs(sweep.y - level) <= 4 * sigma)


def test_sweep_fit_recovers_diluted_d_state(base=63):
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    trials = 300_000
    angles = np.linspace(0, math.pi, 16)
    sweep = simulate_polarimetry_sweep(cfg, D, angles, trials, base)
    vec, fit = fit_stokes(sweep)
    p_sig = cfg.signal_mean(D)
    p_bg = cfg.background_mean()
    expected_dop = p_sig / (p_sig + p_bg)
    for key, truth in zip(("s1", "s2", "s3"), (0.0, expected_dop, 0.0)):
        assert abs(getattr(vec, key) - truth) <= 3 * fit.stderr[key]


def test_background_free_sweep_draws_nothing_at_dark_angle():
    # V's transmission at a vertical analyzer rounds a hair below zero
    cfg = MemoryConfig(bg_rate=0.0, tech_rate=0.0)
    sweep = simulate_polarimetry_sweep(cfg, V, np.linspace(0, math.pi, 9), 1000, 1)
    assert sweep.y[4] == 0.0
    assert np.all(sweep.y >= 0)


def test_sweep_validation():
    cfg = MemoryConfig()
    with pytest.raises(ConfigError):
        simulate_polarimetry_sweep(cfg, D, np.linspace(0, math.pi, 7), 100, 1)
    with pytest.raises(ConfigError):
        simulate_polarimetry_sweep(cfg, D, np.linspace(0, math.pi, 8), 0, 1)


# ------------------------------------------------------------ decay series


def test_decay_series_starts_at_configured_efficiency(base=71):
    cfg = MemoryConfig(eta_h=0.055, eta_v=0.055)
    series = simulate_decay_series(cfg, [0.0, 10.0, 20.0], 400_000, base)
    assert series.x_name == "storage_time_us"
    assert abs(series.y[0] - 0.055) <= 3 * series.y_err[0]
    # configured decay: later points follow exp(-t/tau) within errors
    for t, y, e in zip(series.x, series.y, series.y_err):
        assert abs(y - 0.055 * math.exp(-t / cfg.tau_coherence)) <= 3 * max(e, 1e-6)


def test_decay_series_validation():
    cfg = MemoryConfig()
    with pytest.raises(ConfigError):
        simulate_decay_series(cfg, [0.0, 5.0, 5.0], 1000, 1)
    with pytest.raises(ConfigError):
        simulate_decay_series(cfg, [-1.0, 5.0], 1000, 1)


@pytest.mark.parametrize("cfg,trials", [(MemoryConfig(), 2 * CHUNK_TRIALS + 5), (_CLIPPED, 1)],
                         ids=["partial-chunk", "clipped-one-trial"])
def test_decay_series_equals_full_reference_bit_for_bit(cfg, trials):
    times, seed = [0.0, 7.0, 30.0], 23
    series = simulate_decay_series(cfg, times, trials, seed)
    reference = simulate_reference(cfg, trials, (seed, len(times)))
    roi, bg = windows(cfg)
    for i, t in enumerate(times):
        hist = simulate_histogram(cfg, DECAY_SCAN_STATE, None, trials, (seed, i),
                                  signal_scale=math.exp(-t / cfg.tau_coherence))
        assert series.y[i] == storage_efficiency(hist, reference, roi, bg)
        n, r = roi_counts(hist, roi) + roi_counts(hist, bg), reference.total()
        # delta-method error of net / r, with r a Poisson total too
        assert series.y_err[i] == math.sqrt(max(n, 1) + series.y[i] ** 2 * r) / r


def test_decay_scan_state_balances_rails():
    assert DECAY_SCAN_STATE.theta == pytest.approx(math.pi / 4)


# -------------------------------------------------------- background sweep


def test_background_sweep_means_and_zero_power(base=81):
    cfg = MemoryConfig(eta_h=0.0, eta_v=0.0, bg_rate=0.004, tech_rate=0.002)
    powers = [0.0, 1.0, 4.0, 9.0]
    trials = 1_000_000
    bg, tech = simulate_background_sweep(cfg, powers, trials, base)
    assert bg.y[0] == 0.0 and tech.y[0] == 0.0
    for p, y in zip(powers[1:], bg.y[1:]):
        mean = cfg.tech_rate * p + cfg.bg_rate * math.sqrt(p)
        assert abs(y - mean) <= 3 * math.sqrt(mean / trials)
    for p, y in zip(powers[1:], tech.y[1:]):
        mean = cfg.tech_rate * p
        assert abs(y - mean) <= 3 * math.sqrt(mean / trials)


def test_background_sweep_validation():
    cfg = MemoryConfig()
    with pytest.raises(ConfigError):
        simulate_background_sweep(cfg, [1.0, 0.5], 100, 1)
    with pytest.raises(ConfigError):
        simulate_background_sweep(cfg, [-1.0], 100, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweeps_reject_non_finite_abscissas(bad):
    # a NaN or infinite time or power would be drawn at a NaN mean
    with pytest.raises(ConfigError, match="finite"):
        simulate_decay_series(MemoryConfig(), [0.0, bad], 1000, 1)
    with pytest.raises(ConfigError, match="finite"):
        simulate_background_sweep(MemoryConfig(), [0.0, bad], 1000, 1)


# ------------------------------------------------------------ serialization


def test_histogram_json_round_trip(tmp_path):
    cfg = MemoryConfig()
    hist = simulate_histogram(cfg, H, None, 50_000, 91, label="storage:H")
    path = tmp_path / "h.json"
    hist.save(path)
    back = ArrivalHistogram.load(path)
    assert np.array_equal(back.counts, hist.counts)
    assert back.label == "storage:H"
    assert back.n_trials == hist.n_trials
    assert back.t_start + len(back.counts) * back.bin_width == pytest.approx(cfg.t_max)
    # a second save is byte-identical
    path2 = tmp_path / "h2.json"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_histogram_schema_enforced():
    good = {"t_start_us": 0.0, "bin_width_us": 0.05, "n_trials": 10, "counts": [0, 1], "label": ""}
    ArrivalHistogram.from_json(good)
    with pytest.raises(DataError):
        ArrivalHistogram.from_json({**good, "extra": 1})
    missing = dict(good)
    del missing["label"]
    with pytest.raises(DataError):
        ArrivalHistogram.from_json(missing)
    with pytest.raises(DataError):
        ArrivalHistogram(0.0, 0.05, [-1, 2], 10)
    with pytest.raises(DataError):
        ArrivalHistogram(0.0, 0.05, [1, 2], 0)
    with pytest.raises(DataError, match="counts must be one-dimensional"):
        ArrivalHistogram(0.0, 0.05, [[1], [1, 2]], 10)
    with pytest.raises(DataError, match="label must be text"):
        ArrivalHistogram.from_json({**good, "label": None})


def test_sweep_csv_round_trip(tmp_path):
    series = SweepSeries(
        [0.0, 5.0, 10.0], [0.05, 0.04, 0.03], [0.001, 0.001, 0.001],
        "storage_time_us", "efficiency",
    )
    path = tmp_path / "s.csv"
    series.save_csv(path)
    back = SweepSeries.load_csv(path)
    assert back.x_name == "storage_time_us" and back.y_name == "efficiency"
    assert np.array_equal(back.x, series.x)
    assert np.array_equal(back.y, series.y)
    assert np.array_equal(back.y_err, series.y_err)
    with pytest.raises(DataError):
        SweepSeries([1.0], [1.0, 2.0], [0.0])


def test_sweep_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        SweepSeries.load_csv(path)
    path.write_text("x,y,y_err\n1,two,0\n")
    with pytest.raises(DataError):
        SweepSeries.load_csv(path)
